import math
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxbench import (
    Graph,
    GeneratorSpec,
    SsspState,
    certify,
    floyd_warshall,
    iteration_threshold,
    random_graph,
    random_ordering,
    run_basic,
    run_with_detection,
    yen_iterations,
)

from helpers import (
    as_inf,
    brute_force_negative_cycle,
    cycle_free_graphs,
    graphs,
    reachable_from_source,
    shortest_simple_path_lengths,
)


def test_path_distances():
    g = Graph(3, ((0, 1, 1.0), (1, 2, 1.0)))
    result = floyd_warshall(g)
    assert result.dist[0] == [0.0, 1.0, 2.0]
    assert not result.has_reachable_negative_cycle


def test_negative_triangle_flagged():
    g = Graph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 1, -3.0)))
    assert floyd_warshall(g).has_reachable_negative_cycle


def test_unreachable_negative_cycle_not_flagged():
    g = Graph(4, ((0, 1, 1.0), (2, 3, -1.0), (3, 2, -1.0)))
    result = floyd_warshall(g)
    assert not result.has_reachable_negative_cycle
    assert result.dist[2][2] < 0  # the cycle exists, it just is not reachable


def test_negative_self_loop_counts_when_reachable():
    assert floyd_warshall(Graph(2, ((0, 1, 1.0), (1, 1, -1.0)))).has_reachable_negative_cycle
    assert not floyd_warshall(Graph(2, ((1, 1, -1.0),))).has_reachable_negative_cycle


def test_equal_weight_alternatives_both_in_sp_edges():
    g = Graph(3, ((0, 2, 2.0), (0, 1, 1.0), (1, 2, 1.0)))
    result = floyd_warshall(g)
    assert set(result.sp_edges) == {(0, 2, 2.0), (0, 1, 1.0), (1, 2, 1.0)}


def test_sp_edges_excludes_self_loops_and_unreachable_tails():
    g = Graph(4, ((0, 1, 1.0), (1, 1, 0.0), (2, 3, 1.0)))
    result = floyd_warshall(g)
    assert result.sp_edges == [(0, 1, 1.0)]


def test_oracle_cap_enforced():
    with pytest.raises(ValueError):
        floyd_warshall(Graph(257, ()))
    with pytest.raises(ValueError):
        shortest_simple_path_lengths(Graph(9, ()))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_flag_matches_bruteforce_cycle_enumeration(data):
    g = data.draw(graphs(max_n=5, min_weight=-3, max_weight=3, max_edges=10))
    assert floyd_warshall(g).has_reachable_negative_cycle == brute_force_negative_cycle(g)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_distances_satisfy_triangle_inequality(data):
    g = data.draw(graphs())
    result = floyd_warshall(g)
    dist = result.dist
    if any(dist[v][v] < 0 for v in range(g.n)):
        return  # any negative cycle, reachable or not, breaks metric structure
    for i in range(g.n):
        for k in range(g.n):
            if dist[i][k] == math.inf:
                continue
            for j in range(g.n):
                if dist[k][j] < math.inf:
                    assert dist[i][j] <= dist[i][k] + dist[k][j]


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_oracle_and_basic_engine_cross_check(data):
    g = data.draw(graphs())
    result = floyd_warshall(g)
    if result.has_reachable_negative_cycle:
        return
    state, _ = run_basic(g)
    assert as_inf(state.dist) == result.dist[g.source]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_sp_edges_preserve_reachability(data):
    g = data.draw(graphs())
    result = floyd_warshall(g)
    if result.has_reachable_negative_cycle:
        return
    sub = Graph(g.n, tuple(result.sp_edges), source=g.source)
    assert reachable_from_source(sub) == reachable_from_source(g)


def test_simple_paths_match_distances_without_cycles():
    g = Graph(4, ((0, 1, 2.0), (1, 2, -1.0), (0, 2, 5.0), (2, 3, 1.0)))
    lengths = shortest_simple_path_lengths(g)
    row = floyd_warshall(g).dist[0]
    assert [math.inf if x is None else x for x in lengths] == row


def test_simple_paths_stay_finite_beside_negative_cycle():
    g = Graph(2, ((0, 1, 4.0), (1, 0, -9.0)))
    lengths = shortest_simple_path_lengths(g)
    assert lengths == [0.0, 4.0]  # one simple path each, despite the cycle


def test_simple_paths_unreachable_vertex_is_none():
    assert shortest_simple_path_lengths(Graph(3, ((0, 1, 1.0),))) == [0.0, 1.0, None]


def test_distances_drop_to_simple_path_level_by_threshold():
    # After the threshold iteration count, every tentative distance sits at
    # or below the best simple-path length, whatever cycles the graph has.
    n = 6
    cap = iteration_threshold(n, 2.0)
    checked = 0
    for instance in range(200):
        g = random_graph(GeneratorSpec(
            kind="random-sparse", n=n, m=10, weight_min=-3, weight_max=5,
            seed=instance, ensure_reachable=True,
        ))
        simple = shortest_simple_path_lengths(g)
        ordering = random_ordering(g, instance * 7 + 1)
        state = SsspState(g)
        for _ in islice(yen_iterations(g, ordering, state), cap):
            pass
        for v in range(g.n):
            if simple[v] is None:
                assert state.dist[v] is None
            else:
                assert state.dist[v] is not None
                assert state.dist[v] <= simple[v]
        checked += 1
    assert checked == 200


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_certify_accepts_detector_verdicts_and_agrees_with_oracle(data):
    g = data.draw(graphs(min_weight=-4, max_weight=4))
    seed = data.draw(st.integers(0, 2**16))
    state, stats, verdict = run_with_detection(g, seed)
    assert certify(g, state.dist, stats.negative_cycle) is None
    has_cycle = floyd_warshall(g).has_reachable_negative_cycle
    assert verdict.found == has_cycle
    # No distance vector certifies "none" while a reachable negative cycle exists.
    assert (certify(g, state.dist) is None) == (not has_cycle)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_certify_rejects_every_single_entry_mutation(data):
    g, result = data.draw(cycle_free_graphs())
    dist = [None if d == math.inf else d for d in result.dist[g.source]]
    assert certify(g, dist) is None
    for v, d in enumerate(dist):
        mutants = [None, d - 1, d + 1] if d is not None else [0.0]
        for bad in mutants:
            forged = list(dist)
            forged[v] = bad
            assert certify(g, forged) is not None, (v, bad)
    assert certify(g, dist[:-1]) is not None


def test_certify_checks_cycle_certificates():
    # 0 -> 1 <-> 2 with parallel 2 -> 1 edges; 3 <-> 4 is unreachable from 0.
    g = Graph(5, ((0, 1, 1.0), (1, 2, -2.0), (2, 1, 5.0), (2, 1, 1.0),
                  (3, 4, -1.0), (4, 3, -1.0), (0, 0, 0.0)))
    dist = [0.0, 1.0, -1.0, None, None]
    assert certify(g, dist, [1, 2]) is None  # the cheaper parallel edge makes it -1
    assert certify(g, dist, [2, 1]) is None
    assert certify(g, dist, [1, 2, 1, 2]) is None  # a closed walk twice round
    assert "not an edge" in certify(g, dist, [0, 1, 2])  # 2 -> 0 is missing
    assert "non-negative" in certify(g, dist, [0])  # the zero self-loop
    assert "not reachable" in certify(g, dist, [3, 4])
    assert certify(g, dist, []) is not None
    assert certify(g, dist, [1, 5]) is not None


def test_certify_rejects_none_claim_beside_negative_self_loop():
    g = Graph(3, ((0, 1, 1.0), (1, 1, -1.0), (2, 2, -1.0)))
    assert "tense" in certify(g, [0.0, 1.0, None])
    assert certify(g, [0.0, 1.0, None], [1]) is None
    assert "not reachable" in certify(g, [0.0, 1.0, None], [2])
    # the unreached vertex 2 keeps its loop out of the "none" claim
    assert certify(Graph(3, ((0, 1, 1.0), (2, 2, -1.0))), [0.0, 1.0, None]) is None
