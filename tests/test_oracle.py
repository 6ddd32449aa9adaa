import math
import warnings
from fractions import Fraction
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
    monte_carlo_dense_detect,
    random_graph,
    random_ordering,
    run_adaptive,
    run_basic,
    run_randomized,
    run_with_detection,
    run_yen,
    yen_iterations,
)

from helpers import (
    brute_force_negative_cycle,
    cycle_free_graphs,
    graphs,
    mixed_weights,
    orderings_for,
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
    assert state.dist == result.dist[g.source]


def test_simple_paths_match_distances_without_cycles():
    g = Graph(4, ((0, 1, 2.0), (1, 2, -1.0), (0, 2, 5.0), (2, 3, 1.0)))
    lengths = shortest_simple_path_lengths(g)
    row = floyd_warshall(g).dist[0]
    assert lengths == row


def test_simple_paths_stay_finite_beside_negative_cycle():
    g = Graph(2, ((0, 1, 4.0), (1, 0, -9.0)))
    lengths = shortest_simple_path_lengths(g)
    assert lengths == [0.0, 4.0]  # one simple path each, despite the cycle


def test_simple_paths_unreachable_vertex_is_inf():
    assert shortest_simple_path_lengths(Graph(3, ((0, 1, 1.0),))) == [0, 1, math.inf]


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
            if simple[v] == math.inf:
                assert state.dist[v] == math.inf
            else:
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
    dist = result.dist[g.source]
    assert certify(g, dist) is None
    for v, d in enumerate(dist):
        mutants = [math.inf, d - 1, d + 1] if d != math.inf else [0]
        for bad in mutants:
            forged = list(dist)
            forged[v] = bad
            assert certify(g, forged) is not None, (v, bad)
    assert certify(g, dist[:-1]) is not None


def test_certify_checks_cycle_certificates():
    # 0 -> 1 <-> 2 with parallel 2 -> 1 edges; 3 <-> 4 is unreachable from 0.
    g = Graph(5, ((0, 1, 1.0), (1, 2, -2.0), (2, 1, 5.0), (2, 1, 1.0),
                  (3, 4, -1.0), (4, 3, -1.0), (0, 0, 0.0)))
    dist = [0, 1, -1, math.inf, math.inf]
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
    assert "tense" in certify(g, [0, 1, math.inf])
    assert certify(g, [0, 1, math.inf], [1]) is None
    assert "not reachable" in certify(g, [0, 1, math.inf], [2])
    # the unreached vertex 2 keeps its loop out of the "none" claim
    assert certify(Graph(3, ((0, 1, 1.0), (2, 2, -1.0))), [0, 1, math.inf]) is None


def test_certify_names_a_none_distance():
    # An unreached vertex's distance is math.inf; None is no distance, and
    # certify names the first vertex that holds it rather than failing.
    g = Graph(3, ((0, 1, 1), (1, 2, 1), (2, 1, -1)))
    for dist in ([0, 1, None], [0, None, None], [None, 1, 2]):
        assert certify(g, dist) == (f"vertex {dist.index(None)} has distance None; an "
                                    "unreached vertex has math.inf")


# Weights whose sums a float gets wrong: fractions whose decimal expansions do
# not end, and integers within a few units of +-2**60, where the floats are
# 256 apart, so that a cycle of them can weigh a small negative number.
EXACT_WEIGHTS = {
    "fractions": st.fractions(-3, 7, max_denominator=12),
    "near-2**60": st.tuples(st.sampled_from((-2**60, 0, 2**60)), st.integers(-3, 3)).map(sum),
}


@pytest.mark.parametrize("weights", EXACT_WEIGHTS.values(), ids=EXACT_WEIGHTS)
def test_engines_oracle_and_certify_agree_exactly(weights):
    # On a cycle-free graph the four engines and the detector end at the
    # oracle's distances, which certify accepts; on a cyclic one the detector
    # finds the cycle and certify accepts its certificate.  An independent
    # enumeration of simple cycles decides which graph is which.
    outcomes = []

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def check(data):
        g = data.draw(graphs(max_n=6, max_edges=12, weights=weights))
        seed = data.draw(st.integers(0, 2**32))
        oracle = floyd_warshall(g)
        cyclic = brute_force_negative_cycle(g)
        assert oracle.has_reachable_negative_cycle == cyclic
        state, stats, verdict = run_with_detection(g, seed)
        assert verdict.found == cyclic
        assert certify(g, state.dist, stats.negative_cycle) is None
        outcomes.append(cyclic)
        if cyclic:
            return
        row = oracle.dist[g.source]
        for dist in (state.dist, run_basic(g)[0].dist, run_adaptive(g)[0].dist,
                     run_yen(g, data.draw(orderings_for(g)))[0].dist,
                     run_randomized(g, seed)[0].dist):
            assert dist == row
            assert certify(g, dist) is None
            assert all(type(d) in (int, Fraction) for d in dist if d != math.inf)

    check()
    assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10


def test_unreached_is_inf_exactly_off_the_reachable_set():
    # Every engine and both detectors leave math.inf at exactly the vertices
    # the source does not reach, also on a cyclic graph, where an engine
    # stops at its cap; on a cycle-free one each finished run's dist is the
    # oracle's row as it stands.  The budget detector may stop a cycle-free
    # run early with a "cycle" verdict, which leaves no distances to compare.
    outcomes = []

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def check(data):
        g = data.draw(graphs(max_n=6, max_edges=12, weights=mixed_weights))
        seed = data.draw(st.integers(0, 2**32))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # an engine's cap
            finished = [run_basic(g)[0], run_adaptive(g)[0],
                        run_yen(g, data.draw(orderings_for(g)))[0], run_randomized(g, seed)[0],
                        run_with_detection(g, seed)[0]]
        budget_state, _, budget_verdict = monte_carlo_dense_detect(g, seed)
        reach = reachable_from_source(g)
        for state in finished + [budget_state]:
            assert [d == math.inf for d in state.dist] == [v not in reach for v in range(g.n)]
        oracle = floyd_warshall(g)
        outcomes.append(oracle.has_reachable_negative_cycle)
        if not oracle.has_reachable_negative_cycle:
            for state in finished + ([] if budget_verdict.found else [budget_state]):
                assert state.dist == oracle.dist[g.source]

    check()
    assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10
