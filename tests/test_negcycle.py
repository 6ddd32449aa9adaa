import math
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxbench import engines, negcycle
from relaxbench import (
    GeneratorSpec,
    Graph,
    SsspState,
    dense_relaxation_budget,
    detect_cycle_in_parent_graph,
    detection_start,
    floyd_warshall,
    iteration_cap,
    iteration_threshold,
    monte_carlo_dense_detect,
    random_graph,
    random_ordering,
    run_randomized,
    run_with_detection,
    yen_iterations,
)

from helpers import (graphs, guard_scan_yen_iterations, mixed_weights, record_shifts,
                     shortest_simple_path_lengths)


def test_parent_graph_detection_examples():
    assert detect_cycle_in_parent_graph([None, 0, 1]) is None
    assert detect_cycle_in_parent_graph([None, 2, 1]) == [1, 2]
    assert detect_cycle_in_parent_graph([None, None, None]) is None


def test_parent_graph_detection_tail_into_cycle():
    # 4 -> 3 -> 2 -> 1 -> 3: the cycle is {3, 2, 1} regardless of entry point
    parent = [None, 3, 1, 2, 3]
    cycle = detect_cycle_in_parent_graph(parent)
    assert cycle is not None
    assert set(cycle) == {1, 2, 3}
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert parent[a] == b


def test_iteration_threshold_values():
    assert iteration_threshold(2, 1e-15) == 3
    assert iteration_threshold(27, 1.0) == math.ceil(9 + 2 + math.sqrt(54 * math.log(27)))
    assert iteration_threshold(27, 1.0) == 25
    with pytest.raises(ValueError):
        iteration_threshold(1, 1.0)
    with pytest.raises(ValueError):
        iteration_threshold(10, 0.0)
    # It used to truncate: iteration_threshold(27.5, 1.0) returned 25.
    with pytest.raises(ValueError, match=r"^n must be an integer, got 27\.5$"):
        iteration_threshold(27.5, 1.0)


@pytest.mark.parametrize("c", [0.0, -0.0, -5.0, math.inf, -math.inf, math.nan])
def test_every_use_of_c_refuses_one_not_positive_and_finite(c):
    for call in (lambda: iteration_threshold(10, c), lambda: detection_start(1, c),
                 lambda: detection_start(10, c), lambda: dense_relaxation_budget(30, c)):
        with pytest.raises(ValueError, match="c must be positive and finite"):
            call()


def test_detection_start_falls_back_to_cap_at_desk_scale():
    # At small n the tail term exceeds the deterministic cap, so the cap wins.
    assert iteration_threshold(12, 2.0) > iteration_cap(12)
    assert detection_start(12, 2.0) == iteration_cap(12) == 8
    for n in range(2, 200):
        assert detection_start(n, 2.0) <= iteration_cap(n)


def test_two_vertex_negative_cycle_found_with_certificate():
    g = Graph(2, ((0, 1, 1.0), (1, 0, -3.0)))
    state, stats, verdict = run_with_detection(g, seed=0)
    cycle = stats.negative_cycle
    assert verdict.found
    assert cycle is not None
    weight = sum(
        min(w for x, y, w in g.edges if (x, y) == (a, b))
        for a, b in zip(cycle, cycle[1:] + cycle[:1])
    )
    assert weight == -2.0
    assert verdict.iterations_used == stats.iterations <= iteration_cap(2)


# The negative 2-cycle 0 <-> 1 keeps relaxation going to the cap, and 2 <-> 3 is a
# cycle of weight 0, which is no certificate.
_TWO_CYCLES = Graph(4, ((0, 1, 1), (1, 0, -3), (0, 2, 1), (2, 3, 1), (3, 2, -1)))
_PLANTED = random_graph(GeneratorSpec(kind="planted-cycle", n=8, m=12, cycle_length=3,
                                      cycle_weight=-2))


@pytest.mark.parametrize("g, pointer_cycle, message", [
    (_TWO_CYCLES, [1, 2], r"^predecessor cycle uses the non-edge \(2, 1\); detector state is corrupt$"),
    (_TWO_CYCLES, [2, 3], r"^predecessor cycle \[3, 2\] has non-negative weight 0; detector "),
    (_PLANTED, None, "^no predecessor cycle at the iteration cap 6 although relaxation has not "),
], ids=["non-edge", "non-negative", "no-cycle-at-cap"])
def test_detection_raises_on_each_defect_of_its_parent_graph(monkeypatch, g, pointer_cycle,
                                                              message):
    # The detector checks what the parent graph gives it; a defect there raises
    # instead of becoming a verdict.
    calls = []
    monkeypatch.setattr(negcycle, "detect_cycle_in_parent_graph",
                        lambda pred: calls.append(list(pred)) or pointer_cycle)
    with pytest.raises(RuntimeError, match=message):
        run_with_detection(g, seed=0)
    assert calls and len(calls[-1]) == g.n


def test_clean_run_matches_plain_randomized():
    g = Graph(4, ((0, 1, 2.0), (1, 2, -1.0), (2, 3, 3.0), (0, 3, 9.0)))
    for seed in range(10):
        state, stats, verdict = run_with_detection(g, seed)
        plain, plain_stats, _ = run_randomized(g, seed)
        assert not verdict.found
        assert state.dist == plain.dist
        assert stats.iterations == plain_stats.iterations
        assert stats.relax_calls == plain_stats.relax_calls
        assert stats.negative_cycle is None


def test_detection_agrees_with_oracle_on_small_corpus():
    hits = 0
    for instance in range(400):
        spec = GeneratorSpec(kind="random-sparse", n=6, m=9, weight_min=-3,
                             weight_max=3, seed=instance)
        g = random_graph(spec)
        truth = floyd_warshall(g).has_reachable_negative_cycle
        _, stats, verdict = run_with_detection(g, seed=instance)
        assert verdict.found == truth
        assert stats.iterations <= iteration_cap(g.n)
        hits += verdict.found
    assert hits > 50  # the corpus genuinely exercises both outcomes


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_certificates_are_sound(data):
    g = data.draw(graphs(max_n=6, min_weight=-3, max_weight=3, max_edges=10))
    seed = data.draw(st.integers(0, 2**32))
    _, stats, verdict = run_with_detection(g, seed)
    assert verdict.found == (stats.negative_cycle is not None)
    if not verdict.found:
        return
    cycle = stats.negative_cycle
    assert len(cycle) >= 1
    pairs = {}
    for u, v, w in g.edges:
        pairs[(u, v)] = min(w, pairs.get((u, v), math.inf))
    weight = 0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert (a, b) in pairs
        weight += pairs[(a, b)]
    assert weight < 0


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_verdict_flag_always_matches_oracle(data):
    g = data.draw(graphs(max_n=6, min_weight=-3, max_weight=3, max_edges=10))
    seed = data.draw(st.integers(0, 2**32))
    _, _, verdict = run_with_detection(g, seed)
    assert verdict.found == floyd_warshall(g).has_reachable_negative_cycle


def test_negative_self_loop_certificate():
    g = Graph(3, ((0, 1, 2.0), (1, 1, -1.0), (1, 2, 1.0)))
    _, stats, verdict = run_with_detection(g, seed=5)
    assert verdict.found and stats.negative_cycle == [1]
    unreachable = Graph(3, ((0, 1, 2.0), (2, 2, -1.0)))
    _, stats, clean = run_with_detection(unreachable, seed=5)
    assert not clean.found  # out of scope: the loop is not reachable
    assert stats.negative_cycle is None


def test_parent_cycle_appears_whenever_distance_beats_simple_paths():
    # Empirical check of the detection premise: once any tentative distance
    # drops below the best simple-path length, the parent graph has a cycle.
    for instance in range(150):
        spec = GeneratorSpec(kind="planted-cycle", n=7, m=10, weight_min=-2,
                             weight_max=4, seed=instance, cycle_length=3,
                             cycle_weight=-1)
        g = random_graph(spec)
        simple = shortest_simple_path_lengths(g)
        ordering = random_ordering(g, instance)
        state = SsspState(g)
        for st_ in islice(yen_iterations(g, ordering, state), iteration_cap(g.n)):
            if any(d < best for d, best in zip(st_.dist, simple)):
                assert detect_cycle_in_parent_graph(st_.pred) is not None


def test_dense_budget_formula():
    n, c = 30, 2.0
    expected = n**3 / 6 + math.sqrt(2) * n**2.5 * math.sqrt(c * math.log(n))
    assert dense_relaxation_budget(n, c) == expected
    with pytest.raises(ValueError):
        dense_relaxation_budget(30, 0.0)
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        dense_relaxation_budget(0, 2.0)


def test_cap_and_start_refuse_a_vertex_count_that_is_no_index():
    # Each used to return a bound: 3, 1 and 1.
    for call, message in [(lambda: iteration_cap(1.5), r"n must be an integer, got 1\.5"),
                          (lambda: detection_start(1.5, 2.0), r"n must be an integer, got 1\.5"),
                          (lambda: detection_start(0, 2.0), "n must be >= 1, got 0")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_monte_carlo_terminating_run_is_clean():
    g = Graph(4, ((0, 1, 2.0), (1, 2, -1.0), (2, 3, 3.0)))
    state, stats, verdict = monte_carlo_dense_detect(g, seed=0)
    assert not verdict.found and stats.negative_cycle is None
    assert state.dist == [0.0, 2.0, 1.0, 4.0]


def test_monte_carlo_two_cycle_exhausts_budget():
    g = Graph(2, ((0, 1, 1.0), (1, 0, -3.0)))
    _, stats, verdict = monte_carlo_dense_detect(g, seed=0)
    assert verdict.found
    assert stats.negative_cycle is None  # no certificate from the budget detector
    assert stats.relax_calls > dense_relaxation_budget(2, 2.0)


def test_monte_carlo_self_loop_certificate():
    g = Graph(2, ((0, 1, 1.0), (1, 1, -2.0)))
    _, stats, verdict = monte_carlo_dense_detect(g, seed=0)
    assert verdict.found and stats.negative_cycle == [1]
    # an unreached negative loop leaves the verdict clean
    g = Graph(3, ((0, 1, 1.0), (2, 2, -2.0)))
    state, stats, verdict = monte_carlo_dense_detect(g, seed=0)
    assert not verdict.found and stats.negative_cycle is None
    assert state.dist == [0, 1, math.inf]
    # two reached loops: the smaller vertex is the certificate
    g = Graph(3, ((0, 2, 1.0), (0, 1, 1.0), (2, 2, -1.0), (1, 1, -5.0)))
    _, stats, verdict = monte_carlo_dense_detect(g, seed=0)
    assert verdict.found and stats.negative_cycle == [1]


def test_monte_carlo_agrees_with_oracle_on_dense_instances():
    for seed in range(40):
        clean = random_graph(GeneratorSpec(kind="random-dense", n=10,
                                           weight_min=0, weight_max=9, seed=seed))
        assert not monte_carlo_dense_detect(clean, seed)[2].found
        planted = random_graph(GeneratorSpec(kind="planted-cycle", n=10, m=10 * 9,
                                             weight_min=0, weight_max=9, seed=seed,
                                             cycle_length=3, cycle_weight=-1))
        assert monte_carlo_dense_detect(planted, seed)[2].found


def _detection_outcomes(g, seed):
    outcomes = []
    for detect in (run_with_detection, monte_carlo_dense_detect):
        try:
            state, stats, verdict = detect(g, seed)
        except RuntimeError as exc:
            outcomes.append(repr(exc))
            continue
        outcomes.append((state.dist, state.pred, stats, verdict))
    return outcomes


@given(g=graphs(max_n=8, max_edges=24, weights=mixed_weights), seed=st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_detectors_match_the_reference_kernel(g, seed):
    # The detectors step the Yen kernel; under the guard-scan reference in
    # its place they must reach the same verdicts, states and counters, or
    # fail with the same error, also when sums leave the float range.
    got = _detection_outcomes(g, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(negcycle, "yen_iterations", guard_scan_yen_iterations)
        assert _detection_outcomes(g, seed) == got


def test_detection_records_do_not_depend_on_the_fast_forward(monkeypatch):
    # On a complete graph with a planted cycle the run soon repeats each
    # iteration shifted, and the Yen generator adds the shift instead of
    # relaxing; with the shift test declining, every step is relaxed.
    graphs = [random_graph(GeneratorSpec(kind="planted-cycle", n=30, m=30 * 29, weight_min=0,
                                         weight_max=9, seed=seed, cycle_length=5,
                                         cycle_weight=-1))
              for seed in range(10)]
    shifts = record_shifts(monkeypatch)
    fast = [_detection_outcomes(g, seed) for seed, g in enumerate(graphs)]
    assert sum(c is not None for c in shifts) == 20  # once in each run of each detector
    monkeypatch.setattr(engines, "_uniform_shift", lambda before, after: None)
    assert [_detection_outcomes(g, seed) for seed, g in enumerate(graphs)] == fast
