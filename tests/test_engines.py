import math
import statistics
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relaxbench import engines
from relaxbench import (
    GeneratorSpec,
    Graph,
    Ordering,
    SsspState,
    adaptive_iterations,
    adversarial_ordering,
    basic_passes,
    identity_ordering,
    random_graph,
    random_ordering,
    run_adaptive,
    run_basic,
    run_randomized,
    run_yen,
    worst_case_path,
    yen_iterations,
)

from helpers import (
    all_orderings,
    as_inf,
    cycle_free_graphs,
    graphs,
    guard_scan_yen_iterations,
    orderings_for,
    overflow_weights,
    reference_adaptive_iterations,
    reference_basic_passes,
    relax,
)


def test_relax_first_reach_improvement_and_tie():
    g = Graph(3, ())
    state = SsspState(g)
    assert relax(state, 0, 1, 5.0) is True
    assert state.dist[1] == 5.0 and state.pred[1] == 0

    state.dist[0], state.dist[1] = 2.0, 5.0
    assert relax(state, 0, 1, 3.0) is False  # tie: strict inequality only
    assert state.dist[1] == 5.0

    assert relax(state, 0, 1, -4.0) is True
    assert state.dist[1] == -2.0 and state.pred[1] == 0
    assert state.relax_calls == 3 and state.improvements == 2


def test_basic_strict_count_is_exact():
    # n=4, m=5, disconnected tails included: strict counts every visit
    g = Graph(4, ((0, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0), (1, 0, 1.0), (1, 1, 2.0)))
    _, stats = run_basic(g, strict=True)
    assert stats.relax_calls == g.m * (g.n - 1) == 15
    _, lazy = run_basic(g)
    assert lazy.relax_calls < 15  # edges out of unreached tails skipped


def test_basic_path_distances():
    state, stats = run_basic(worst_case_path(3))
    assert state.dist == [0.0, 1.0, 2.0]
    assert stats.iterations == 2


def test_basic_triangle_prefers_cheaper_route():
    g = Graph(3, ((0, 1, 4.0), (0, 2, 1.0), (2, 1, 1.0)))
    state, _ = run_basic(g)
    assert state.dist[1] == 2.0
    assert state.pred[1] == 2


def test_basic_single_vertex_runs_zero_passes():
    state, stats = run_basic(Graph(1, ()))
    assert stats.iterations == 0
    assert state.dist == [0.0]


def test_adaptive_single_vertex():
    state, stats = run_adaptive(Graph(1, ()))
    assert stats.iterations == 1
    assert stats.relax_calls == 0
    assert not state.frontier


def test_adaptive_path_iteration_count():
    state, stats = run_adaptive(worst_case_path(3))
    assert state.dist == [0.0, 1.0, 2.0]
    assert stats.iterations == 3


def test_adaptive_star():
    g = Graph(6, tuple((0, v, 1.0) for v in range(1, 6)))
    state, stats = run_adaptive(g)
    assert state.dist == [0.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert stats.iterations == 2
    # The second iteration scans only the leaves, which have no out-edges,
    # so the five relaxations of the first iteration are the whole run.
    assert stats.relax_calls == 5
    assert stats.improvements == 5


def test_yen_monotone_ranks_take_two_iterations():
    g = worst_case_path(4)
    _, stats = run_yen(g, identity_ordering(g))
    assert stats.iterations == 2


def test_yen_descending_pass_uses_same_iteration_updates():
    g = worst_case_path(3)
    state, stats = run_yen(g, Ordering((0, 2, 1)))
    assert state.dist == [0.0, 1.0, 2.0]
    assert stats.iterations == 2


@pytest.mark.parametrize("n", [4, 5, 8, 9])
def test_yen_adversarial_alternation(n):
    g = worst_case_path(n)
    _, stats = run_yen(g, adversarial_ordering(n))
    assert stats.iterations == math.ceil((n - 1) / 2) + 1


def test_randomized_short_path_always_two_iterations():
    g = worst_case_path(3)
    for seed in range(50):
        _, stats, _ = run_randomized(g, seed)
        assert stats.iterations == 2


def test_randomized_distances_are_seed_independent():
    g = Graph(6, ((0, 1, 2.0), (1, 2, -1.0), (0, 3, 5.0), (3, 4, -3.0),
                  (4, 1, 1.0), (2, 5, 4.0), (5, 2, -2.0)))
    baseline, _, _ = run_randomized(g, 0)
    for seed in (1, 7, 99, 2**40):
        state, _, ordering = run_randomized(g, seed)
        assert state.dist == baseline.dist
        assert ordering.rank[g.source] == 0


def _steps(driver, g):
    # State after every iteration, capped at n + 1 iterations so that inputs
    # with a reachable negative cycle stop too.
    return [(list(s.dist), list(s.pred), list(s.frontier), s.relax_calls, s.improvements,
             s.iterations) for s in islice(driver, g.n + 1)]


def assert_kernel_matches_guard_scan(g, ordering):
    assert (_steps(yen_iterations(g, ordering), g)
            == _steps(guard_scan_yen_iterations(g, ordering), g))


@pytest.fixture
def each_work_set_mode(monkeypatch):
    """Iterate twice: every non-empty Yen pass drains a heap, then every one scans flags.

    At the real threshold, n / WIDE_PASS_DIVISOR, every non-empty pass of a
    graph with fewer than WIDE_PASS_DIVISOR vertices would scan flags.
    """
    def modes():
        for divisor in (0, 1 << 62):
            monkeypatch.setattr(engines, "WIDE_PASS_DIVISOR", divisor)
            yield
    return modes


@given(data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_yen_kernel_matches_guard_scan_reference(data, each_work_set_mode):
    g = data.draw(graphs(max_n=8, max_edges=24))
    ordering = data.draw(orderings_for(g))
    for _ in each_work_set_mode():
        assert_kernel_matches_guard_scan(g, ordering)


@given(g=graphs(max_n=5))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_yen_kernel_matches_guard_scan_on_every_ordering(g, each_work_set_mode):
    for _ in each_work_set_mode():
        for ordering in all_orderings(g):
            assert_kernel_matches_guard_scan(g, ordering)


@pytest.mark.parametrize("seed", range(4))
def test_yen_kernel_matches_guard_scan_on_larger_graphs(seed, each_work_set_mode):
    path = worst_case_path(60)
    sparse = random_graph(GeneratorSpec(kind="random-sparse", n=40, m=160, weight_min=-2,
                                        weight_max=9, seed=seed, ensure_reachable=True))
    for _ in each_work_set_mode():
        assert_kernel_matches_guard_scan(path, random_ordering(path, seed))
        assert_kernel_matches_guard_scan(sparse, random_ordering(sparse, seed))


def test_yen_kernel_matches_guard_scan_across_the_wide_pass_threshold():
    # At the real threshold one run takes both work-set modes: an iteration
    # entered with at most n / WIDE_PASS_DIVISOR frontier vertices starts
    # its ascending pass with that many keys at most (heap), and one entered
    # with several times more starts a pass wide (flag scan).
    g = random_graph(GeneratorSpec(kind="random-sparse", n=700, m=3500, weight_min=0,
                                   weight_max=9, seed=2, ensure_reachable=True))
    ordering = random_ordering(g, 0)
    sizes = [len(s.frontier) for s in yen_iterations(g, ordering)]
    assert any(0 < size * engines.WIDE_PASS_DIVISOR <= g.n for size in sizes)
    assert any(size * engines.WIDE_PASS_DIVISOR > 4 * g.n for size in sizes)
    assert_kernel_matches_guard_scan(g, ordering)


@given(data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_yen_kernel_matches_guard_scan_when_sums_overflow(data, each_work_set_mode):
    # The kernel compares against a NaN shadow of dist; with distances at
    # +-inf it must still step exactly as the None-based reference does, and
    # no NaN may ever reach state.dist.
    g = data.draw(graphs(max_n=8, max_edges=24, weights=overflow_weights))
    ordering = data.draw(orderings_for(g))
    for _ in each_work_set_mode():
        assert_kernel_matches_guard_scan(g, ordering)
        for state in islice(yen_iterations(g, ordering), g.n + 1):
            assert not any(d is not None and math.isnan(d) for d in state.dist)


def assert_basic_and_adaptive_match_reference(g):
    for strict in (False, True):
        assert (_steps(basic_passes(g, strict), g)
                == _steps(reference_basic_passes(g, strict), g))
    assert _steps(adaptive_iterations(g), g) == _steps(reference_adaptive_iterations(g), g)


# Self-loops, negative weights and cycles; with overflow_weights, sums reach
# +-inf, and the engines' NaN shadow must still step as the None-based rule.
@pytest.mark.parametrize("weights", [None, overflow_weights], ids=["small", "overflow"])
@given(data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_basic_and_adaptive_match_the_reference(weights, data, each_work_set_mode):
    g = data.draw(graphs(max_n=8, max_edges=24, weights=weights))
    for _ in each_work_set_mode():
        assert_basic_and_adaptive_match_reference(g)


def test_adaptive_feeds_a_self_loops_improvement_to_the_tails_later_edges(each_work_set_mode):
    # The kernel reads dist[u] once per vertex, the rule once per edge: an
    # improving self-loop must reach u's later edges in the same pass.
    g = Graph(2, ((0, 0, -1.0), (0, 1, 1.0)))
    for _ in each_work_set_mode():
        state = next(adaptive_iterations(g))
        assert state.dist == [-1.0, 0.0] and state.pred == [0, 0]


@pytest.mark.parametrize("g, dist, pred", [
    # inf is not below inf, but the unreached vertex 2 must still be reached.
    (Graph(3, ((0, 1, 1e308), (1, 2, 1e308))), [0.0, 1e308, math.inf], [None, 0, 1]),
    (Graph(3, ((0, 1, -1e308), (1, 2, -1e308))), [0.0, -1e308, -math.inf], [None, 0, 1]),
    # A finite route replaces an overflowed one, whichever is found first.
    (Graph(4, ((0, 1, 1e308), (1, 2, 1e308), (0, 3, 1.7e308), (3, 2, -1e308))),
     [0.0, 1e308, 1.7e308 - 1e308, 1.7e308], [None, 0, 3, 0]),
])
def test_yen_distances_that_overflow_to_inf(g, dist, pred, each_work_set_mode):
    for _ in each_work_set_mode():
        for ordering in all_orderings(g):
            state, _ = run_yen(g, ordering)
            assert state.dist == dist and state.pred == pred


@pytest.mark.parametrize("rank", [(0, 1), (0, 1, 2, 3), (1, 0, 2)])
def test_yen_rejects_ordering_invalid_for_graph(rank):
    g = worst_case_path(3)
    ordering = Ordering(rank)
    with pytest.raises(ValueError):
        run_yen(g, ordering)
    with pytest.raises(ValueError):
        next(yen_iterations(g, ordering))


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_engine_agreement_on_cycle_free_inputs(data):
    g, oracle = data.draw(cycle_free_graphs())
    expected = oracle.dist[g.source]
    seed = data.draw(st.integers(0, 2**32))
    ordering = data.draw(orderings_for(g))
    for state in (
        run_basic(g)[0],
        run_adaptive(g)[0],
        run_yen(g, ordering)[0],
        run_randomized(g, seed)[0],
    ):
        assert as_inf(state.dist) == expected


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_distances_never_undershoot_during_any_iteration(data):
    g, oracle = data.draw(cycle_free_graphs())
    truth = oracle.dist[g.source]
    ordering = data.draw(orderings_for(g))
    drivers = (
        basic_passes(g),
        adaptive_iterations(g),
        yen_iterations(g, ordering),
    )
    for driver in drivers:
        for state in driver:
            for v, d in enumerate(state.dist):
                if d is not None:
                    assert d >= truth[v]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_predecessor_chain_reaches_source_with_exact_weight(data):
    g, _ = data.draw(cycle_free_graphs())
    state, _ = run_adaptive(g)
    pairs = {}
    for u, v, w in g.edges:
        pairs[(u, v)] = min(w, pairs.get((u, v), math.inf))
    for v in range(g.n):
        if state.dist[v] is None or v == g.source:
            continue
        total, cur, hops = 0.0, v, 0
        while cur != g.source:
            p = state.pred[cur]
            assert p is not None
            assert (p, cur) in pairs
            total += pairs[(p, cur)]
            cur = p
            hops += 1
            assert hops <= g.n
        assert total == state.dist[v]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_yen_relaxation_bound(data):
    g, _ = data.draw(cycle_free_graphs())
    ordering = data.draw(orderings_for(g))
    _, stats = run_yen(g, ordering)
    assert stats.relax_calls <= g.m * g.n / 2 + g.m


def test_unreached_tail_never_enters_arithmetic():
    # vertex 2 is unreachable; strict mode counts but must not touch it
    g = Graph(3, ((0, 1, 1.0), (2, 1, -5.0)))
    state, stats = run_basic(g, strict=True)
    assert stats.relax_calls == g.m * (g.n - 1)
    assert state.dist == [0.0, 1.0, None]
    assert state.pred[2] is None


def test_iteration_count_is_weight_independent_on_fixed_tree():
    # same unique shortest-path tree, different positive weights: the
    # iteration count depends only on the tree plus the ordering
    n = 9
    ordering = adversarial_ordering(n)
    base = worst_case_path(n)
    _, base_stats = run_yen(base, ordering)
    for scale in ((3.0,) * (n - 1), tuple(float(k + 1) for k in range(n - 1)), (0.5,) * (n - 1)):
        g = Graph(n, tuple((i, i + 1, scale[i]) for i in range(n - 1)))
        _, stats = run_yen(g, ordering)
        assert stats.iterations == base_stats.iterations


def test_negative_cycle_hits_iteration_cap_with_warning():
    g = Graph(2, ((0, 1, 1.0), (1, 0, -3.0)))
    with pytest.warns(RuntimeWarning):
        state, stats = run_adaptive(g)
    assert stats.iterations == g.n + 1
    assert state.frontier
    with pytest.warns(RuntimeWarning):
        _, stats = run_yen(g, identity_ordering(g))
    assert stats.iterations == g.n + 1


def test_randomized_cap_warning_names_it_and_points_at_its_caller():
    g = Graph(2, ((0, 1, 1.0), (1, 0, -3.0)))
    with pytest.warns(RuntimeWarning, match=r"^run_randomized: iteration cap 3 hit") as caught:
        _, stats, _ = run_randomized(g, 0)
    assert caught[0].filename == __file__
    assert stats.iterations == g.n + 1


def test_randomized_iteration_expectation_small_path():
    n, trials = 30, 1000
    g = worst_case_path(n)
    counts = [run_randomized(g, seed)[1].iterations for seed in range(trials)]
    mean = statistics.fmean(counts)
    se = statistics.stdev(counts) / math.sqrt(trials)
    assert abs(mean - (n + 3) / 3) <= 4 * se


def test_randomized_relaxation_tail_bound_small_path():
    n, trials, c = 30, 300, 1.0
    g = worst_case_path(n)
    m = g.m
    threshold = m * n / 3 + m + m * math.sqrt(2 * c * n * math.log(n))
    exceed = sum(
        1 for seed in range(trials)
        if run_randomized(g, seed)[1].relax_calls > threshold
    )
    bound = 1 / n
    assert exceed / trials <= bound + 3 * math.sqrt(bound * (1 - bound) / trials)
