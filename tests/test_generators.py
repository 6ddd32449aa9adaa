import hashlib
import statistics
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxbench import (
    GeneratorSpec,
    Graph,
    adversarial_ordering,
    build_graph,
    complete_over_path,
    count_local_minima,
    floyd_warshall,
    random_graph,
    run_basic,
    run_randomized,
    run_yen,
    worst_case_path,
)

from helpers import (
    all_orderings,
    reachable_from_source,
    reference_random_graph,
    shortest_simple_path_lengths,
)


def test_worst_case_path_shape():
    g = worst_case_path(2)
    assert g.edges == ((0, 1, 1.0),)
    g5 = worst_case_path(5)
    assert g5.m == 4
    state, _ = run_basic(g5)
    assert state.dist == [0.0, 1.0, 2.0, 3.0, 4.0]
    with pytest.raises(ValueError):
        worst_case_path(1)


def test_worst_case_path_tree_is_unique():
    for n in range(2, 11):
        g = worst_case_path(n)
        result = floyd_warshall(g)
        assert result.dist[0] == [float(v) for v in range(n)]
        assert result.sp_edges == list(g.edges)
        if n <= 8:
            # exhaustive simple-path enumeration agrees: one path per vertex
            assert shortest_simple_path_lengths(g) == [float(v) for v in range(n)]


def test_adversarial_ordering_small_patterns():
    assert adversarial_ordering(4).rank == (0, 3, 1, 2)
    assert adversarial_ordering(5).rank == (0, 4, 1, 3, 2)
    assert count_local_minima(adversarial_ordering(4).rank) == 1


def test_adversarial_ordering_maximizes_interior_minima():
    for n in range(4, 12):
        ordering = adversarial_ordering(n)
        seq = [ordering.rank[v] for v in range(n)]
        minima = count_local_minima(seq)
        assert minima == (n - 2) // 2
        _, stats = run_yen(worst_case_path(n), ordering)
        assert stats.iterations == 2 + minima


def test_adversarial_iterations_reach_half_n():
    for n in (6, 8, 10, 12):
        _, stats = run_yen(worst_case_path(n), adversarial_ordering(n))
        assert stats.iterations >= n / 2 - 1


def test_adversarial_beats_mean_ordering():
    # exhaustive over orderings for tiny n, sampled seeds above that
    for n in range(4, 8):
        g = worst_case_path(n)
        _, adv = run_yen(g, adversarial_ordering(n))
        counts = [run_yen(g, o)[1].iterations for o in all_orderings(g)]
        assert adv.iterations >= statistics.fmean(counts)
    for n in (9, 12):
        g = worst_case_path(n)
        _, adv = run_yen(g, adversarial_ordering(n))
        mean = statistics.fmean(
            run_randomized(g, seed)[1].iterations for seed in range(300)
        )
        assert adv.iterations >= mean


def test_random_graph_is_deterministic():
    spec = GeneratorSpec(kind="random-sparse", n=9, m=16, seed=5)
    assert random_graph(spec).edges == random_graph(spec).edges
    other = GeneratorSpec(kind="random-sparse", n=9, m=16, seed=6)
    assert random_graph(other).edges != random_graph(spec).edges


@st.composite
def random_specs(draw):
    """Specs of every random kind, n in [1, 40]."""
    kind = draw(st.sampled_from(("random-sparse", "random-dense", "planted-cycle")))
    n = draw(st.integers(1, 40))
    ensure_reachable = draw(st.booleans())
    # Spans of 1 and 10, and spans past 2**32 that take multi-word getrandbits.
    span = draw(st.sampled_from((1, 10)) | st.integers(2, 2**70))
    weight_min = draw(st.integers(-2**40, 5))
    extra = {}
    if kind != "random-dense":
        full = n * (n - 1)
        low = n - 1 if ensure_reachable or kind == "planted-cycle" else 0
        extra["m"] = draw(st.integers(low, full))
    if kind == "planted-cycle":
        extra["cycle_length"] = draw(st.integers(1, n))
        extra["cycle_weight"] = draw(st.integers(-5, -1))
    return GeneratorSpec(kind=kind, n=n, weight_min=weight_min, weight_max=weight_min + span - 1,
                         seed=draw(st.integers(0, 2**32)), ensure_reachable=ensure_reachable,
                         **extra)


@settings(max_examples=400, deadline=None)
@given(random_specs())
def test_random_graph_matches_the_convenience_call_reference(spec):
    assert random_graph(spec).edges == reference_random_graph(spec).edges


@pytest.mark.parametrize("spec, digest", [
    (GeneratorSpec(kind="random-sparse", n=2000, m=10000, weight_min=0, weight_max=9, seed=0,
                   ensure_reachable=True),
     "086c2e173de93812a5bc0c642841e50d38875e9e07410f8d7bf47fd5505863d9"),
    (GeneratorSpec(kind="planted-cycle", n=150, m=150 * 149, weight_min=0, weight_max=9, seed=0,
                   cycle_length=5, cycle_weight=-1),
     "f9012b43cc9096107ae91e91b361a27dbf71793aa970ccc7b64126491836285f"),
])
def test_seed_to_graph_map_is_pinned(spec, digest):
    # The benchmark's sparse-2000 and dense-detect-cli seed-0 instances.
    edges = build_graph(spec).edges
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest


def test_random_graph_respects_bounds_and_simplicity():
    spec = GeneratorSpec(kind="random-sparse", n=10, m=25, weight_min=-2,
                         weight_max=4, seed=3)
    g = random_graph(spec)
    assert g.n == 10 and g.m == 25
    pairs = [(u, v) for u, v, _ in g.edges]
    assert len(set(pairs)) == len(pairs)
    assert all(u != v for u, v in pairs)
    assert all(-2 <= w <= 4 and w == int(w) for _, _, w in g.edges)


def test_single_vertex_spec():
    g = random_graph(GeneratorSpec(kind="random-sparse", n=1, m=0, seed=0))
    assert g.n == 1 and g.m == 0


def test_reachability_flag_spans_graph():
    spec = GeneratorSpec(kind="random-sparse", n=12, m=18, seed=11,
                         ensure_reachable=True)
    g = random_graph(spec)
    assert reachable_from_source(g) == set(range(12))
    zero_weight = [e for e in g.edges if e[2] == 0.0]
    assert len(zero_weight) >= 11


def test_dense_kind_uses_every_pair():
    g = random_graph(GeneratorSpec(kind="random-dense", n=6, seed=2))
    assert g.m == 30
    assert len({(u, v) for u, v, _ in g.edges}) == 30


def test_planted_cycle_verified_by_oracle():
    for seed in range(30):
        spec = GeneratorSpec(kind="planted-cycle", n=12, m=24, seed=seed,
                             cycle_length=3, cycle_weight=-1)
        g = random_graph(spec)
        assert g.m == 27  # base edges plus the planted triangle
        assert floyd_warshall(g).has_reachable_negative_cycle


def test_planted_self_loop():
    spec = GeneratorSpec(kind="planted-cycle", n=5, m=6, seed=1,
                         cycle_length=1, cycle_weight=-2)
    g = random_graph(spec)
    assert any(u == v and w == -2.0 for u, v, w in g.edges)
    assert floyd_warshall(g).has_reachable_negative_cycle


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(kind="mystery", n=4, m=2)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="random-sparse", n=3, m=7)  # above n*(n-1)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="random-sparse", n=5, m=2, ensure_reachable=True)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="planted-cycle", n=5, m=6)  # missing cycle params
    with pytest.raises(ValueError):
        GeneratorSpec(kind="planted-cycle", n=5, m=6, cycle_length=3, cycle_weight=1)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="planted-cycle", n=5, m=6, cycle_length=9, cycle_weight=-1)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="random-sparse", n=4, weight_min=5, weight_max=2, m=3)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="random-sparse", n=4).base_edge_count()  # no m
    with pytest.raises(ValueError, match="above sys.maxsize"):
        GeneratorSpec(kind="random-dense", n=sys.maxsize + 1)


@pytest.mark.parametrize("kind", ["path-worst-case", "random-dense"])
def test_spec_rejects_m_on_a_kind_that_ignores_it(kind):
    with pytest.raises(ValueError, match="takes no m"):
        GeneratorSpec(kind=kind, n=5, m=20)


@pytest.mark.parametrize("kind", ["path-worst-case", "random-sparse", "random-dense"])
@pytest.mark.parametrize("cycle", [{"cycle_length": 3}, {"cycle_weight": -1}])
def test_spec_rejects_cycle_fields_off_planted_cycle(kind, cycle):
    size = {"m": 6} if kind == "random-sparse" else {}
    with pytest.raises(ValueError, match="need planted-cycle"):
        GeneratorSpec(kind=kind, n=5, **size, **cycle)


@pytest.mark.parametrize("kind, size", [
    ("path-worst-case", {}), ("random-sparse", {"m": 6}), ("random-dense", {})])
def test_spec_refuses_a_negative_seed(kind, size):
    # Random(-3) seeds as Random(3) does: seeds -3 and 3 would build one graph
    # under two labels.
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -3"):
        GeneratorSpec(kind=kind, n=5, seed=-3, **size)


@pytest.mark.parametrize("field, value", [
    pytest.param(field, sign * 2**1100, id=f"{field}-huge")
    for field, sign in (("weight_min", -1), ("weight_max", 1), ("cycle_weight", -1))])
def test_spec_refuses_a_value_no_graph_can_take(field, value):
    # A weight bound no float holds used to escape as OverflowError from random_graph.
    spec = dict(kind="planted-cycle", n=5, m=6, cycle_length=3, cycle_weight=-1)
    with pytest.raises(ValueError, match=f"^{field} "):
        GeneratorSpec(**{**spec, field: value})


def test_planted_cycle_spec_needs_n_minus_1_base_edges():
    # The spec refuses what random_graph could not build: the arborescence
    # that reaches the cycle takes n-1 = 4 base edges.
    with pytest.raises(ValueError, match="at least n-1 = 4 base edges, got 3$"):
        GeneratorSpec(kind="planted-cycle", n=5, m=3, cycle_length=2, cycle_weight=-1)
    spec = GeneratorSpec(kind="planted-cycle", n=5, m=4, cycle_length=2, cycle_weight=-1)
    assert random_graph(spec).m == 6


def test_build_graph_dispatch():
    path = build_graph(GeneratorSpec(kind="path-worst-case", n=7))
    assert path.edges == worst_case_path(7).edges
    with pytest.raises(ValueError):
        GeneratorSpec(kind="alternating-adversary", n=7)
    with pytest.raises(ValueError):
        random_graph(GeneratorSpec(kind="path-worst-case", n=7))


def test_spec_label_round_trips_key_fields():
    spec = GeneratorSpec(kind="planted-cycle", n=12, m=24, seed=9,
                         cycle_length=3, cycle_weight=-1)
    label = spec.label()
    assert label.startswith("gen:")
    for token in ("kind=planted-cycle", "n=12", "m=24", "seed=9",
                  "cycle_length=3", "cycle_weight=-1"):
        assert token in label


def test_complete_over_path_keeps_the_path_tree():
    n = 12
    g = complete_over_path(n)
    assert g.m == n * (n - 1)
    result = floyd_warshall(g)
    assert result.dist[0] == [float(v) for v in range(n)]
    assert sorted(result.sp_edges) == [(i, i + 1, 1.0) for i in range(n - 1)]
