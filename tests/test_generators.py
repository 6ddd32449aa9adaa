import hashlib
import math
import statistics
import sys
from fractions import Fraction

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
from relaxbench.generators import KINDS
from relaxbench.graph import MAX_COUNT

from helpers import (
    all_orderings,
    reachable_from_source,
    reference_random_graph,
    shortest_simple_path_lengths,
    tight_edges,
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
        assert tight_edges(g, result.dist[0]) == list(g.edges)
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


@pytest.mark.parametrize("spec, float_digest, digest", [
    (GeneratorSpec(kind="random-sparse", n=2000, m=10000, weight_min=0, weight_max=9, seed=0,
                   ensure_reachable=True),
     "086c2e173de93812a5bc0c642841e50d38875e9e07410f8d7bf47fd5505863d9",
     "f4de81cee22d902aba7c595fbcdfcc4be628f40a10a7fc9b02eb6d4bc1468c1b"),
    (GeneratorSpec(kind="planted-cycle", n=150, m=150 * 149, weight_min=0, weight_max=9, seed=0,
                   cycle_length=5, cycle_weight=-1),
     "f9012b43cc9096107ae91e91b361a27dbf71793aa970ccc7b64126491836285f",
     "636a74c857cfae220412137083861391287b9cac668d359f856196c27bd64f18"),
])
def test_seed_to_graph_map_is_pinned(spec, float_digest, digest):
    # The benchmark's sparse-2000 and dense-detect-cli seed-0 instances.
    # float_digest is the pin from before weights became ints: the edges
    # written as (u, v, float(w)) still hash to it, so no value of the map moved.
    edges = build_graph(spec).edges
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest
    as_floats = tuple((u, v, float(w)) for u, v, w in edges)
    assert hashlib.sha256(repr(as_floats).encode()).hexdigest() == float_digest


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
    # Both counts are bounded before anything is drawn: n itself, and the
    # dense kind's n(n-1) = 10,001,406 edges at n = 3163.
    with pytest.raises(ValueError, match=f"^n {MAX_COUNT + 1} is above MAX_COUNT = {MAX_COUNT}$"):
        GeneratorSpec(kind="random-sparse", n=MAX_COUNT + 1, m=1)
    with pytest.raises(ValueError, match=f"^m 10001406 is above MAX_COUNT = {MAX_COUNT}$"):
        GeneratorSpec(kind="random-dense", n=3163)
    with pytest.raises(ValueError, match=f"^edge count n\\(n-1\\) 10001406 is above MAX_COUNT"):
        complete_over_path(3163)
    with pytest.raises(ValueError, match=f"^n {MAX_COUNT + 1} is above MAX_COUNT"):
        worst_case_path(MAX_COUNT + 1)
    # Each of these failed inside build_graph (AttributeError, TypeError), or
    # for seed=1.5 built a graph labelled seed=1.5.
    planted = dict(kind="planted-cycle", n=5, m=6, cycle_length=3, cycle_weight=-1)
    for field, value in [("n", 5.0), ("m", 6.0), ("weight_min", 0.0), ("weight_max", 7.0),
                         ("seed", 1.5), ("cycle_length", 2.0), ("n", True), ("seed", None),
                         ("n", "5")]:
        with pytest.raises(ValueError, match=f"^{field} must be an int, got {value!r}$"):
            GeneratorSpec(**{**planted, field: value})


@pytest.mark.parametrize("build, message", [
    (lambda: worst_case_path(5.0), "n must be an integer, got 5.0"),  # failed inside range()
    (lambda: worst_case_path(1), "n must be >= 2, got 1"),
    (lambda: adversarial_ordering(1), "n must be >= 2, got 1"),
    (lambda: complete_over_path(1), "n must be >= 2, got 1"),
    (lambda: GeneratorSpec(kind="path-worst-case", n=1), "n must be >= 2, got 1"),
    (lambda: GeneratorSpec(kind="random-dense", n=0), "n must be >= 1, got 0"),
])
def test_generators_refuse_a_vertex_count_they_cannot_build(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


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


def test_spec_takes_weight_bounds_beyond_the_float_range():
    # Bounds that no float holds: the weights are ints, and the planted
    # cycle's total is exact.
    big = 2**1100
    spec = GeneratorSpec(kind="planted-cycle", n=5, m=6, weight_min=-big, weight_max=big,
                         cycle_length=3, cycle_weight=1 - big)
    g = random_graph(spec)
    assert all(type(w) is int and -big <= w <= big for _, _, w in g.edges[:6])
    assert sum(w for _, _, w in g.edges[6:]) == 1 - big


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


_EVERY_KIND = [
    GeneratorSpec(kind="path-worst-case", n=9),
    GeneratorSpec(kind="random-sparse", n=9, m=20, weight_min=-2**70, weight_max=2**70, seed=4),
    GeneratorSpec(kind="random-sparse", n=9, m=12, seed=5, ensure_reachable=True),
    GeneratorSpec(kind="random-dense", n=7, seed=6),
    GeneratorSpec(kind="planted-cycle", n=9, m=20, seed=7, cycle_length=4, cycle_weight=-3),
    GeneratorSpec(kind="planted-cycle", n=4, m=12, seed=8, cycle_length=1, cycle_weight=-1),
]


def test_generators_build_the_graph_that_graph_would_check():
    # The generators skip Graph's per-edge check, so each edge must already be
    # one that Graph keeps as the same object.
    assert {s.kind for s in _EVERY_KIND} == set(KINDS)
    for g in [*map(build_graph, _EVERY_KIND), worst_case_path(9), complete_over_path(7)]:
        checked = Graph(g.n, g.edges, g.source)
        assert type(g) is Graph and g == checked
        assert all(a is b for a, b in zip(g.edges, checked.edges))


@pytest.mark.parametrize("cycle_weight, stored, closing", [
    (-1.0, -1, -3), ("-1", -1, -3), (Fraction(-3, 2), Fraction(-3, 2), Fraction(-7, 2)),
    ("-3/2", Fraction(-3, 2), Fraction(-7, 2)), (-2**70, -2**70, -2**70 - 2)])
def test_planted_cycle_weight_is_converted_as_graph_converts_it(cycle_weight, stored, closing):
    # The spec stores the weight as Graph converts it; "-1" used to raise TypeError.
    spec = GeneratorSpec(kind="planted-cycle", n=6, m=8, seed=2, cycle_length=3,
                         cycle_weight=cycle_weight)
    assert type(spec.cycle_weight) is type(stored) and spec.cycle_weight == stored
    assert spec == spec._replace(cycle_weight=stored)
    assert spec.label().endswith(f";cycle_weight={stored}")
    g = build_graph(spec)
    assert g == Graph(g.n, g.edges, g.source)
    assert [type(w) for _, _, w in g.edges[-3:]] == [int, int, type(closing)]
    assert [w for _, _, w in g.edges[-3:]] == [1, 1, closing]


@pytest.mark.parametrize("cycle_weight, message", [
    (-1.5, "cycle_weight has weight -1.5, a float that is not an integer; "
           "give a Fraction for an exact fractional weight"),
    (-math.inf, "cycle_weight has non-finite weight -inf"),
    (math.nan, "cycle_weight has non-finite weight nan"),
    ("x", "cycle_weight has weight 'x', not a finite rational number"),
    ([1], "cycle_weight has weight [1], not a finite rational number")])
def test_planted_cycle_refuses_a_weight_graph_refuses(cycle_weight, message):
    # The spec refuses the weight itself; before, build_graph refused the closing
    # edge's weight (-3.5 for -1.5), and a NaN spec was built.
    with pytest.raises(ValueError) as excinfo:
        GeneratorSpec(kind="planted-cycle", n=6, m=8, seed=2, cycle_length=3,
                      cycle_weight=cycle_weight)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("fields, message", [
    ({"kind": "random-sparse", "n": 3, "m": 7}, "m 7 out of range [0, 6]"),
    ({"kind": "random-sparse", "n": 3, "m": -1}, "m -1 out of range [0, 6]"),
    ({"kind": "planted-cycle", "n": 5, "m": 6, "cycle_length": 9, "cycle_weight": -1},
     "cycle_length 9 out of range [1, 5]"),
    ({"kind": "planted-cycle", "n": 5, "m": 6, "cycle_length": 0, "cycle_weight": -1},
     "cycle_length 0 out of range [1, 5]"),
    # This read "cycle_length 10000001 is above MAX_COUNT = 10000000", as if n were not
    # its bound; nothing is drawn, so the spec is cheap at any n.
    ({"kind": "planted-cycle", "n": MAX_COUNT, "m": MAX_COUNT - 1,
      "cycle_length": MAX_COUNT + 1, "cycle_weight": -1},
     f"cycle_length {MAX_COUNT + 1} out of range [1, {MAX_COUNT}]"),
    # m is bounded by n(n-1) while that is below MAX_COUNT (n <= 3162), and by
    # MAX_COUNT, whose own wording it keeps, from n = 3163 on.
    ({"kind": "random-sparse", "n": 3162, "m": 9995083}, "m 9995083 out of range [0, 9995082]"),
    ({"kind": "random-sparse", "n": 3163, "m": MAX_COUNT + 1},
     f"m {MAX_COUNT + 1} is above MAX_COUNT = {MAX_COUNT}"),
    ({"kind": "random-sparse", "n": 3163, "m": -1}, "m must be >= 0, got -1"),
])
def test_spec_names_the_field_whose_range_it_refuses(fields, message):
    # These read "edge count 7 outside [0, n*(n-1)]" and "cycle length must be in [1, n]".
    with pytest.raises(ValueError) as excinfo:
        GeneratorSpec(**fields)
    assert str(excinfo.value) == message


def test_complete_over_path_keeps_the_path_tree():
    n = 12
    g = complete_over_path(n)
    assert g.m == n * (n - 1)
    result = floyd_warshall(g)
    assert result.dist[0] == [float(v) for v in range(n)]
    assert sorted(tight_edges(g, result.dist[0])) == [(i, i + 1, 1.0) for i in range(n - 1)]


_SHARED_ID_BUILDS = {
    "path-worst-case": lambda: build_graph(GeneratorSpec(kind="path-worst-case", n=600)),
    "random-sparse": lambda: build_graph(GeneratorSpec(kind="random-sparse", n=600, m=3000)),
    "random-sparse-reachable": lambda: build_graph(GeneratorSpec(
        kind="random-sparse", n=600, m=3000, ensure_reachable=True)),
    "random-dense": lambda: build_graph(GeneratorSpec(kind="random-dense", n=260)),
    "planted-cycle": lambda: build_graph(GeneratorSpec(
        kind="planted-cycle", n=600, m=599, cycle_length=400, cycle_weight=-1)),
    "complete_over_path": lambda: complete_over_path(260),
}


@pytest.mark.parametrize("name", sorted(_SHARED_ID_BUILDS))
def test_a_generated_graph_holds_one_int_object_per_vertex(name):
    # Past CPython's small-int cache (n > 256), endpoints that were computed
    # apart would be distinct objects of one value.
    g = _SHARED_ID_BUILDS[name]()
    assert g.n > 256
    objects = {id(x) for u, v, _ in g.edges for x in (u, v)}
    assert len(objects) <= g.n
