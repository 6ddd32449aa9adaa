import hashlib
import math
import random
import sys
from collections import Counter, deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxbench import (
    Graph,
    Ordering,
    identity_ordering,
    partition_edges,
    random_ordering,
    worst_case_path,
)
from relaxbench.graph import MAX_COUNT, _check_index, _shuffle, rank_adjacency

from helpers import all_orderings, graphs, orderings_for, reference_shuffle


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError):
        Graph(2, ((0, 2, 1.0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 1, math.nan),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 1, math.inf),))
    with pytest.raises(ValueError):
        Graph(2, (), source=2)
    with pytest.raises(ValueError, match="above sys.maxsize"):
        Graph(sys.maxsize + 1, ())
    with pytest.raises(ValueError, match=f"^vertex count {MAX_COUNT + 1} is above MAX_COUNT = {MAX_COUNT}$"):
        Graph(MAX_COUNT + 1, ())


def test_check_index_quotes_any_bound_given_even_max_count():
    # The default bound was told from a given one by value, so a given MAX_COUNT
    # read "source id 10000001 is above MAX_COUNT = 10000000".
    for most in (MAX_COUNT - 1, MAX_COUNT, MAX_COUNT + 1):
        with pytest.raises(ValueError) as excinfo:
            _check_index(most + 1, "source id", 1, most)
        assert str(excinfo.value) == f"source id {most + 1} out of range [1, {most}]"
        assert _check_index(most, "source id", 1, most) == most
    with pytest.raises(ValueError) as excinfo:
        _check_index(MAX_COUNT + 1, "n")
    assert str(excinfo.value) == f"n {MAX_COUNT + 1} is above MAX_COUNT = {MAX_COUNT}"
    with pytest.raises(ValueError) as excinfo:
        _check_index(0, "n", 1, None)
    assert str(excinfo.value) == "n must be >= 1, got 0"


def test_graph_rejects_an_endpoint_int_cannot_convert():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=r"edge \((inf|nan), 1, 1\.0\) has an endpoint"):
            Graph(2, ((bad, 1, 1.0),))
        with pytest.raises(ValueError, match=r"edge \(0, (inf|nan), 1\.0\) has an endpoint"):
            Graph(2, ((0, bad, 1.0),))


def test_graph_keeps_canonical_edges_and_converts_the_rest():
    # An integral weight becomes an int whatever its type, a float beyond the
    # largest exact one, a -0.0 or a string included; a fractional one a Fraction.
    class Weight(float):
        pass

    kept = (0, 1, 2)
    g = Graph(3, (kept, [1, 2, 3.0], (True, False, -1.0), (2, 2, Fraction(8, 2)),
                  (0, 2, Weight(3.0)), (1, 0, 10**400), (1, 0, 2.0**60), (2, 1, -0.0),
                  (2, 0, "7/2"), (0, 1, Fraction(-1, 3))))
    assert g.edges[0] is kept
    assert g.edges == ((0, 1, 2), (1, 2, 3), (1, 0, -1), (2, 2, 4), (0, 2, 3), (1, 0, 10**400),
                       (1, 0, 2**60), (2, 1, 0), (2, 0, Fraction(7, 2)), (0, 1, Fraction(-1, 3)))
    assert [type(w) for _, _, w in g.edges] == [int] * 8 + [Fraction] * 2
    assert all(type(e) is tuple and tuple(map(type, e[:2])) == (int, int) for e in g.edges)


@pytest.mark.parametrize("edge, message", [
    ((0, 1, math.nan), "edge (0, 1) has non-finite weight nan"),
    ((0, 1, math.inf), "edge (0, 1) has non-finite weight inf"),
    ((1, 0, -math.inf), "edge (1, 0) has non-finite weight -inf"),
    ((0, 1, 0.5), "edge (0, 1) has weight 0.5, a float that is not an integer; "
                  "give a Fraction for an exact fractional weight"),
    ((0, 2, 1.0), "edge (0, 2) has an endpoint outside [0, 2)"),
    ((-1, 0, 1.0), "edge (-1, 0) has an endpoint outside [0, 2)"),
    ((True, 2, 1), "edge (1, 2) has an endpoint outside [0, 2)"),
    ((0, math.nan, 1.0), "edge (0, nan, 1.0) has an endpoint that is not an integer"),
    ((1, 0, "nan"), "edge (1, 0) has weight 'nan', not a finite rational number"),
    # Fraction() refuses these by type; that TypeError used to escape.
    ((0, 1, None), "edge (0, 1) has weight None, not a finite rational number"),
    ((1, 0, 1 + 2j), "edge (1, 0) has weight (1+2j), not a finite rational number"),
])
def test_graph_refuses_an_edge_it_cannot_hold(edge, message):
    with pytest.raises(ValueError) as excinfo:
        Graph(2, ((0, 1, 1.0), edge))
    assert str(excinfo.value) == message


class _Index:
    """An integer that is no int: ``operator.index`` takes it, as it takes numpy's."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("build, message", [
    # Most of these used to pass: int() truncated the float or the Fraction and
    # parsed the string, and the vertex count, the source and the seed were not
    # converted at all.  The negative ones were refused, some in other words.
    (lambda: Graph(3, [(1.7, 0, 1)]), "edge (1.7, 0, 1) has an endpoint that is not an integer"),
    (lambda: Graph(3, [(0, Fraction(3, 2), 1)]),
     "edge (0, Fraction(3, 2), 1) has an endpoint that is not an integer"),
    (lambda: Graph(3, [(0, "1", 1)]), "edge (0, '1', 1) has an endpoint that is not an integer"),
    (lambda: Graph(5.0, ((0, 1, 1),)), "vertex count must be an integer, got 5.0"),
    (lambda: Graph(3, (), source=1.0), "source must be an integer, got 1.0"),
    (lambda: Graph(3, (), source=-1), "source -1 out of range [0, 2]"),
    (lambda: Graph(-2, ()), "vertex count must be >= 1, got -2"),
    (lambda: Ordering((0, 1.7, 2)),
     "rank must be a permutation of 0..n-1; 'float' object cannot be interpreted as an integer"),
    (lambda: random_ordering(Graph(3, ()), 1.5), "seed must be a non-negative integer, got 1.5"),
    (lambda: random_ordering(Graph(3, ()), -1), "seed must be a non-negative integer, got -1"),
    (lambda: random_ordering(Graph(3, ()), True), "seed must be a non-negative integer, got True"),
])
def test_graph_ordering_and_seed_refuse_a_value_that_is_no_integer(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_graph_and_ordering_convert_an_integer_that_is_no_int():
    g = Graph(_Index(3), [(_Index(0), _Index(2), 1)], source=_Index(1))
    assert (g.n, g.source, g.edges) == (3, 1, ((0, 2, 1),))
    assert type(g.n) is type(g.source) is int and all(type(x) is int for x in g.edges[0])
    rank = Ordering((_Index(0), True, _Index(2))).rank
    assert rank == (0, 1, 2) and all(type(r) is int for r in rank)


def test_ordering_must_be_permutation():
    with pytest.raises(ValueError):
        Ordering((0, 0, 1))
    with pytest.raises(ValueError):
        Ordering((1, 2, 3))
    with pytest.raises(ValueError):
        Ordering((0, 2))
    with pytest.raises(ValueError):
        Ordering((-1, 0))
    assert Ordering(()).n == 0


def test_validate_for_rejects_wrong_source_rank():
    g = Graph(3, (), source=1)
    with pytest.raises(ValueError):
        Ordering((0, 1, 2)).validate_for(g)
    Ordering((1, 0, 2)).validate_for(g)  # source rank 0: fine


def test_identity_ordering_puts_source_first():
    g = Graph(4, (), source=2)
    ordering = identity_ordering(g)
    assert ordering.rank[2] == 0
    assert ordering.by_rank == (2, 0, 1, 3)


def test_partition_simple_triangle():
    # ranks s=0, a=1, b=2: s->a and a->b ascend, b->a descends
    g = Graph(3, ((0, 1, 1.0), (2, 1, 1.0), (1, 2, 1.0)))
    part = partition_edges(g, Ordering((0, 1, 2)))
    assert part.plus == ((0, 1, 1.0), (1, 2, 1.0))
    assert part.minus == ((2, 1, 1.0),)
    assert part.loops == ()


def test_partition_self_loop_only():
    g = Graph(2, ((1, 1, 1.0),))
    part = partition_edges(g, Ordering((0, 1)))
    assert part.plus == () and part.minus == ()
    assert part.loops == ((1, 1, 1.0),)


def test_partition_path_with_swapped_ranks():
    g = Graph(3, ((0, 1, 1.0), (1, 2, 1.0)))
    part = partition_edges(g, Ordering((0, 2, 1)))
    assert part.plus == ((0, 1, 1.0),)
    assert part.minus == ((1, 2, 1.0),)


def test_partition_pass_order_is_topological_and_stable():
    # parallel edges from the same tail must keep input order
    g = Graph(4, ((1, 2, 5.0), (0, 2, 1.0), (1, 2, 7.0), (0, 3, 2.0), (3, 2, 3.0)))
    ordering = Ordering((0, 3, 1, 2))  # rank: v0=0, v1=3, v2=1, v3=2
    part = partition_edges(g, ordering)
    rank = ordering.rank
    plus_keys = [rank[u] for u, _, _ in part.plus]
    minus_keys = [rank[u] for u, _, _ in part.minus]
    assert plus_keys == sorted(plus_keys)
    assert minus_keys == sorted(minus_keys, reverse=True)
    assert part.minus == ((1, 2, 5.0), (1, 2, 7.0), (3, 2, 3.0))


def _is_acyclic(n, edges):
    indeg = [0] * n
    adj = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        indeg[v] += 1
    queue = deque(v for v in range(n) if indeg[v] == 0)
    seen = 0
    while queue:
        u = queue.popleft()
        seen += 1
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == n


@given(data=st.data())
@settings(max_examples=150)
def test_partition_buckets_cover_edges_and_are_acyclic(data):
    g = data.draw(graphs())
    ordering = data.draw(orderings_for(g))
    part = partition_edges(g, ordering)
    assert len(part.plus) + len(part.minus) + len(part.loops) == g.m
    assert sorted(part.plus + part.minus + part.loops) == sorted(g.edges)
    assert all(u == v for u, v, _ in part.loops)
    assert _is_acyclic(g.n, part.plus)
    assert _is_acyclic(g.n, part.minus)


def test_partition_exhaustive_small():
    fixtures = [
        Graph(3, ((0, 1, 1.0), (1, 2, -2.0), (2, 0, 3.0), (1, 1, -1.0), (0, 1, 5.0))),
        Graph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0), (2, 2, 0.0)), source=2),
        Graph(5, tuple((u, v, 1.0) for u in range(5) for v in range(5) if u != v)[:10]),
    ]
    for g in fixtures:
        for ordering in all_orderings(g):
            part = partition_edges(g, ordering)
            assert sorted(part.plus + part.minus + part.loops) == sorted(g.edges)
            rank = ordering.rank
            assert all(rank[u] < rank[v] for u, v, _ in part.plus)
            assert all(rank[u] > rank[v] for u, v, _ in part.minus)


def test_rank_adjacency_matches_a_split_written_out_edge_by_edge():
    # Random multigraphs with self-loops, parallel edges and isolated vertices,
    # from a source other than 0.
    rng = random.Random(5)
    for trial in range(300):
        n = rng.randint(2, 12)
        active = rng.sample(range(n), rng.randint(1, n - 1))  # the others have no edge
        edges = [(rng.choice(active), rng.choice(active), rng.randint(-5, 5))
                 for _ in range(rng.randint(0, 3 * n))]
        edges += [(u, u, 1) for u in rng.sample(active, 1)]
        edges += rng.sample(edges, min(3, len(edges)))
        rng.shuffle(edges)
        g = Graph(n, edges, source=rng.randrange(1, n))
        rank = random_ordering(g, trial).rank
        up, down, up_key, down_key = rank_adjacency(g, Ordering(rank))
        assert len(up) == len(down) == len(up_key) == len(down_key) == n
        for u in range(n):
            want_up = [e for e in g.edges if e[0] == u and rank[e[1]] > rank[u]]
            want_down = [e for e in g.edges if e[0] == u and rank[e[1]] < rank[u]]
            assert up[u] == want_up and down[u] == want_down
            assert all(a is b for a, b in zip(up[u] + down[u], want_up + want_down))
            assert up_key[u] == rank[u] if want_up else up_key[u] is None
            assert down_key[u] == n - 1 - rank[u] if want_down else down_key[u] is None


def test_random_ordering_trivial_sizes():
    g1 = Graph(1, ())
    assert random_ordering(g1, 123).rank == (0,)
    g2 = Graph(2, ())
    for seed in range(20):
        assert random_ordering(g2, seed).rank == (0, 1)


def test_random_ordering_deterministic_and_source_pinned():
    g = Graph(7, (), source=3)
    a = random_ordering(g, 987654321)
    b = random_ordering(g, 987654321)
    assert a.rank == b.rank
    assert a.rank[3] == 0
    assert random_ordering(g, 987654322).rank != a.rank


def test_random_ordering_golden_value():
    # Pinned MT19937 + rejection-sampled Fisher-Yates stream: this exact
    # permutation is part of the reproducibility contract.
    g = Graph(6, ())
    assert random_ordering(g, 42).rank == (0, 5, 2, 3, 1, 4)


def test_random_ordering_golden_value_at_scale():
    # Pins the draw sequence at n=2000, where rejection sampling runs on
    # every bit width up to 11.
    ranks = [random_ordering(worst_case_path(2000), seed).rank for seed in range(3)]
    assert hashlib.sha256(repr(ranks).encode()).hexdigest()[:16] == "ec3a66e57ba8ec84"


def test_random_ordering_golden_value_off_source():
    # A source other than 0 changes which vertices the shuffle permutes, which
    # the source-0 pins above never reach.
    assert random_ordering(Graph(7, (), source=3), 987654321).rank == (1, 6, 2, 0, 5, 4, 3)
    assert random_ordering(Graph(7, (), source=6), 42).rank == (5, 2, 3, 1, 4, 6, 0)
    ranks = [random_ordering(Graph(2000, (), source=1999), 0).rank,
             random_ordering(Graph(2000, (), source=1000), 1).rank]
    assert hashlib.sha256(repr(ranks).encode()).hexdigest()[:16] == "2ef5766655327a84"


@pytest.mark.parametrize("seed", range(5))
def test_shuffle_draws_as_the_one_position_at_a_time_reference(seed):
    # Same permutation and same generator state after it: random_graph keeps
    # drawing from the generator it shuffled with.
    for n in [*range(301), 1999, 2000, 4097]:
        got, want = list(range(n)), list(range(n))
        rng, ref = random.Random(seed), random.Random(seed)
        _shuffle(got, rng.getrandbits)
        reference_shuffle(want, ref.getrandbits)
        assert got == want, n
        assert rng.getstate() == ref.getstate(), n


def test_random_ordering_equals_its_checked_construction():
    for n in range(1, 9):
        for source in range(n):
            g = Graph(n, (), source=source)
            for seed in range(6):
                ordering = random_ordering(g, seed)
                assert ordering == Ordering(ordering.rank)
                assert all(type(r) is int for r in ordering.rank)
    # The public constructor keeps its check (test_ordering_must_be_permutation),
    # and so does _replace on an ordering built unchecked.
    with pytest.raises(ValueError, match="permutation"):
        random_ordering(Graph(3, ()), 0)._replace(rank=(0, 0, 1))


def test_random_ordering_rejects_negative_seed():
    with pytest.raises(ValueError):
        random_ordering(Graph(3, ()), -1)


def test_random_ordering_uniform_over_six_orderings():
    # n=4: the 3! = 6 source-first orderings should be equally likely.
    g = Graph(4, ())
    draws = 6000
    counts = Counter(random_ordering(g, seed).rank for seed in range(draws))
    assert len(counts) == 6
    expected = draws / 6
    # chi-square against uniform, 5 dof, p ~= 0.001 critical value
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 20.515
    se = math.sqrt((1 / 6) * (5 / 6) / draws)
    for c in counts.values():
        assert abs(c / draws - 1 / 6) <= 4 * se
