"""Directed weighted multigraphs, vertex orderings, and rank-based edge partitions.

A graph is a flat edge list over dense integer vertex ids 0..n-1 with a
designated source.  An Ordering assigns every vertex a rank, with the source
pinned at rank 0.  ``rank_adjacency`` splits each tail's edges into the
rank-ascending and rank-descending subgraphs (both acyclic by construction);
``partition_edges`` flattens that split and puts the self-loops, which no Yen
pass relaxes, in a third bucket.  The cycle detectors find negative self-loops
by scanning ``Graph.edges`` themselves.
"""

from __future__ import annotations

import operator
import random
import sys
from collections import namedtuple
from itertools import chain
from math import isfinite
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence, Tuple, Union

if TYPE_CHECKING:
    from fractions import Fraction

# An exact weight or distance: an int, or a Fraction that is not integral.
Weight = Union[int, "Fraction"]
Edge = Tuple[int, int, Weight]  # (tail, head, weight)


def _check_index(value, name: str, least: int = 1, most: int = sys.maxsize) -> int:
    """A count, a source or a length as an int in [least, most], or ``ValueError`` naming
    it; below the default ``most``, the message quotes the range."""
    try:
        value = operator.index(value)  # where int() would truncate a float or parse a string
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not least <= value <= most:
        raise ValueError(f"{name} {value} out of range [{least}, {most}]" if most != sys.maxsize
                         else f"{name} must be >= {least}, got {value}" if value < least
                         else f"{name} {value} is above sys.maxsize")
    return value


def _check_seed(seed) -> None:
    """Refuse a seed that is not a non-negative ``int``: ``Random(-s)`` seeds as ``Random(s)``."""
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _checked_make(cls, fields):
    """``_make`` for a record class that checks its fields, so ``_replace`` checks them too."""
    return cls(*fields)


class Graph(namedtuple("Graph", "n edges source", defaults=(0,))):
    """Immutable directed weighted multigraph with a source vertex.

    The vertex count, the source and the endpoints are integers, converted
    by ``operator.index``: a float, a ``Fraction`` or a string among them
    raises ``ValueError`` naming it.  Parallel edges and self-loops are
    allowed.  Weights are exact, so every sum and comparison of distances
    is: an integral weight of any type becomes an ``int``, and any other a
    ``Fraction`` as ``Fraction()`` converts it (a decimal string included).
    A float that is not an integer, NaN and the infinities included, raises
    ``ValueError`` naming the edge.  Instances are safe to share across threads.

    ``edges`` holds ``(int, int, weight)`` tuples.  An input edge that is a
    tuple of three values of type exactly ``int``, with endpoints in [0, n),
    is kept as the same object; any other edge is converted and checked.
    The generators and ``load_dimacs`` skip this check (``_from_checked``).
    """

    __slots__ = ()

    def __new__(cls, n: int, edges: Sequence[Edge], source: int = 0) -> Graph:
        n = _check_index(n, "vertex count")
        source = _check_index(source, "source", 0, n - 1)
        canon = []
        for e in edges:
            u, v, w = e
            if not (type(e) is tuple and type(u) is int and type(v) is int and type(w) is int
                    and 0 <= u < n and 0 <= v < n):
                e = _canonical_edge(e, n)
            canon.append(e)
        return super().__new__(cls, n, tuple(canon), source)

    _make = classmethod(_checked_make)

    @classmethod
    def _from_checked(cls, n: int, edges: Tuple[Edge, ...], source: int) -> Graph:
        """The graph as given, unchecked, for a caller that built every edge canonical.

        The caller has refused whatever ``Graph(n, edges, source)`` refuses and built
        what it would keep: ints ``n`` and ``source``, and each edge as an ``(int, int,
        weight)`` tuple whose weight is ``_canonical_weight``'s.  The callers are
        ``worst_case_path``, ``random_graph``, ``complete_over_path`` and ``load_dimacs``.
        """
        return super().__new__(cls, n, edges, source)

    @property
    def m(self) -> int:
        return len(self.edges)

    def out_adjacency(self) -> list[list[Edge]]:
        """Per-vertex out-edges, the graph's own tuples in input order, self-loops included."""
        adj: list[list[Edge]] = [[] for _ in range(self.n)]
        for e in self.edges:
            adj[e[0]].append(e)
        return adj


def _canonical_edge(e, n: int) -> Edge:
    """Convert one edge to ``(int, int, weight)``, refusing what ``Graph`` cannot hold."""
    u, v, w = e
    try:
        u, v = operator.index(u), operator.index(v)
    except TypeError:
        raise ValueError(f"edge {e!r} has an endpoint that is not an integer") from None
    if not 0 <= u < n or not 0 <= v < n:
        raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
    return u, v, _canonical_weight(w, f"edge ({u}, {v})")


def _canonical_weight(w, what: str) -> Weight:
    """``w`` converted as ``Graph`` converts a weight, or ``ValueError`` naming ``what``."""
    if isinstance(w, float):
        if not isfinite(w):
            raise ValueError(f"{what} has non-finite weight {w!r}")
        if not w.is_integer():
            raise ValueError(f"{what} has weight {w!r}, a float that is not an "
                             "integer; give a Fraction for an exact fractional weight")
    elif not isinstance(w, int):
        from fractions import Fraction  # only such a weight pays for importing it

        try:
            w = Fraction(w)
        except (OverflowError, ValueError):
            raise ValueError(f"{what} has weight {w!r}, not a finite rational number") from None
        if w.denominator != 1:
            return w
    return int(w)


class Ordering(namedtuple("Ordering", "rank")):
    """A bijective vertex numbering; ``rank[v]`` is the position of vertex v.

    Ranks pass ``operator.index``, so a float raises ``ValueError``; a graph's orderings put its
    source at rank 0 (checked by :meth:`validate_for`, which every consumer calls on entry).
    """

    __slots__ = ()

    def __new__(cls, rank: Sequence[int]) -> Ordering:
        try:
            rank = tuple(map(operator.index, rank))
        except TypeError as exc:
            raise ValueError(f"rank must be a permutation of 0..n-1; {exc}") from None
        # n distinct integers between 0 and n-1 are a permutation of them.
        n = len(rank)
        if n and (len(set(rank)) != n or min(rank) != 0 or max(rank) != n - 1):
            raise ValueError("rank must be a permutation of 0..n-1")
        return super().__new__(cls, rank)

    _make = classmethod(_checked_make)

    @property
    def n(self) -> int:
        return len(self.rank)

    @property
    def by_rank(self) -> Tuple[int, ...]:
        """Vertex ids in ascending rank order (inverse of ``rank``)."""
        order = [0] * self.n
        for v, r in enumerate(self.rank):
            order[r] = v
        return tuple(order)

    def validate_for(self, g: Graph) -> None:
        if self.n != g.n:
            raise ValueError(f"ordering covers {self.n} vertices, graph has {g.n}")
        if self.rank[g.source] != 0:
            raise ValueError(f"source {g.source} must have rank 0, has {self.rank[g.source]}")


class EdgePartition(NamedTuple):
    """The two acyclic subgraphs induced by an ordering, plus the self-loops.

    ``plus`` holds rank-ascending edges sorted by (tail rank, input position);
    ``minus`` holds rank-descending edges sorted by (descending tail rank,
    input position).  A linear scan of either list therefore visits tails in
    (reverse) topological vertex order.
    """

    plus: Tuple[Edge, ...]
    minus: Tuple[Edge, ...]
    loops: Tuple[Edge, ...]


def rank_adjacency(g: Graph, ordering: Ordering) -> tuple[list[list[Edge]], list[list[Edge]]]:
    """Split g's out-edges by rank direction: (up, down), per tail, in input order.

    ``up[u]`` holds u's edges to higher-ranked heads and ``down[u]`` those to
    lower-ranked ones, the graph's own tuples; self-loops are in neither.
    """
    ordering.validate_for(g)
    rank = ordering.rank
    up: list[list[Edge]] = [[] for _ in range(g.n)]
    down: list[list[Edge]] = [[] for _ in range(g.n)]
    for e in g.edges:
        u, v, _ = e
        ru, rv = rank[u], rank[v]
        if ru < rv:
            up[u].append(e)
        elif ru > rv:
            down[u].append(e)
    return up, down


def partition_edges(g: Graph, ordering: Ordering) -> EdgePartition:
    """Flatten ``rank_adjacency`` into edge lists and collect the self-loops.

    Every edge lands in exactly one bucket: ascending rank in ``plus``,
    descending rank in ``minus``, and self-loops in ``loops``.
    """
    up, down = rank_adjacency(g, ordering)
    by_rank = ordering.by_rank
    return EdgePartition(tuple(chain.from_iterable(map(up.__getitem__, by_rank))),
                         tuple(chain.from_iterable(map(down.__getitem__, reversed(by_rank)))),
                         tuple(e for e in g.edges if e[0] == e[1]))


def identity_ordering(g: Graph) -> Ordering:
    """The source-first ordering that otherwise preserves vertex index order."""
    s = g.source
    return Ordering(tuple(0 if v == s else v + (v < s) for v in range(g.n)))


def _shuffle(items: list, getrandbits: Callable[[int], int]) -> None:
    """Fisher-Yates in place, drawing from ``getrandbits`` as ``Random.shuffle`` does."""
    for i in range(len(items) - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        items[i], items[j] = items[j], items[i]


def random_ordering(g: Graph, seed: int) -> Ordering:
    """Seeded uniform ordering with the source pinned at rank 0.

    Fisher-Yates over the non-source vertices, driven by MT19937
    (``random.Random(seed).getrandbits``) with explicit rejection sampling.
    The (n, source, seed) -> ordering map is part of the external contract:
    it is bit-identical across runs, platforms, and Python versions.
    All (n-1)! source-first permutations are equally likely under a uniform
    seed.  A seed that is not a non-negative ``int`` raises ``ValueError``.
    """
    _check_seed(seed)
    others = [v for v in range(g.n) if v != g.source]
    _shuffle(others, random.Random(seed).getrandbits)
    rank = [0] * g.n
    for pos, v in enumerate(others, start=1):
        rank[v] = pos
    return Ordering(tuple(rank))
