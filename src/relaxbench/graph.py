"""Directed weighted multigraphs, vertex orderings, and rank-based edge partitions.

A graph is a flat edge list over dense integer vertex ids 0..n-1 with a
designated source.  An Ordering assigns every vertex a rank, with the source
pinned at rank 0.  ``rank_adjacency`` splits each tail's edges into the
rank-ascending and rank-descending subgraphs (both acyclic by construction)
and keys each tail for the Yen pass over each, in one sweep over the edges;
``partition_edges`` flattens that split and puts the self-loops, which no Yen
pass relaxes, in a third bucket.  The cycle detectors find negative self-loops
by scanning ``Graph.edges`` themselves.

A graph that the library builds (the generators and ``load_dimacs``) holds one
int object per vertex id: every edge that names vertex v holds the same object
for it, so a pass over the edges touches n vertex ints, not two per edge.
"""

from __future__ import annotations

import operator
import random
import sys
from collections import namedtuple
from itertools import chain
from math import isfinite
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from fractions import Fraction

# An exact weight or distance: an int, or a Fraction that is not integral.
Weight = Union[int, "Fraction"]
Edge = Tuple[int, int, Weight]  # (tail, head, weight)


# The largest vertex count, arc count or generated edge count accepted, so that
# a graph is refused before anything is allocated per vertex or per edge.  A
# constant, not read from the host, so a count is refused the same everywhere.
MAX_COUNT = 10**7


def _check_index(value, name: str, least: int = 1, most: Optional[int] = None) -> int:
    """A count, a source or a length as an int in [least, most], or ``ValueError`` naming
    it.  ``most`` defaults to ``MAX_COUNT``; a ``most`` that is given, whatever its
    value, makes the message quote the range."""
    try:
        value = operator.index(value)  # where int() would truncate a float or parse a string
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not least <= value <= (MAX_COUNT if most is None else most):
        raise ValueError(f"{name} {value} out of range [{least}, {most}]" if most is not None
                         else f"{name} must be >= {least}, got {value}" if value < least
                         else f"{name} {value} is above sys.maxsize" if value > sys.maxsize
                         else f"{name} {value} is above MAX_COUNT = {MAX_COUNT}")
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
    raises ``ValueError`` naming it, and so does a vertex count above
    ``MAX_COUNT``.  Parallel edges and self-loops are
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
        ``worst_case_path``, ``random_graph``, ``complete_over_path`` and ``load_dimacs``,
        and each builds its edges from one int object per vertex id (see the module
        docstring).
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
        except (OverflowError, TypeError, ValueError):
            raise ValueError(f"{what} has weight {w!r}, not a finite rational number") from None
        if w.denominator != 1:
            return w
    return int(w)


class Ordering(namedtuple("Ordering", "rank")):
    """A bijective vertex numbering; ``rank[v]`` is the position of vertex v.

    Ranks pass ``operator.index``, so a float raises ``ValueError``; a graph's orderings put its
    source at rank 0 (checked by :meth:`validate_for`, which every consumer calls on entry).
    ``random_ordering`` skips the permutation check (``_from_checked``).
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

    @classmethod
    def _from_checked(cls, rank: Tuple[int, ...]) -> Ordering:
        """The ordering as given, unchecked, for a caller that built ``rank`` as a tuple of
        ints that is a permutation of 0..n-1.  The caller is ``random_ordering``."""
        return super().__new__(cls, rank)

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


def rank_adjacency(g: Graph, ordering: Ordering) -> tuple[list[list[Edge]], list[list[Edge]],
                                                          list[Optional[int]], list[Optional[int]]]:
    """Split g's out-edges by rank direction: (up, down, up_key, down_key), per tail.

    ``up[u]`` holds u's edges to higher-ranked heads and ``down[u]`` those to
    lower-ranked ones, the graph's own tuples in input order; self-loops are
    in neither.  A Yen pass takes tails by key: ``up_key[u]`` is ``rank[u]``
    and ``down_key[u]`` is ``n - 1 - rank[u]``, each set in the same sweep as
    its list is first filled, and None while that list is empty.
    """
    ordering.validate_for(g)
    rank = ordering.rank
    n = g.n
    up: list[list[Edge]] = [[] for _ in range(n)]
    down: list[list[Edge]] = [[] for _ in range(n)]
    up_key: list[Optional[int]] = [None] * n
    down_key: list[Optional[int]] = [None] * n
    for e in g.edges:
        u, v, _ = e
        ru, rv = rank[u], rank[v]
        if ru < rv:
            out = up[u]
            if not out:
                up_key[u] = ru
            out.append(e)
        elif ru > rv:
            out = down[u]
            if not out:
                down_key[u] = n - 1 - ru
            out.append(e)
    return up, down, up_key, down_key


def partition_edges(g: Graph, ordering: Ordering) -> EdgePartition:
    """Flatten ``rank_adjacency`` into edge lists and collect the self-loops.

    Every edge lands in exactly one bucket: ascending rank in ``plus``,
    descending rank in ``minus``, and self-loops in ``loops``.
    """
    up, down, _, _ = rank_adjacency(g, ordering)
    by_rank = ordering.by_rank
    return EdgePartition(tuple(chain.from_iterable(map(up.__getitem__, by_rank))),
                         tuple(chain.from_iterable(map(down.__getitem__, reversed(by_rank)))),
                         tuple(e for e in g.edges if e[0] == e[1]))


def identity_ordering(g: Graph) -> Ordering:
    """The source-first ordering that otherwise preserves vertex index order."""
    s = g.source
    return Ordering(tuple(0 if v == s else v + (v < s) for v in range(g.n)))


def _shuffle(items: list, getrandbits: Callable[[int], int]) -> None:
    """Fisher-Yates in place, drawing from ``getrandbits`` as ``Random.shuffle`` does.

    Position i draws ``(i + 1).bit_length()`` bits, a width that changes only
    at powers of two, so the positions run in one block per width.
    """
    i = len(items) - 1
    while i > 0:
        bits = (i + 1).bit_length()
        stop = (1 << (bits - 1)) - 2  # the highest position that draws one bit fewer
        for i in range(i, stop, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            items[i], items[j] = items[j], items[i]
        i = stop


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
    n, s = g.n, g.source
    others = [*range(s), *range(s + 1, n)]
    _shuffle(others, random.Random(seed).getrandbits)
    rank = [0] * n
    for pos, v in enumerate(others, start=1):
        rank[v] = pos
    return Ordering._from_checked(tuple(rank))
