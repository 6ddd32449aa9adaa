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

import random
import sys
from collections import namedtuple
from functools import cached_property
from itertools import chain
from math import inf, isfinite
from typing import Callable, NamedTuple, Sequence, Tuple

Edge = Tuple[int, int, float]  # (tail, head, weight)


def _checked_make(cls, fields):
    """``_make`` for a record class that checks its fields, so ``_replace`` checks them too."""
    return cls(*fields)


class Graph(namedtuple("Graph", "n edges source", defaults=(0,))):
    """Immutable directed weighted multigraph with a source vertex.

    Parallel edges and self-loops are allowed.  Weights must be finite
    (no NaN or infinities).  Instances are safe to share across threads.

    ``edges`` holds canonical ``(int, int, float)`` tuples.  An input edge that
    is one already, a tuple whose endpoints have type exactly ``int`` and lie
    in [0, n) and whose weight has type exactly ``float`` and is finite, is
    kept as the same object, as the generators and ``load_dimacs`` build
    them; any other edge is converted with ``int`` and ``float`` and checked.
    """

    __slots__ = ()

    def __new__(cls, n: int, edges: Sequence[Edge], source: int = 0) -> Graph:
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        if n > sys.maxsize:
            raise ValueError(f"vertex count {n} is above sys.maxsize; no list can index it")
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range [0, {n})")
        canon = []
        for e in edges:
            u, v, w = e
            if not (type(e) is tuple and type(u) is int and type(v) is int and type(w) is float
                    and 0 <= u < n and 0 <= v < n and -inf < w < inf):
                e = _canonical_edge(e, n)
            canon.append(e)
        return super().__new__(cls, n, tuple(canon), source)

    _make = classmethod(_checked_make)

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
    """Convert one edge to ``(int, int, float)``, refusing what ``Graph`` cannot hold."""
    u, v, w = e
    try:
        u, v = int(u), int(v)
    except (OverflowError, ValueError):
        raise ValueError(f"edge {e!r} has an endpoint that is not an integer") from None
    try:
        w = float(w)
    except OverflowError:
        raise ValueError(f"edge ({u}, {v}) has a weight too large for a float") from None
    if not 0 <= u < n or not 0 <= v < n:
        raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
    if not isfinite(w):
        raise ValueError(f"edge ({u}, {v}) has non-finite weight {w!r}")
    return u, v, w


class Ordering(namedtuple("Ordering", "rank")):
    """A bijective vertex numbering; ``rank[v]`` is the position of vertex v.

    Valid orderings for a graph put the source at rank 0 (checked by
    :meth:`validate_for`, which every consumer calls on entry).  Instances
    have a ``__dict__`` only to cache ``by_rank``; no attribute can be set.
    """

    def __new__(cls, rank: Sequence[int]) -> Ordering:
        rank = tuple(map(int, rank))
        # n distinct integers between 0 and n-1 are a permutation of them.
        n = len(rank)
        if n and (len(set(rank)) != n or min(rank) != 0 or max(rank) != n - 1):
            raise ValueError("rank must be a permutation of 0..n-1")
        return super().__new__(cls, rank)

    _make = classmethod(_checked_make)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def n(self) -> int:
        return len(self.rank)

    @cached_property
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
    order = [g.source] + [v for v in range(g.n) if v != g.source]
    rank = [0] * g.n
    for pos, v in enumerate(order):
        rank[v] = pos
    return Ordering(tuple(rank))


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
    seed.
    """
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    others = [v for v in range(g.n) if v != g.source]
    _shuffle(others, random.Random(seed).getrandbits)
    rank = [0] * g.n
    for pos, v in enumerate(others, start=1):
        rank[v] = pos
    return Ordering(tuple(rank))
