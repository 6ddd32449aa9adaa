"""Directed weighted multigraphs, vertex orderings, and rank-based edge partitions.

A graph is a flat edge list over dense integer vertex ids 0..n-1 with a
designated source.  An Ordering assigns every vertex a rank, with the source
pinned at rank 0.  Partitioning splits the edge list into the rank-ascending
and rank-descending subgraphs (both acyclic by construction); self-loops go
into a third bucket, which no pass relaxes.  The cycle detectors find negative
self-loops by scanning ``Graph.edges`` themselves.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

Edge = Tuple[int, int, float]  # (tail, head, weight)


@dataclass(frozen=True)
class Graph:
    """Immutable directed weighted multigraph with a source vertex.

    Parallel edges and self-loops are allowed.  Weights must be finite
    (no NaN or infinities).  Instances are safe to share across threads.
    """

    n: int
    edges: Tuple[Edge, ...]
    source: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        if not 0 <= self.source < self.n:
            raise ValueError(f"source {self.source} out of range [0, {self.n})")
        canon = []
        for e in self.edges:
            u, v, w = e
            try:
                u, v = int(u), int(v)
            except (OverflowError, ValueError):
                raise ValueError(f"edge {e!r} has an endpoint that is not an integer") from None
            try:
                w = float(w)
            except OverflowError:
                raise ValueError(f"edge ({u}, {v}) has a weight too large for a float") from None
            if not 0 <= u < self.n or not 0 <= v < self.n:
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {self.n})")
            if not math.isfinite(w):
                raise ValueError(f"edge ({u}, {v}) has non-finite weight {w!r}")
            canon.append((u, v, w))
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    def out_adjacency(self) -> list[list[tuple[int, float]]]:
        """Per-vertex out-edges as (head, weight), in input edge order."""
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
        return adj


@dataclass(frozen=True)
class Ordering:
    """A bijective vertex numbering; ``rank[v]`` is the position of vertex v.

    Valid orderings for a graph put the source at rank 0 (checked by
    :meth:`validate_for`, which every consumer calls on entry).
    """

    rank: Tuple[int, ...]

    def __post_init__(self) -> None:
        rank = tuple(map(int, self.rank))
        object.__setattr__(self, "rank", rank)
        # n distinct integers between 0 and n-1 are a permutation of them.
        n = len(rank)
        if n and (len(set(rank)) != n or min(rank) != 0 or max(rank) != n - 1):
            raise ValueError("rank must be a permutation of 0..n-1")

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


@dataclass(frozen=True)
class EdgePartition:
    """The two acyclic subgraphs induced by an ordering, plus the self-loops.

    ``plus`` holds rank-ascending edges sorted by (tail rank, input position);
    ``minus`` holds rank-descending edges sorted by (descending tail rank,
    input position).  A linear scan of either list therefore visits tails in
    (reverse) topological vertex order.
    """

    plus: Tuple[Edge, ...]
    minus: Tuple[Edge, ...]
    loops: Tuple[Edge, ...]


def partition_edges(g: Graph, ordering: Ordering) -> EdgePartition:
    """Split g's edges by rank direction under ``ordering``.

    Every edge lands in exactly one bucket: ascending rank in ``plus``,
    descending rank in ``minus``, and self-loops (equal rank is possible only
    for u == v since ranks are bijective) in ``loops``.
    """
    ordering.validate_for(g)
    rank = ordering.rank
    plus, minus, loops = [], [], []
    for e in g.edges:
        u, v, _ = e
        if rank[u] < rank[v]:
            plus.append(e)
        elif rank[u] > rank[v]:
            minus.append(e)
        else:
            loops.append(e)
    # Python sorts are stable, so ties on tail rank keep input order.
    plus.sort(key=lambda e: rank[e[0]])
    minus.sort(key=lambda e: -rank[e[0]])
    return EdgePartition(tuple(plus), tuple(minus), tuple(loops))


def identity_ordering(g: Graph) -> Ordering:
    """The source-first ordering that otherwise preserves vertex index order."""
    order = [g.source] + [v for v in range(g.n) if v != g.source]
    rank = [0] * g.n
    for pos, v in enumerate(order):
        rank[v] = pos
    return Ordering(tuple(rank))


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
    getrandbits = random.Random(seed).getrandbits
    others = [v for v in range(g.n) if v != g.source]
    for i in range(len(others) - 1, 0, -1):
        # Unbiased uniform draw from [0, i] by rejection on the minimal bit width.
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        others[i], others[j] = others[j], others[i]
    rank = [0] * g.n
    for pos, v in enumerate(others, start=1):
        rank[v] = pos
    return Ordering(tuple(rank))
