"""Deterministic and seeded-random graph instance generators.

Includes the single-path family on which the randomized ordering analysis is
tight, the rank pattern that forces the partitioned engine into its slowest
alternating behaviour, random sparse/dense instances, and planted negative
cycles that give detection tests their ground truth.  All randomness flows
through ``random.Random(seed)``: the draws go straight to its ``getrandbits``
with explicit rejection, and only the planted cycle's vertices come from
``Random.sample``.  The seed -> graph map is pinned by tests and is the same
on every supported Python version (3.10-3.13).
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import repeat

from .graph import (MAX_COUNT, Edge, Graph, Ordering, _canonical_weight, _check_index,
                    _check_seed, _checked_make, _shuffle)

KINDS = ("path-worst-case", "random-sparse", "random-dense", "planted-cycle")


def worst_case_path(n: int) -> Graph:
    """The n-vertex path 0 -> 1 -> ... -> n-1, unit weights, source 0.

    Its shortest-path tree is the unique (n-1)-edge path, the configuration
    that maximizes the expected iteration count of the randomized engine.
    """
    n = _check_index(n, "n", 2)
    ids = list(range(n))
    return Graph._from_checked(n, tuple(zip(ids, ids[1:], repeat(1))), 0)


def adversarial_ordering(n: int) -> Ordering:
    """The rank pattern that makes every other path vertex a local minimum.

    Intended for ``worst_case_path(n)``: position 0 keeps rank 0, odd path
    positions take the highest ranks in descending order, and even positions
    from 2 on take ranks 1, 2, ... ascending.  Consecutive path edges then
    alternate between the ascending and descending subgraphs maximally, which
    drives the fixed-ordering engine to about n/2 iterations.
    """
    n = _check_index(n, "n", 2)
    rank = [0] * n
    for i in range(1, n, 2):
        rank[i] = n - 1 - (i - 1) // 2
    for i in range(2, n, 2):
        rank[i] = i // 2
    return Ordering(tuple(rank))


class GeneratorSpec(namedtuple("GeneratorSpec", "kind n m weight_min weight_max seed "
                                "ensure_reachable cycle_length cycle_weight",
                                defaults=(None, -3, 7, 0, False, None, None))):
    """Parameters for one generated instance; its defaults are the command line's too.

    ``n``, ``m``, ``seed``, ``weight_min``, ``weight_max`` and
    ``cycle_length`` are ints (``m`` and ``cycle_length`` may be None); any
    other value raises ``ValueError`` naming the field, so every base edge
    the generators build is an ``(int, int, int)`` tuple.  ``n`` and ``seed``
    pass the checks of ``Graph`` and ``random_ordering`` (path-worst-case
    needs n >= 2).  ``cycle_weight`` is any weight ``Graph`` takes, stored as
    ``Graph`` converts it (``"-1"`` and ``-1.0`` become -1), or ``ValueError``
    naming it.  ``m`` is in [0, n(n-1)] and ``cycle_length`` in [1, n], and
    neither ``n`` nor the base edge count may exceed ``graph.MAX_COUNT``.
    ``m`` sizes random-sparse and planted-cycle alone; the dense kind always
    uses every ordered pair.  Only planted-cycle takes the cycle fields; a field
    the kind ignores raises ``ValueError``.  ``ensure_reachable`` adds a
    zero-weight spanning arborescence before the random edges, so it needs
    m >= n-1.  Planted-cycle instances always get one, so they need m >= n-1
    too; their cycle is appended after the base edges (parallel edges are
    legal) and is therefore reachable from the source.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GeneratorSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        for name in ("n", "m", "weight_min", "weight_max", "seed", "cycle_length"):
            value = getattr(self, name)
            if type(value) is not int and not (value is None and name in ("m", "cycle_length")):
                raise ValueError(f"{name} must be an int, got {value!r}")
        _check_index(self.n, "n", 2 if self.kind == "path-worst-case" else 1)
        _check_seed(self.seed)
        if self.weight_min > self.weight_max:
            raise ValueError("weight_min must be <= weight_max")
        if self.kind in ("path-worst-case", "random-dense") and self.m is not None:
            raise ValueError(f"{self.kind} takes no m")
        if self.kind != "planted-cycle" and (self.cycle_length, self.cycle_weight) != (None, None):
            raise ValueError(f"cycle_length and cycle_weight need planted-cycle, not {self.kind}")
        if self.kind == "path-worst-case":
            return self
        full = self.n * (self.n - 1)  # past MAX_COUNT, the default bound's message names it
        base = _check_index(self.base_edge_count(), "m", 0, full if full < MAX_COUNT else None)
        if (self.ensure_reachable or self.kind == "planted-cycle") and base < self.n - 1:
            raise ValueError(f"a reachable instance (ensure_reachable or planted-cycle) needs "
                             f"at least n-1 = {self.n - 1} base edges, got {base}")
        if self.kind == "planted-cycle":
            if self.cycle_length is None or self.cycle_weight is None:
                raise ValueError("planted-cycle needs cycle_length and cycle_weight")
            _check_index(self.cycle_length, "cycle_length", 1, self.n)
            weight = _canonical_weight(self.cycle_weight, "cycle_weight")
            if weight >= 0:
                raise ValueError("planted cycle weight must be negative")
            self = super().__new__(cls, *self[:-1], weight)
        return self

    _make = classmethod(_checked_make)

    def base_edge_count(self) -> int:
        if self.kind == "random-dense":
            return self.n * (self.n - 1)
        if self.m is None:
            raise ValueError(f"{self.kind} needs m")
        return self.m

    def label(self) -> str:
        """Canonical one-line provenance string for stats output."""
        parts = []
        for name, value in zip(self._fields, self):
            if name in ("kind", "n", "seed") or (
                    value is not None and value != self._field_defaults[name]):
                parts.append(f"{name}={value}")
        return "gen:" + ";".join(parts)


def random_graph(spec: GeneratorSpec) -> Graph:
    """Build a seeded random instance; equal specs give identical graphs.

    The base graph is simple (no parallel edges, no self-loops).  With
    ``ensure_reachable`` a random recursive arborescence of zero-weight edges
    comes first.  The planted-cycle kind appends cycle_length extra edges
    whose weights are 1 except for the closing edge, which makes the total
    equal cycle_weight.  The spec holds ints and a weight ``Graph`` converted,
    so every edge is built as the tuple ``Graph`` keeps, and the graph is built
    without ``Graph``'s per-edge check.

    Every uniform draw below k is inlined as CPython's own: ``getrandbits``
    on k's bit width, rejected while >= k (so k = 1 still consumes draws).
    The draws are therefore the ones ``randint``, ``randrange`` and
    ``shuffle`` make, without their per-call wrappers.
    """
    if spec.kind == "path-worst-case":
        raise ValueError(f"{spec.kind} is deterministic; use build_graph")
    rng = random.Random(spec.seed)
    getrandbits = rng.getrandbits
    n = spec.n
    base_m = spec.base_edge_count()
    full = n * (n - 1)
    reachable = spec.ensure_reachable or spec.kind == "planted-cycle"
    lo = spec.weight_min
    span = spec.weight_max - lo + 1
    span_bits = span.bit_length()

    ids = list(range(n))
    edges: list[Edge] = []
    if base_m == full:
        # Complete base: every ordered pair, lexicographic; trivially reachable.
        for u in ids:
            for v in ids:
                if u != v:
                    r = getrandbits(span_bits)
                    while r >= span:
                        r = getrandbits(span_bits)
                    edges.append((u, v, lo + r))
    else:
        if reachable and n > 1:
            # Shuffle 1..n-1, then attach each to a uniform earlier vertex.
            attach_order = ids[1:]
            _shuffle(attach_order, getrandbits)
            connected = [ids[0]]
            for k, v in enumerate(attach_order, start=1):
                bits = k.bit_length()
                j = getrandbits(bits)
                while j >= k:
                    j = getrandbits(bits)
                edges.append((connected[j], v, 0))
                connected.append(v)
        # Pair (u, v), u != v, has index u*(n-1) + v, less one when v > u.
        used = {u * (n - 1) + (v - 1 if v > u else v) for u, v, _ in edges}
        full_bits = full.bit_length()
        while len(edges) < base_m:
            idx = getrandbits(full_bits)
            while idx >= full:
                idx = getrandbits(full_bits)
            if idx in used:
                continue
            used.add(idx)
            u, v = divmod(idx, n - 1)
            r = getrandbits(span_bits)
            while r >= span:
                r = getrandbits(span_bits)
            edges.append((ids[u], ids[v if v < u else v + 1], lo + r))

    if spec.kind == "planted-cycle":
        length = spec.cycle_length
        cycle_vertices = rng.sample(ids, length)  # the draws sample(range(n), length) makes
        closing = spec.cycle_weight - (length - 1)
        for i in range(length):
            a = cycle_vertices[i]
            b = cycle_vertices[(i + 1) % length]
            edges.append((a, b, closing if i == length - 1 else 1))

    return Graph._from_checked(n, tuple(edges), 0)


def build_graph(spec: GeneratorSpec) -> Graph:
    """Dispatch a spec to its generator (the CLI's single entry point)."""
    if spec.kind == "path-worst-case":
        return worst_case_path(spec.n)
    return random_graph(spec)


def complete_over_path(n: int) -> Graph:
    """Complete digraph whose only shortest paths are the unit-weight path.

    Path edges i -> i+1 keep weight 1; every other ordered pair gets weight n,
    more than the longest path distance, so the shortest-path tree is still
    the single path while the instance is fully dense.  ``n`` is an int, so
    the graph is built without ``Graph``'s per-edge check; its n(n-1) edges
    may not exceed ``graph.MAX_COUNT``.
    """
    n = _check_index(n, "n", 2)
    _check_index(n * (n - 1), "edge count n(n-1)", 0)
    ids = list(range(n))
    edges = []
    for u in ids:
        for v in ids:
            if u == v:
                continue
            w = 1 if v == u + 1 else n
            edges.append((u, v, w))
    return Graph._from_checked(n, tuple(edges), 0)
