"""The four shortest-path engines: one relaxation kernel and a plain sweep.

The rule relaxes u -> v of weight w from a reached u: it counts a relax call,
and when v is unreached or ``dist[u] + w < dist[v]`` it sets ``dist[v]`` and
``pred[v]`` and counts an improvement.  ``relax`` in ``tests/helpers.py`` is
its reference, and every engine is differential-tested against drivers on it.

``_iterate`` is the one kernel, called once per outer iteration by yen,
adaptive and both negative-cycle detectors: it runs the iteration's passes
through one relax body (yen's ascending then descending pass, adaptive's
one), counts the descending scans it proves idle without performing them
(see ``yen_iterations``), and closes the iteration.  A one-key pass skips
``heapify``.  ``basic_passes`` is the plain sweep over the edge list.
``relax_calls`` is the paper's count for every engine.  Both kernels compare
against a shadow of ``state.dist``, built when a generator starts, that holds
NaN where ``dist`` holds None (unreached); this keeps a ``None`` test out of
every relaxation (see ``_iterate``).  While a generator is live it owns
``state.dist``: a caller must not write it between steps.  The engines:

* ``run_basic``       fixed n-1 passes over the whole edge list;
* ``run_adaptive``    one kernel pass per iteration over the vertices whose
                      distance changed last round, in id order, stopping as
                      soon as a round changes nothing;
* ``run_yen``         two kernel passes per iteration over the rank-induced
                      acyclic subgraphs, ascending then descending rank;
* ``run_randomized``  the yen engine under a seeded uniform random ordering.

Their stepwise generators drive one outer iteration per ``next()``, each closed
by ``SsspState.end_iteration``: between steps ``frontier`` lists the vertices
the iteration changed, in change order, and ``changed_now`` is all clear.
"""

from __future__ import annotations

import warnings
from heapq import heapify, heappop, heappush
from itertools import chain
from math import nan
from typing import Iterator, NamedTuple, Optional, Sequence

from .graph import Edge, Graph, Ordering, random_ordering, rank_adjacency


class SsspState:
    """Mutable single-run state: distances, predecessors, change tracking.

    Attributes:
        dist: per-vertex tentative distance, ``None`` while unreached.
        pred: per-vertex predecessor on the tentative path, ``None`` if unset.
        frontier: the vertices whose distance changed in the previous outer
            iteration, each once, in the order they first changed (the
            engines' work set); empty when a run has converged.
        changed_now: per-vertex flag, set when the distance changes during
            the current outer iteration; all clear between steps.
        relax_calls / improvements / iterations: exact counters.

    One run owns its state exclusively; states are never shared between runs.
    """

    __slots__ = ("dist", "pred", "frontier", "changed_now", "_changed_order",
                 "relax_calls", "improvements", "iterations")

    def __init__(self, g: Graph):
        self.dist: list[Optional[float]] = [None] * g.n
        self.pred: list[Optional[int]] = [None] * g.n
        self.dist[g.source] = 0.0
        self.frontier: list[int] = [g.source]
        self.changed_now = bytearray(g.n)
        self._changed_order: list[int] = []
        self.relax_calls = 0
        self.improvements = 0
        self.iterations = 0

    def end_iteration(self) -> None:
        """Close an outer iteration: its changed vertices become the frontier."""
        for v in self._changed_order:
            self.changed_now[v] = 0
        self.frontier = self._changed_order
        self._changed_order = []
        self.iterations += 1


class RunStats(NamedTuple):
    """Summary counters for one engine run."""

    relax_calls: int
    improvements: int
    iterations: int
    negative_cycle: Optional[list[int]] = None


def _stats(state: SsspState, negative_cycle: Optional[list[int]] = None) -> RunStats:
    return RunStats(state.relax_calls, state.improvements, state.iterations, negative_cycle)


def basic_passes(g: Graph, strict: bool = False,
                 state: Optional[SsspState] = None) -> Iterator[SsspState]:
    """Drive the fixed-count engine one full edge pass at a time.

    Each pass relaxes the edges in input order and skips those whose tail
    is unreached.  In strict mode a skipped edge still counts as a relax
    call (no arithmetic happens), so a full run makes exactly m*(n-1).
    """
    if state is None:
        state = SsspState(g)
    dist, pred = state.dist, state.pred
    d = [nan if x is None else x for x in dist]
    changed_now = state.changed_now
    edges, m = g.edges, g.m
    for _ in range(g.n - 1):
        changed_order = state._changed_order
        skipped = imps = 0
        for u, v, w in edges:
            du = dist[u]
            if du is None:
                skipped += 1
                continue
            if not d[v] <= du + w:
                d[v] = dist[v] = du + w
                pred[v] = u
                imps += 1
                if not changed_now[v]:
                    changed_now[v] = 1
                    changed_order.append(v)
        state.relax_calls += m if strict else m - skipped
        state.improvements += imps
        state.end_iteration()
        yield state


def adaptive_iterations(g: Graph, state: Optional[SsspState] = None) -> Iterator[SsspState]:
    """Drive the changed-vertices-only engine one outer iteration at a time.

    Each iteration is one ``_iterate`` pass by vertex id over the frontier
    that no vertex joins: one that changes meanwhile waits for the next.
    The generator is exhausted when an iteration changes nothing.
    """
    if state is None:
        state = SsspState(g)
    n = g.n
    passes = ((range(n), [None] * n, range(n), g.out_adjacency()),)
    d = [nan if x is None else x for x in state.dist]
    while state.frontier:
        _iterate(passes, None, d, state)
        yield state


# A pass whose starting keys number more than n / WIDE_PASS_DIVISOR walks a
# flag array instead of a heap; by measurement, any divisor from 8 to 256 ran
# sparse-2000 equally fast, and 1024 sent path-2000's narrow passes to the
# scan at a loss.
WIDE_PASS_DIVISOR = 64


def _iterate(passes: Sequence[tuple[Sequence[Optional[int]], list[Optional[int]],
                                    Sequence[int], list[list[Edge]]]],
             idle_adj: Optional[list[list[Edge]]], d: list[float], state: SsspState) -> None:
    """Run one outer iteration: each pass of ``passes`` in turn, then ``end_iteration``.

    A pass ``(start_key, key, vertex_at, adj)`` relaxes the out-edges in
    ``adj`` of each vertex it takes, once each, in ascending key order;
    ``vertex_at[k]`` is the vertex with key k.  The first pass starts from
    ``start_key[u]`` of each frontier vertex u, a later one from the changed
    vertices, plus the frontier when ``idle_adj`` is None (None keys take
    nothing).  A vertex whose ``changed_now`` flag flips joins the running
    pass at ``key[v]`` unless that is None; in a Yen pass every edge leads to
    a larger key, so none joins behind the current key.  Given ``idle_adj``,
    each frontier vertex left unchanged then adds its out-degree there to the
    relax calls.  Keys are built with plain loops: before CPython 3.12 a
    comprehension is a function call.

    The body is the relaxation rule inlined, and it adds the iteration's
    relax calls and improvements to ``state``.  The rule reads ``dist[u]``
    per edge; the body reads it once per vertex, so an improving self-loop
    also updates that copy (Yen's adjacencies hold none).

    The body reads ``d``, a shadow of ``state.dist`` with NaN where ``dist``
    holds None, and writes an improvement to both lists.  Its test
    ``not d[v] <= du + w`` is the rule's ``dv is None or dv > alt`` exactly:
    ``NaN <= x`` is false for every x, so an unreached head always improves,
    and for any other ``d[v]`` it is ``d[v] > alt`` because ``alt`` is never
    NaN: weights are finite and only reached tails are taken, so a sum that
    overflows is +-inf (an +inf shadow would fail here, as ``inf > inf`` is
    false).  The sum is computed again on an improvement, rather than kept
    from the test, which is cheaper on the many edges that do not improve;
    float addition is deterministic, so both give the same ``alt``.

    A pass's work set takes one of two forms, picked from its starting size.
    A narrow pass (at most n / WIDE_PASS_DIVISOR keys) drains a heap, where
    duplicate keys pop next to each other and are skipped, and a single key
    needs no ``heapify``: its cost is the active out-edges plus O(log n) per
    activation.  A wide pass sets flags in a ``bytearray`` of n and walks it
    with ``find``: its cost is the active out-edges plus a byte scan of n,
    which is at most WIDE_PASS_DIVISOR bytes per starting key.  Both relax
    the same vertices in the same order.
    """
    dist, pred = state.dist, state.pred
    changed_now, changed_order = state.changed_now, state._changed_order
    frontier = sources = state.frontier
    calls = imps = 0
    for start_key, key, vertex_at, adj in passes:
        keys = []
        for u in sources:
            k = start_key[u]
            if k is not None:
                keys.append(k)
        sources = changed_order if idle_adj is not None else chain(frontier, changed_order)
        if not keys:
            continue
        flags = None
        if len(keys) * WIDE_PASS_DIVISOR > len(vertex_at):
            flags = bytearray(len(vertex_at))
            for k in keys:
                flags[k] = 1
        elif len(keys) > 1:
            heapify(keys)
        k = last = -1
        while True:
            if flags is None:
                if not keys:
                    break
                k = heappop(keys)
                if k == last:
                    continue
                last = k
            else:
                k = flags.find(1, k + 1)
                if k < 0:
                    break
            u = vertex_at[k]
            du = d[u]
            edges = adj[u]
            calls += len(edges)
            for _, v, w in edges:
                if not d[v] <= du + w:
                    alt = du + w
                    d[v] = dist[v] = alt
                    pred[v] = u
                    imps += 1
                    if v == u:
                        du = alt
                    if not changed_now[v]:
                        changed_now[v] = 1
                        changed_order.append(v)
                        kv = key[v]
                        if kv is not None:
                            if flags is None:
                                heappush(keys, kv)
                            else:
                                flags[kv] = 1
    if idle_adj is not None:
        for u in frontier:
            if not changed_now[u]:
                calls += len(idle_adj[u])
    state.relax_calls += calls
    state.improvements += imps
    state.end_iteration()


def yen_iterations(g: Graph, ordering: Ordering,
                   state: Optional[SsspState] = None) -> Iterator[SsspState]:
    """Drive the two-subgraph engine one outer iteration at a time.

    An iteration is one ascending-rank pass over the rank-ascending subgraph
    followed by one descending-rank pass over the rank-descending subgraph.
    In the paper's count a vertex's out-edges are relaxed iff it is in the
    frontier or its distance already changed earlier in the same iteration,
    so the descending pass sees the ascending pass's updates.  Self-loops are
    relaxed by neither pass.

    Each iteration is one ``_iterate`` call, whose two passes take those
    vertices in rank order, so an iteration costs their out-edges plus work
    proportional to them, not a scan of all n; a pass with none is skipped.
    Some scans are counted instead of performed: after its first iteration,
    the generator's descending pass does not take a frontier vertex that
    stays unchanged all iteration.
    Its last change came before its descending scan of the previous
    iteration, since a descending edge only reaches a later key, and
    distances only fall since then, so every one of its descending edges
    already holds ``dist[v] <= dist[u] + w`` and relaxing it improves
    nothing.  Its descending out-degree is added to ``relax_calls`` after
    the pass, once the pass can no longer change it.  The first iteration
    takes every frontier vertex, as a caller's state may come from another
    engine or ordering.  The relaxation sequence, and therefore ``dist``,
    ``pred`` and every counter, is that of a rank-order scan applying the
    rule.
    """
    up_adj, down_adj = rank_adjacency(g, ordering)
    if state is None:
        state = SsspState(g)
    n = g.n
    rank = ordering.rank
    # The descending pass keys vertex v by n-1-rank[v], so both passes visit
    # their smallest key first.
    up_key = [rank[v] if up_adj[v] else None for v in range(n)]
    down_key = [n - 1 - rank[v] if down_adj[v] else None for v in range(n)]
    passes = ((up_key, up_key, ordering.by_rank, up_adj),
              (down_key, down_key, ordering.by_rank[::-1], down_adj))

    d = [nan if x is None else x for x in state.dist]
    idle_adj = None
    while state.frontier:
        _iterate(passes, idle_adj, d, state)
        idle_adj = down_adj
        yield state


def _drain_capped(g: Graph, state: SsspState, iterator: Iterator[SsspState],
                  engine: str) -> tuple[SsspState, RunStats]:
    # Cap policy.  Cap outer iterations at n + 1 and warn on a hit: callers
    # of run_adaptive, run_yen and run_randomized promise no reachable
    # negative cycle, so a hit is their broken precondition and the partial
    # state is returned.  The warning points at the engine's caller.
    # run_with_detection raises at its own cap, ceil(n/2) + 2, since there a
    # hit means the library broke its own invariant; the contracts differ.
    cap = g.n + 1
    for st in iterator:
        if st.iterations >= cap and st.frontier:
            warnings.warn(
                f"{engine}: iteration cap {cap} hit with work remaining; "
                "the input likely has a negative cycle reachable from the source",
                RuntimeWarning,
                stacklevel=3,
            )
            break
    return state, _stats(state)


def run_basic(g: Graph, strict: bool = False) -> tuple[SsspState, RunStats]:
    """Fixed n-1 passes over all m edges.

    With ``strict=True`` every edge visit counts as a relax call even when the
    tail is unreached, reproducing the exact m*(n-1) figure.  Distances are
    exact when no negative cycle is reachable from the source.
    """
    state = SsspState(g)
    for _ in basic_passes(g, strict, state):
        pass
    return state, _stats(state)


def run_adaptive(g: Graph) -> tuple[SsspState, RunStats]:
    """Changed-vertices-only passes with early termination."""
    state = SsspState(g)
    return _drain_capped(g, state, adaptive_iterations(g, state), "run_adaptive")


def run_yen(g: Graph, ordering: Ordering) -> tuple[SsspState, RunStats]:
    """Two acyclic-subgraph passes per iteration under a fixed ordering.

    Performs at most m*n/2 + m relax calls on negative-cycle-free inputs.
    """
    state = SsspState(g)
    return _drain_capped(g, state, yen_iterations(g, ordering, state), "run_yen")


def run_randomized(g: Graph, seed: int) -> tuple[SsspState, RunStats, Ordering]:
    """``run_yen`` under a seeded uniform random ordering.

    Returns the ordering used so callers can audit the run.  Final distances
    are seed-independent; only the iteration and relaxation counts vary.
    """
    ordering = random_ordering(g, seed)
    state = SsspState(g)
    state, stats = _drain_capped(g, state, yen_iterations(g, ordering, state), "run_randomized")
    return state, stats, ordering
