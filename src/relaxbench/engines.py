"""The four shortest-path engines built on one relaxation rule.

``SsspState.relax`` is the rule; the Yen pass kernel, ``_drain_pass``,
inlines it.  The kernel takes a pass's active vertices in rank order from a
heap when the pass starts narrow, or from a flag array walked with
``bytearray.find`` when it starts with more than n / WIDE_PASS_DIVISOR.
It compares against a shadow of ``dist`` that holds NaN for unreached
vertices, which keeps a ``None`` test out of every relaxation and gives the
same result as the rule (see ``_drain_pass``).

All engines maintain per-vertex tentative distances and predecessors and count
every relaxation exactly.  ``Unreached`` is represented by ``None`` so that an
unreached tail can never participate in arithmetic.  The pass structure:

* ``run_basic``       fixed n-1 passes over the whole edge list;
* ``run_adaptive``    scans only vertices whose distance changed last round,
                      stopping as soon as a round changes nothing;
* ``run_yen``         adaptive passes over the two rank-induced acyclic
                      subgraphs, ascending then descending rank;
* ``run_randomized``  run_yen under a seeded uniform random ordering.

The stepwise generators (``basic_passes``, ``adaptive_iterations``,
``yen_iterations``) drive one outer iteration per ``next()`` for the
per-iteration invariant tests; the negative-cycle detectors reuse
``yen_iterations``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain
from math import nan
from typing import Iterator, Optional, Sequence

from .graph import Edge, Graph, Ordering, random_ordering


class SsspState:
    """Mutable single-run state: distances, predecessors, change tracking.

    Attributes:
        dist: per-vertex tentative distance, ``None`` while unreached.
        pred: per-vertex predecessor on the tentative path, ``None`` if unset.
        frontier: vertices whose distance changed in the previous outer
            iteration (the engines' work set).
        changed_now: per-vertex flag, set when the distance changed during the
            current outer iteration.
        relax_calls / improvements / iterations: exact counters.

    One run owns its state exclusively; states are never shared between runs.
    """

    __slots__ = ("dist", "pred", "frontier", "changed_now", "_changed_order",
                 "relax_calls", "improvements", "iterations")

    def __init__(self, g: Graph):
        self.dist: list[Optional[float]] = [None] * g.n
        self.pred: list[Optional[int]] = [None] * g.n
        self.dist[g.source] = 0.0
        self.frontier: set[int] = {g.source}
        self.changed_now = bytearray(g.n)
        self._changed_order: list[int] = []
        self.relax_calls = 0
        self.improvements = 0
        self.iterations = 0

    def relax(self, u: int, v: int, w: float) -> bool:
        """Relax the edge u -> v of weight w; return True iff dist[v] dropped.

        Requires dist[u] to be finite (callers skip unreached tails).  Ties
        never update: only a strict improvement rewrites dist and pred.
        """
        self.relax_calls += 1
        alt = self.dist[u] + w
        dv = self.dist[v]
        if dv is None or dv > alt:
            self.dist[v] = alt
            self.pred[v] = u
            if not self.changed_now[v]:
                self.changed_now[v] = 1
                self._changed_order.append(v)
            self.improvements += 1
            return True
        return False

    def begin_iteration(self) -> None:
        for v in self._changed_order:
            self.changed_now[v] = 0
        self._changed_order.clear()

    def end_iteration(self) -> None:
        self.frontier = set(self._changed_order)
        self.iterations += 1


@dataclass
class RunStats:
    """Summary counters for one engine run."""

    relax_calls: int
    improvements: int
    iterations: int
    terminated_early: bool
    negative_cycle: Optional[list[int]] = None


def _stats(state: SsspState, terminated_early: bool,
           negative_cycle: Optional[list[int]] = None) -> RunStats:
    return RunStats(state.relax_calls, state.improvements, state.iterations,
                    terminated_early, negative_cycle)


def basic_passes(g: Graph, strict: bool = False,
                 state: Optional[SsspState] = None) -> Iterator[SsspState]:
    """Drive the fixed-count engine one full edge pass at a time.

    Edges whose tail is unreached are skipped.  In strict mode the skipped
    call is still counted (no arithmetic happens), so a full run performs
    exactly m*(n-1) relax calls.
    """
    if state is None:
        state = SsspState(g)
    edges = g.edges
    for _ in range(g.n - 1):
        state.begin_iteration()
        for u, v, w in edges:
            if state.dist[u] is None:
                if strict:
                    state.relax_calls += 1
                continue
            state.relax(u, v, w)
        state.end_iteration()
        yield state


def adaptive_iterations(g: Graph, state: Optional[SsspState] = None) -> Iterator[SsspState]:
    """Drive the changed-vertices-only engine one outer iteration at a time.

    Each iteration relaxes the out-edges of every vertex in the frontier
    (ascending vertex index as the deterministic tie-break) and then rebuilds
    the frontier from the vertices whose distance dropped.  The generator is
    exhausted when an iteration changes nothing.
    """
    if state is None:
        state = SsspState(g)
    adj = g.out_adjacency()
    while state.frontier:
        state.begin_iteration()
        for u in sorted(state.frontier):
            for v, w in adj[u]:
                state.relax(u, v, w)
        state.end_iteration()
        yield state


# A pass whose starting keys number more than n / WIDE_PASS_DIVISOR walks a
# flag array instead of a heap; by measurement, any divisor from 8 to 256 ran
# sparse-2000 equally fast, and 1024 sent path-2000's narrow passes to the
# scan at a loss.
WIDE_PASS_DIVISOR = 64


def _drain_pass(keys: list[int], vertex_at: Sequence[int], adj: list[list[Edge]],
                key: list[Optional[int]], d: list[float], dist: list[Optional[float]],
                pred: list[Optional[int]], changed_now: bytearray,
                changed_order: list[int]) -> tuple[int, int]:
    """Relax the out-edges of every vertex keyed in ``keys``, once each, in ascending key order.

    ``vertex_at[k]`` is the vertex with key k, and ``key[v]`` is v's key, or
    None when v has no out-edges in ``adj``.  A vertex whose ``changed_now``
    flag flips joins the work set; every edge of ``adj`` leads to a larger
    key, so it never joins behind the current key.  The body is
    ``SsspState.relax`` inlined.  Returns (relax calls, improvements).

    The body reads ``d``, a shadow of ``dist`` with NaN where ``dist`` holds
    None, and writes an improvement to both lists.  Its test
    ``not d[v] <= alt`` is the rule's ``dv is None or dv > alt`` exactly:
    ``NaN <= x`` is false for every x, so an unreached head always improves,
    and for any other ``d[v]`` it is ``d[v] > alt`` because ``alt`` is never
    NaN: weights are finite and only reached tails are taken, so a sum that
    overflows is +-inf (an +inf shadow would fail here, as ``inf > inf`` is
    false).

    The work set takes one of two forms, picked from the starting size.  A
    narrow pass (at most n / WIDE_PASS_DIVISOR keys) drains a heap, where
    duplicate keys pop next to each other and are skipped: its cost is the
    active out-edges plus O(log n) per activation.  A wide pass sets flags in
    a ``bytearray`` of n and walks it with ``find``: its cost is the active
    out-edges plus a byte scan of n, which is at most WIDE_PASS_DIVISOR bytes
    per starting key.  Both relax the same vertices in the same order.
    """
    flags = None
    if len(keys) * WIDE_PASS_DIVISOR > len(vertex_at):
        flags = bytearray(len(vertex_at))
        for k in keys:
            flags[k] = 1
    else:
        heapify(keys)
    calls = imps = 0
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
            alt = du + w
            if not d[v] <= alt:
                d[v] = dist[v] = alt
                pred[v] = u
                imps += 1
                if not changed_now[v]:
                    changed_now[v] = 1
                    changed_order.append(v)
                    kv = key[v]
                    if kv is not None:
                        if flags is None:
                            heappush(keys, kv)
                        else:
                            flags[kv] = 1
    return calls, imps


def yen_iterations(g: Graph, ordering: Ordering,
                   state: Optional[SsspState] = None) -> Iterator[SsspState]:
    """Drive the two-subgraph engine one outer iteration at a time.

    An iteration is one ascending-rank pass over the rank-ascending subgraph
    followed by one descending-rank pass over the rank-descending subgraph.
    A vertex's out-edges are relaxed iff it is in the frontier or its distance
    already changed earlier in the same iteration, so the descending pass sees
    the ascending pass's updates.  Self-loops are relaxed by neither pass.

    Each pass visits exactly those vertices, in rank order, through
    ``_drain_pass``; a pass with none is skipped.  A pass that starts with
    at most n / WIDE_PASS_DIVISOR of them drains a rank-keyed heap, at
    O(log n) per activated vertex; a wider one walks a flag array of n,
    which costs at most WIDE_PASS_DIVISOR bytes per starting vertex.  So an
    iteration costs the active vertices' out-edges plus work proportional
    to them, not a scan of all n.  The relaxation sequence, and therefore
    ``dist``, ``pred`` and every counter, is that of a rank-order scan
    calling ``SsspState.relax``, whichever mode a pass takes.

    The passes read a NaN shadow of ``state.dist`` (see ``_drain_pass``),
    built once when the generator starts; ``state.dist`` itself still holds
    None for unreached vertices.  So while the generator is live it owns
    ``state.dist``: a caller must not write it between steps.
    """
    ordering.validate_for(g)
    if state is None:
        state = SsspState(g)
    n = g.n
    rank = ordering.rank
    # One pass in input order keeps each tail's edges in input order; the
    # lists share the graph's own edge tuples.
    up_adj: list[list[Edge]] = [[] for _ in range(n)]
    down_adj: list[list[Edge]] = [[] for _ in range(n)]
    for e in g.edges:
        u, v, _ = e
        ru, rv = rank[u], rank[v]
        if ru < rv:
            up_adj[u].append(e)
        elif ru > rv:
            down_adj[u].append(e)
    # The descending pass keys vertex v by n-1-rank[v], so both passes visit
    # their smallest key first.
    up_key = [rank[v] if up_adj[v] else None for v in range(n)]
    down_key = [n - 1 - rank[v] if down_adj[v] else None for v in range(n)]
    up_vertex = ordering.by_rank
    down_vertex = up_vertex[::-1]

    dist, pred = state.dist, state.pred
    d = [nan if x is None else x for x in dist]
    changed_now, changed_order = state.changed_now, state._changed_order
    while state.frontier:
        state.begin_iteration()
        frontier = state.frontier
        keys = [k for u in frontier if (k := up_key[u]) is not None]
        if keys:
            calls, imps = _drain_pass(keys, up_vertex, up_adj, up_key,
                                      d, dist, pred, changed_now, changed_order)
            state.relax_calls += calls
            state.improvements += imps
        keys = [k for u in chain(frontier, changed_order) if (k := down_key[u]) is not None]
        if keys:
            calls, imps = _drain_pass(keys, down_vertex, down_adj, down_key,
                                      d, dist, pred, changed_now, changed_order)
            state.relax_calls += calls
            state.improvements += imps
        state.end_iteration()
        yield state


def _drain_capped(g: Graph, iterator: Iterator[SsspState], engine: str) -> None:
    # Cap policy.  Cap outer iterations at n + 1 and warn on a hit: callers
    # of run_yen and run_adaptive promise no reachable negative cycle, so a
    # hit is their broken precondition and the partial state is returned.
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


def run_basic(g: Graph, strict: bool = False) -> tuple[SsspState, RunStats]:
    """Fixed n-1 passes over all m edges.

    With ``strict=True`` every edge visit counts as a relax call even when the
    tail is unreached, reproducing the exact m*(n-1) figure.  Distances are
    exact when no negative cycle is reachable from the source.
    """
    state = SsspState(g)
    for _ in basic_passes(g, strict, state):
        pass
    return state, _stats(state, terminated_early=False)


def run_adaptive(g: Graph) -> tuple[SsspState, RunStats]:
    """Changed-vertices-only passes with early termination."""
    state = SsspState(g)
    _drain_capped(g, adaptive_iterations(g, state), "run_adaptive")
    return state, _stats(state, terminated_early=not state.frontier)


def run_yen(g: Graph, ordering: Ordering) -> tuple[SsspState, RunStats]:
    """Two acyclic-subgraph passes per iteration under a fixed ordering.

    Performs at most m*n/2 + m relax calls on negative-cycle-free inputs.
    """
    state = SsspState(g)
    _drain_capped(g, yen_iterations(g, ordering, state), "run_yen")
    return state, _stats(state, terminated_early=not state.frontier)


def run_randomized(g: Graph, seed: int) -> tuple[SsspState, RunStats, Ordering]:
    """``run_yen`` under a seeded uniform random ordering.

    Returns the ordering used so callers can audit the run.  Final distances
    are seed-independent; only the iteration and relaxation counts vary.
    """
    ordering = random_ordering(g, seed)
    state, stats = run_yen(g, ordering)
    return state, stats, ordering
