"""Negative-cycle detection layered on the randomized engine.

A cycle among the predecessor pointers certifies a negative cycle in the
graph, so the detector runs the randomized engine and starts checking the
predecessor graph once enough iterations have passed that a cycle-free run
would almost surely have corrected every shortest simple path.  A hard cap of
ceil(n/2) + 2 iterations bounds every run: cycle-free inputs converge before
it, and inputs with a reachable negative cycle expose a predecessor cycle by
then.  Self-loops are special-cased (no pass ever relaxes them): a negative
self-loop on a reached vertex is itself a reachable negative cycle.

``monte_carlo_dense_detect`` instead budgets raw relaxation counts against the
dense high-probability bound; exceeding the budget declares a cycle with no
certificate, while terminating within it is always a correct "none".
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence

from .engines import RunStats, SsspState, _stats, yen_iterations
from .graph import Graph, random_ordering
from .permstats import check_c


class CycleVerdict(NamedTuple):
    """What a detection run's ``RunStats`` cannot say: whether it declared a cycle.

    The certificate, if any, is ``RunStats.negative_cycle``; the budget-based
    dense detector declares a cycle with none.  ``iterations_used`` equals
    ``RunStats.iterations``, which every other reader uses; only the
    benchmark's replay still reads it, and one test pins the equality.
    """

    found: bool
    iterations_used: int


def detect_cycle_in_parent_graph(parent: Sequence[Optional[int]]) -> Optional[List[int]]:
    """Return one cycle of the predecessor pointers in parent-pointer order, if any.

    ``parent[v]`` is v's predecessor or None, as in ``SsspState.pred``; the
    list is only read.  Pointer chasing with three-colour marking, linear in
    n.  The returned list satisfies parent[list[i]] == list[i+1] cyclically.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    n = len(parent)
    color = bytearray(n)
    for start in range(n):
        if color[start] != WHITE:
            continue
        chain: list[int] = []
        u: Optional[int] = start
        while u is not None and color[u] == WHITE:
            color[u] = GRAY
            chain.append(u)
            u = parent[u]
        if u is not None and color[u] == GRAY:
            cycle = chain[chain.index(u):]
            for v in chain:
                color[v] = BLACK
            return cycle
        for v in chain:
            color[v] = BLACK
    return None


def iteration_threshold(n: int, c: float) -> int:
    """ceil(n/3 + 2 + sqrt(2*c*n*ln n)): first iteration worth checking.

    Beyond this many iterations, a run on a cycle-free input has corrected
    every shortest simple path except with probability about 1/n^(c-1), so
    continued work signals a negative cycle.  Natural logarithm throughout.
    Requires n >= 2 and a positive, finite c.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    check_c(c)
    return math.ceil(n / 3 + 2 + math.sqrt(2 * c * n * math.log(n)))


def iteration_cap(n: int) -> int:
    """ceil(n/2) + 2: the deterministic fallback bound on detection runs."""
    return math.ceil(n / 2) + 2


def detection_start(n: int, c: float) -> int:
    """First iteration at which the parent graph is checked.

    Normally ``iteration_threshold``; at desk-scale n the threshold's tail
    term exceeds the deterministic ceil(n/2) + 2 fallback, in which case the
    fallback wins and the single check happens at the cap.  ``c`` is checked
    at every n, also below 2, where the first iteration is the one check.
    """
    check_c(c)
    if n < 2:
        return 1
    return min(iteration_threshold(n, c), iteration_cap(n))


def _negative_self_loop(g: Graph, dist: Sequence[Optional[float]]) -> Optional[List[int]]:
    # The certificate on a converged run.  No pass relaxes a self-loop, so a
    # negative self-loop on a reached vertex is the one reachable negative
    # cycle left to report; the smallest such vertex is the certificate.
    loops = [u for u, v, w in g.edges if u == v and w < 0 and dist[u] is not None]
    return [min(loops)] if loops else None


def _extract_graph_cycle(g: Graph, pp_cycle: List[int]) -> tuple[List[int], float]:
    # Parent pointers run against edge direction, so the graph cycle is the
    # reverse of the parent-pointer order.  Each (parent, child) hop maps to
    # the minimum-weight parallel edge, the one a relaxation would have used
    # last.  A pointer cycle visits each vertex once, so every hop has its
    # own tail and one pass over the edges keyed by tail finds them all.
    cycle = list(reversed(pp_cycle))
    succ = {a: cycle[(i + 1) % len(cycle)] for i, a in enumerate(cycle)}
    cheapest: dict[int, float] = {}
    for u, v, w in g.edges:
        if succ.get(u) == v and (u not in cheapest or w < cheapest[u]):
            cheapest[u] = w
    total = 0.0
    for a in cycle:
        w = cheapest.get(a)
        if w is None:
            raise RuntimeError(
                f"predecessor cycle uses the non-edge ({a}, {succ[a]}); detector state is corrupt"
            )
        total += w
    if total >= 0:
        raise RuntimeError(
            f"predecessor cycle {cycle} has non-negative weight {total}; detector state is corrupt"
        )
    return cycle, total


def run_with_detection(
    g: Graph,
    seed: int,
    c: float = 2.0,
) -> tuple[SsspState, RunStats, CycleVerdict]:
    """Randomized engine with parent-graph cycle checks; any input is legal.

    Checks start at ``detection_start(n, c)``.  A found parent cycle is
    mapped back to graph edges, verified strictly negative, and returned as
    the certificate ``stats.negative_cycle``.  If the engine converges
    instead, reached vertices are scanned for negative self-loops before
    declaring the graph cycle-free.  Never runs past ``iteration_cap(n)``
    iterations.
    """
    ordering = random_ordering(g, seed)
    cap = iteration_cap(g.n)
    start = detection_start(g.n, c)
    state = SsspState(g)
    for st in yen_iterations(g, ordering, state):
        t = st.iterations
        if t >= start:
            pp_cycle = detect_cycle_in_parent_graph(st.pred)
            if pp_cycle is not None:
                cycle, _ = _extract_graph_cycle(g, pp_cycle)
                return st, _stats(st, cycle), CycleVerdict(True, t)
        if t >= cap and st.frontier:
            # The fallback analysis promises a parent cycle by now whenever
            # relaxation has not converged; reaching this line is a defect.
            raise RuntimeError(
                f"no predecessor cycle at the iteration cap {cap} although relaxation "
                "has not converged"
            )

    cycle = _negative_self_loop(g, state.dist)
    return state, _stats(state, cycle), CycleVerdict(cycle is not None, state.iterations)


def dense_relaxation_budget(n: int, c: float) -> float:
    """n^3/6 + sqrt(2)*n^(5/2)*sqrt(c*ln n): dense high-probability bound."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_c(c)
    return n**3 / 6 + math.sqrt(2) * n**2.5 * math.sqrt(c * math.log(n))


def monte_carlo_dense_detect(g: Graph, seed: int,
                             c: float = 2.0) -> tuple[SsspState, RunStats, CycleVerdict]:
    """Budget-based one-sided detector for dense graphs.

    Runs the randomized engine and declares a negative cycle (no certificate)
    as soon as the relaxation count exceeds ``dense_relaxation_budget``; the
    budget is checked after each outer iteration.  Termination within budget
    yields a "none" verdict, which is always correct; a "cycle" verdict errs
    with probability at most 1/n^(c-1).  Reachable negative self-loops get a
    certificate, ``stats.negative_cycle``, since the engine never relaxes them.
    """
    budget = dense_relaxation_budget(g.n, c)
    ordering = random_ordering(g, seed)
    state = SsspState(g)
    for st in yen_iterations(g, ordering, state):
        if st.relax_calls > budget:
            return st, _stats(st), CycleVerdict(True, st.iterations)
    cycle = _negative_self_loop(g, state.dist)
    return state, _stats(state, cycle), CycleVerdict(cycle is not None, state.iterations)
