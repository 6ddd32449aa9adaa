"""Independent references and checkers used only for verification.

Nothing here shares code with the engines or the detectors: distances come
from an all-pairs Floyd-Warshall recurrence over an adjacency matrix, and
``certify`` checks one verdict's certificate in linear time at any n.  "No
path" is ``math.inf``, as in the engines' distances, so an oracle row and an
engine's ``dist`` compare with no conversion.  Distances are exact: the
oracle compares with ``inf`` but never adds to it.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Union

from .graph import Graph, Weight

ORACLE_CAP = 256


class OracleResult(NamedTuple):
    """All-pairs distances plus the reachable-negative-cycle flag for one graph.

    ``dist[u][v]`` is the exact distance (``inf`` if unreachable); entries are
    only meaningful as distances when no negative cycle interferes, but the
    diagonal sign and the reachable-negative-cycle flag are always valid.
    """

    dist: List[List[Union[Weight, float]]]
    has_reachable_negative_cycle: bool


def floyd_warshall(g: Graph) -> OracleResult:
    """Exact all-pairs distances by the classic triple loop.

    The negative-cycle flag is true iff some vertex u with a finite distance
    from the source has dist[u][u] < 0.  Rejects graphs with more than ``ORACLE_CAP``
    vertices; this oracle is deliberately simple and slow.
    """
    if g.n > ORACLE_CAP:
        raise ValueError(f"graph has {g.n} vertices, oracle cap is {ORACLE_CAP}")
    n, s = g.n, g.source
    inf = math.inf
    dist = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for u, v, w in g.edges:
        if w < dist[u][v]:
            dist[u][v] = w
    for k in range(n):
        dk = dist[k]
        # Row k gains no finite entry while k is the pivot: through an inf
        # entry of it, no route improves.
        reached = [j for j in range(n) if dk[j] != inf]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in reached:
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt

    row_s = dist[s]
    has_cycle = any(row_s[u] < inf and dist[u][u] < 0 for u in range(n))
    return OracleResult(dist, has_cycle)


def _reached_from(adj: List[List[int]], s: int) -> bytearray:
    # seen[v] == 1 iff v is reachable from s along the lists in adj.
    seen = bytearray(len(adj))
    seen[s] = 1
    stack = [s]
    while stack:
        for v in adj[stack.pop()]:
            if not seen[v]:
                seen[v] = 1
                stack.append(v)
    return seen


def certify(g: Graph, dist: Sequence[Union[Weight, float]],
            cycle: Optional[Sequence[int]] = None) -> Optional[str]:
    """Check one verdict against its certificate; return the flaw, or None.

    With ``cycle`` the claim is "a negative cycle is reachable from the
    source": every hop (cycle[i], cycle[i+1]), wrapping around, must be an
    edge, the cheapest parallel edges of the hops must sum to a negative
    weight, and cycle[0] must be reachable from the source.  ``dist`` is not
    read.  A negative closed walk contains a negative simple cycle, so the
    hops need not be distinct.

    Without it the claim is "no negative cycle is reachable and ``dist`` holds
    the exact distances" (``math.inf`` for unreached, never None).
    dist[source] must be 0, no edge may lead from a reached vertex to an
    unreached one or be tense (dist[u] + w < dist[v]), and the tight edges
    must reach every reached vertex from the source.  Feasibility bounds
    every distance from above by every path's weight and rules out reachable
    negative cycles; the tight paths attain the bound.

    O(n + m) with no all-pairs structure, so it has no vertex cap.
    """
    n, s = g.n, g.source
    if cycle is not None:
        k = len(cycle)
        if k == 0:
            return "the cycle certificate is empty"
        for v in cycle:
            if not 0 <= v < n:
                return f"cycle vertex {v} is outside [0, {n})"
        hops = [(cycle[i], cycle[(i + 1) % k]) for i in range(k)]
        cheapest = dict.fromkeys(hops, math.inf)  # weights are finite
        tails = set(cycle)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v, w in g.edges:
            adj[u].append(v)
            if u in tails and w < cheapest.get((u, v), -math.inf):
                cheapest[u, v] = w
        missing = [hop for hop in hops if cheapest[hop] == math.inf]
        if missing:
            return f"cycle hop {missing[0]} is not an edge"
        total = sum(cheapest[hop] for hop in hops)
        if total >= 0:
            return f"cycle {list(cycle)} has non-negative weight {total}"
        if not _reached_from(adj, s)[cycle[0]]:
            return f"cycle vertex {cycle[0]} is not reachable from the source {s}"
        return None

    if len(dist) != n:
        return f"the distance vector has {len(dist)} entries for {n} vertices"
    if None in dist:
        return f"vertex {dist.index(None)} has distance None; an unreached vertex has math.inf"
    if dist[s] != 0:
        return f"the source {s} has distance {dist[s]!r}, not 0"
    tight: list[list[int]] = [[] for _ in range(n)]
    for u, v, w in g.edges:
        du = dist[u]
        if du == math.inf:
            continue
        dv = dist[v]
        if dv == math.inf:
            return f"edge ({u}, {v}) leads from reached vertex {u} to unreached vertex {v}"
        if du + w < dv:
            return f"edge ({u}, {v}, {w}) is tense: {du} + {w} < {dv}"
        if du + w == dv:
            tight[u].append(v)
    seen = _reached_from(tight, s)
    for v in range(n):
        if dist[v] != math.inf and not seen[v]:
            return f"vertex {v} has distance {dist[v]} but no tight path from the source"
    return None
