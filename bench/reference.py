"""Benchmark-only references, independent of the library's engines.

``dijkstra`` recomputes shortest distances with a binary heap over its own
adjacency lists; it is exact for the non-negative integer weights of the
sparse workload.  ``pred_has_cycle`` walks predecessor pointers itself, so the
benchmark does not depend on the library's parent-graph helpers.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence


def dijkstra(n: int, edges: Sequence[tuple], source: int) -> list[Optional[float]]:
    """Exact single-source distances for non-negative weights; None if unreached."""
    adj: list[list[tuple]] = [[] for _ in range(n)]
    for u, v, w in edges:
        if w < 0:
            raise ValueError(f"dijkstra needs non-negative weights, edge ({u}, {v}) has {w}")
        adj[u].append((v, w))
    dist: list[Optional[float]] = [None] * n
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if dist[u] is not None:
            continue
        dist[u] = d
        for v, w in adj[u]:
            if dist[v] is None:
                heapq.heappush(heap, (d + w, v))
    return dist


def pred_has_cycle(pred: Sequence[Optional[int]]) -> bool:
    """True iff following predecessor pointers from some vertex revisits one."""
    n = len(pred)
    # 0 = unvisited, 1 = on the current walk, 2 = known to end without a cycle.
    color = bytearray(n)
    for start in range(n):
        walk = []
        u = start
        while u is not None and color[u] == 0:
            color[u] = 1
            walk.append(u)
            u = pred[u]
        if u is not None and color[u] == 1:
            return True
        for v in walk:
            color[v] = 2
    return False
