"""Shared test utilities: strategies, conversions, and independent checkers."""

from __future__ import annotations

import math
from itertools import permutations

from hypothesis import assume
from hypothesis import strategies as st

from relaxbench import Graph, Ordering, SsspState, floyd_warshall, partition_edges


def as_inf(dist):
    """Engine distances use None for unreached; the oracle uses inf."""
    return [math.inf if d is None else d for d in dist]


def guard_scan_yen_iterations(g: Graph, ordering: Ordering, state=None):
    """Reference two-subgraph driver: the plain guard scan over every tail.

    Scans all tails of each subgraph in (reverse) rank order and relaxes a
    tail's out-edges through ``SsspState.relax`` iff it is in the frontier or
    changed earlier in the same iteration.  ``yen_iterations`` must step
    through exactly the same states; it takes the same arguments, so it can
    stand in for the kernel under the detectors.
    """
    if state is None:
        state = SsspState(g)
    part = partition_edges(g, ordering)
    up_adj = [[] for _ in range(g.n)]
    for u, v, w in part.plus:
        up_adj[u].append((v, w))
    down_adj = [[] for _ in range(g.n)]
    for u, v, w in part.minus:
        down_adj[u].append((v, w))
    order = ordering.by_rank
    passes = (([u for u in order if up_adj[u]], up_adj),
              ([u for u in reversed(order) if down_adj[u]], down_adj))
    while state.frontier:
        state.begin_iteration()
        for tails, adj in passes:
            for u in tails:
                if u in state.frontier or state.changed_now[u]:
                    for v, w in adj[u]:
                        state.relax(u, v, w)
        state.end_iteration()
        yield state


def reachable_from_source(g: Graph) -> set[int]:
    adj = g.out_adjacency()
    seen = {g.source}
    stack = [g.source]
    while stack:
        u = stack.pop()
        for v, _ in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def brute_force_negative_cycle(g: Graph) -> bool:
    """Reachable-negative-cycle ground truth by simple-cycle enumeration.

    Independent of both the engines and the Floyd-Warshall oracle; only for
    tiny graphs.
    """
    reach = reachable_from_source(g)
    best: dict[tuple[int, int], float] = {}
    for u, v, w in g.edges:
        if u == v:
            if w < 0 and u in reach:
                return True
            continue
        if (u, v) not in best or w < best[(u, v)]:
            best[(u, v)] = w
    adj: dict[int, list[tuple[int, float]]] = {}
    for (u, v), w in best.items():
        adj.setdefault(u, []).append((v, w))

    found = False

    def walk(root: int, u: int, acc: float, on_path: set[int]) -> None:
        nonlocal found
        if found:
            return
        for v, w in adj.get(u, ()):
            if v == root and acc + w < 0:
                found = True
                return
            if v not in on_path and v > root:  # canonical root = smallest vertex
                on_path.add(v)
                walk(root, v, acc + w, on_path)
                on_path.remove(v)

    for root in sorted(reach):
        walk(root, root, 0.0, {root})
        if found:
            return True
    return False


def all_orderings(g: Graph):
    """Every valid ordering of g (source first), for exhaustive checks."""
    others = [v for v in range(g.n) if v != g.source]
    for perm in permutations(others):
        rank = [0] * g.n
        for pos, v in enumerate(perm, start=1):
            rank[v] = pos
        yield Ordering(tuple(rank))


@st.composite
def graphs(draw, max_n=6, min_weight=-3, max_weight=7, max_edges=12,
           allow_loops=True, any_source=True, weights=None):
    """Small random multigraphs (parallel edges and self-loops allowed).

    Weights are integers in [min_weight, max_weight] unless ``weights``
    gives another strategy.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    edge = st.tuples(
        st.integers(0, n - 1),
        st.integers(0, n - 1),
        st.integers(min_weight, max_weight) if weights is None else weights,
    )
    raw = draw(st.lists(edge, min_size=0, max_size=max_edges))
    edges = tuple(
        (u, v, float(w)) for u, v, w in raw if allow_loops or u != v
    )
    source = draw(st.integers(0, n - 1)) if any_source else 0
    return Graph(n, edges, source=source)


@st.composite
def cycle_free_graphs(draw, max_n=6, min_weight=-3, max_weight=7, max_edges=12):
    """Small graphs filtered negative-cycle-free by the oracle."""
    g = draw(graphs(max_n=max_n, min_weight=min_weight, max_weight=max_weight,
                    max_edges=max_edges))
    result = floyd_warshall(g)
    assume(not result.has_reachable_negative_cycle)
    return g, result


@st.composite
def orderings_for(draw, g: Graph):
    others = [v for v in range(g.n) if v != g.source]
    perm = draw(st.permutations(others))
    rank = [0] * g.n
    for pos, v in enumerate(perm, start=1):
        rank[v] = pos
    return Ordering(tuple(rank))


# Weights whose sums leave the float range, so tentative distances reach
# +-inf while every weight stays finite.
overflow_weights = st.sampled_from((1e308, -1e308, 1.7e308, -1.7e308, -1.0, 0.0, 3.0))
