"""Shared test utilities: strategies, the reference relaxation rule and
the drivers built on it, reference DIMACS reading and writing, the reference
random generator, and independent checkers."""

from __future__ import annotations

import io
import math
import random
import re
import sys
from itertools import permutations
from pathlib import Path

from hypothesis import assume
from hypothesis import strategies as st

from relaxbench import Graph, Ordering, SsspState, engines, floyd_warshall
from relaxbench.dimacs import DimacsFormatError
from relaxbench.graph import rank_adjacency


def relax(state: SsspState, u: int, v: int, w) -> bool:
    """The relaxation rule: relax u -> v of weight w; return True iff dist[v] dropped.

    Requires u to be reached (callers skip tails whose distance is inf).
    Every call counts; only a strict improvement, a first reach included
    since an unreached head's distance is inf, rewrites dist and pred and
    counts as an improvement.  The engines inline this rule; the
    reference drivers below call it once per edge.
    """
    state.relax_calls += 1
    alt = state.dist[u] + w
    dv = state.dist[v]
    if dv > alt:
        state.dist[v] = alt
        state.pred[v] = u
        if not state.changed_now[v]:
            state.changed_now[v] = 1
            state._changed_order.append(v)
        state.improvements += 1
        return True
    return False


def reference_basic_passes(g: Graph, strict: bool = False):
    """Reference fixed-count driver: ``relax`` over every edge with a reached tail."""
    state = SsspState(g)
    for _ in range(g.n - 1):
        for u, v, w in g.edges:
            if state.dist[u] == math.inf:
                if strict:
                    state.relax_calls += 1
                continue
            relax(state, u, v, w)
        state.end_iteration()
        yield state


def reference_adaptive_iterations(g: Graph):
    """Reference changed-vertices driver: ``relax`` over the frontier's out-edges, by vertex id."""
    state = SsspState(g)
    adj = g.out_adjacency()
    while state.frontier:
        for u in sorted(state.frontier):
            for _, v, w in adj[u]:
                relax(state, u, v, w)
        state.end_iteration()
        yield state


def guard_scan_yen_iterations(g: Graph, ordering: Ordering, state=None):
    """Reference two-subgraph driver: the plain guard scan over every tail.

    Scans all tails of each subgraph in (reverse) rank order and relaxes a
    tail's out-edges through ``relax`` iff it is in the frontier or changed
    earlier in the same iteration.  ``yen_iterations`` must step through
    exactly the same states; it takes the same arguments, so it can stand in
    for the kernel under the detectors.
    """
    if state is None:
        state = SsspState(g)
    up_adj, down_adj = rank_adjacency(g, ordering)
    order = ordering.by_rank
    passes = (([u for u in order if up_adj[u]], up_adj),
              ([u for u in reversed(order) if down_adj[u]], down_adj))
    while state.frontier:
        frontier = set(state.frontier)
        for tails, adj in passes:
            for u in tails:
                if u in frontier or state.changed_now[u]:
                    for _, v, w in adj[u]:
                        relax(state, u, v, w)
        state.end_iteration()
        yield state


def record_shifts(monkeypatch) -> list:
    """Wrap ``engines._uniform_shift``, the fast-forward's test; the list returned gets each
    value it returns."""
    uniform_shift = engines._uniform_shift
    shifts = []

    def spy(before, after):
        shifts.append(uniform_shift(before, after))
        return shifts[-1]

    monkeypatch.setattr(engines, "_uniform_shift", spy)
    return shifts


def reachable_from_source(g: Graph) -> set[int]:
    adj = g.out_adjacency()
    seen = {g.source}
    stack = [g.source]
    while stack:
        u = stack.pop()
        for _, v, _ in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def tight_edges(g: Graph, row) -> list:
    """The edges of g, self-loops aside, that are tight under the oracle's distance row:
    reached tails whose distance plus weight equals the head's."""
    return [(u, v, w) for u, v, w in g.edges
            if u != v and row[u] < math.inf and row[u] + w == row[v]]


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
        walk(root, root, 0, {root})
        if found:
            return True
    return False


SIMPLE_PATH_CAP = 8


def shortest_simple_path_lengths(g: Graph) -> list:
    """Length of the shortest *simple* path from the source to each vertex.

    Brute-force enumeration of every simple path, so the graph must have at
    most ``SIMPLE_PATH_CAP`` vertices.  The source gets 0 (the empty path); unreachable
    vertices get ``math.inf``, as in the engines and the oracle.  Well-defined even when
    negative cycles exist, which is exactly why the detectors' tests need it.
    """
    if g.n > SIMPLE_PATH_CAP:
        raise ValueError(f"graph has {g.n} vertices, simple-path cap is {SIMPLE_PATH_CAP}")
    n, s = g.n, g.source
    # Parallel edges collapse to the cheapest one; self-loops never lie on a
    # simple path.
    best_edge: dict[tuple[int, int], float] = {}
    for u, v, w in g.edges:
        if u == v:
            continue
        key = (u, v)
        if key not in best_edge or w < best_edge[key]:
            best_edge[key] = w
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (u, v), w in sorted(best_edge.items()):
        adj[u].append((v, w))

    best: list[float] = [math.inf] * n
    best[s] = 0
    on_path = bytearray(n)

    def walk(u: int, acc: float) -> None:
        on_path[u] = 1
        for v, w in adj[u]:
            if not on_path[v]:
                total = acc + w
                if total < best[v]:
                    best[v] = total
                # No pruning: with negative edges a worse prefix can still
                # lead to a better continuation.
                walk(v, total)
        on_path[u] = 0

    walk(s, 0)
    return best


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
    edges = tuple((u, v, w) for u, v, w in raw if allow_loops or u != v)
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


# The differential tests' weights: every kind an engine takes.  Small ints
# make cycles and ties; ints near +-10**308 make sums beyond the float range,
# which an unreached head's inf must still exceed; Fractions make sums that
# no float holds exactly.
mixed_weights = st.one_of(
    st.integers(-3, 7),
    st.sampled_from((10**308, -10**308, 17 * 10**307, -17 * 10**307)),
    st.fractions(-3, 7, max_denominator=12),
)


def _refuse_digits(lineno: int, what: str, token: str) -> None:
    """Raise the digit-limit diagnostic if ``token`` is an integer that ``int()`` refused."""
    if re.fullmatch("[+-]?[0-9]+(_[0-9]+)*", token):
        raise DimacsFormatError(
            "line %d: %s '%s...' has %d digits; sys.get_int_max_str_digits() is %d"
            % (lineno, what, token[:12], len(re.findall("[0-9]", token)),
               sys.get_int_max_str_digits())) from None


def reference_load_dimacs(path, source: int = 1) -> Graph:
    """Reference .gr reader: text-mode line iteration, one line at a time.

    ``load_dimacs`` must return an equal ``Graph``, or raise the same
    exception with the same message, on every input.
    """
    data = Path(path).read_bytes()
    bad = next((i for i, byte in enumerate(data) if byte > 0x7F), None)
    if bad is not None:
        # A prefix that ends with a line end puts the bad byte on the next line.
        lines = io.StringIO(data[:bad].decode("ascii"), newline=None).readlines()
        lineno = len(lines) + (not lines or lines[-1].endswith("\n"))
        raise DimacsFormatError(f"line {lineno}: non-ASCII byte 0x{data[bad]:02x}")
    n = m = None
    edges: list[tuple[int, int, int]] = []
    with open(path, "r", encoding="ascii") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if n is not None:
                    raise DimacsFormatError(f"line {lineno}: duplicate problem line")
                if len(parts) != 4 or parts[1] != "sp":
                    raise DimacsFormatError(f"line {lineno}: malformed problem line {line!r}")
                try:
                    n, m = int(parts[2]), int(parts[3])
                except ValueError:
                    raise DimacsFormatError(f"line {lineno}: malformed problem line {line!r}") from None
                if n < 1:
                    raise DimacsFormatError(f"line {lineno}: vertex count must be >= 1, got {n}")
                if n > sys.maxsize:
                    raise DimacsFormatError(f"line {lineno}: vertex count {n} is above sys.maxsize")
                if m < 0:
                    raise DimacsFormatError(f"line {lineno}: arc count must be >= 0, got {m}")
                if m > sys.maxsize:
                    raise DimacsFormatError(f"line {lineno}: arc count {m} is above sys.maxsize")
                if not 1 <= source <= n:
                    raise DimacsFormatError(f"source id {source} out of range [1, {n}]")
            elif parts[0] == "a":
                if n is None:
                    raise DimacsFormatError(f"line {lineno}: arc before problem line (missing problem line)")
                if len(parts) != 4:
                    raise DimacsFormatError(f"line {lineno}: malformed arc line {line!r}")
                ids = []
                for token in parts[1:3]:
                    try:
                        ids.append(int(token))
                    except ValueError:
                        _refuse_digits(lineno, "vertex id", token)
                        raise DimacsFormatError(f"line {lineno}: malformed arc line {line!r}") from None
                u, v = ids
                try:
                    w = int(parts[3])
                except ValueError:
                    _refuse_digits(lineno, "weight", parts[3])
                    raise DimacsFormatError(f"line {lineno}: non-integer weight {parts[3]!r}") from None
                if not 1 <= u <= n or not 1 <= v <= n:
                    raise DimacsFormatError(f"line {lineno}: vertex id out of range in {line!r}")
                edges.append((u - 1, v - 1, w))
            else:
                raise DimacsFormatError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise DimacsFormatError("missing problem line")
    if len(edges) != m:
        raise DimacsFormatError(f"arc count mismatch: problem line says {m}, file has {len(edges)}")
    return Graph(n, tuple(edges), source=source - 1)


def reference_dimacs_text(g: Graph) -> str:
    """Reference .gr text of a graph with integral weights, through ``int(w)``."""
    lines = [f"p sp {g.n} {g.m}"]
    for u, v, w in g.edges:
        if w != int(w):
            raise ValueError(f"DIMACS weights must be integers, got {w!r} on ({u}, {v})")
        lines.append(f"a {u + 1} {v + 1} {int(w)}")
    return "\n".join(lines) + "\n"


def reference_random_graph(spec) -> Graph:
    """Reference generator: ``random_graph`` as written with ``Random``'s convenience calls.

    ``randint``, ``randrange``, ``shuffle`` and ``sample`` make every draw;
    ``random_graph`` must return equal edges for every spec.
    """
    rng = random.Random(spec.seed)
    n = spec.n
    base_m = spec.base_edge_count()
    full = n * (n - 1)
    reachable = spec.ensure_reachable or spec.kind == "planted-cycle"
    edges: list[tuple[int, int, int]] = []
    if base_m == full:
        for u in range(n):
            for v in range(n):
                if u != v:
                    edges.append((u, v, rng.randint(spec.weight_min, spec.weight_max)))
    else:
        if reachable and n > 1:
            attach_order = list(range(1, n))
            rng.shuffle(attach_order)
            connected = [0]
            for v in attach_order:
                parent = connected[rng.randrange(len(connected))]
                edges.append((parent, v, 0))
                connected.append(v)
        used = {u * (n - 1) + (v - 1 if v > u else v) for u, v, _ in edges}
        while len(edges) < base_m:
            idx = rng.randrange(full)
            if idx in used:
                continue
            used.add(idx)
            u, r = divmod(idx, n - 1)
            v = r if r < u else r + 1
            edges.append((u, v, rng.randint(spec.weight_min, spec.weight_max)))
    if spec.kind == "planted-cycle":
        length = spec.cycle_length
        cycle_vertices = rng.sample(range(n), length)
        closing = spec.cycle_weight - (length - 1)
        for i in range(length):
            w = closing if i == length - 1 else 1
            edges.append((cycle_vertices[i], cycle_vertices[(i + 1) % length], w))
    return Graph(n, tuple(edges), source=0)


def local_minima_law(length: int, one=1.0) -> list:
    """P(k interior local minima) for a uniformly random order of ``length`` distinct values.

    Entry k for k = 0 .. (length-1)//2.  Minima and peaks swap under v -> -v,
    so this is the peak recurrence, p_L(k) = [(2k+2) p_{L-1}(k) + (L-2k)
    p_{L-1}(k-1)] / L from p_1 = [1]: it places the largest value in each of
    the L gaps.  Pass ``one=Fraction(1)`` for exact values.
    """
    law = [one]
    for n in range(2, length + 1):
        law = [((2 * k + 2) * (law[k] if k < len(law) else 0)
                + (n - 2 * k) * (law[k - 1] if k else 0)) / n
               for k in range((n - 1) // 2 + 1)]
    return law
