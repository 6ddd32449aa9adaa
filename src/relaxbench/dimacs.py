"""DIMACS shortest-path (.gr) reading and writing.

The accepted grammar: comment lines start with ``c``, exactly one problem
line ``p sp <n> <m>``, and ``m`` arc lines ``a <u> <v> <w>`` with 1-based
vertex ids and integer weights (negative allowed).  Anything else is
malformed.  Vertex ids are shifted to 0-based internally; the source comes
from the caller because the format's optional source line is not universal.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .graph import Graph


class DimacsFormatError(ValueError):
    """Raised for malformed DIMACS input, with a diagnostic naming the defect."""


def load_dimacs(path: Union[str, Path], source: int = 1) -> Graph:
    """Parse a .gr file; ``source`` is the 1-based external id of the source.

    Distinct diagnostics: missing problem line, arc-count mismatch, vertex id
    out of range, non-integer weight, weight too large for a float.
    """
    n = m = None
    edges: list[tuple[int, int, float]] = []
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
            elif parts[0] == "a":
                if n is None:
                    raise DimacsFormatError(f"line {lineno}: arc before problem line (missing problem line)")
                if len(parts) != 4:
                    raise DimacsFormatError(f"line {lineno}: malformed arc line {line!r}")
                try:
                    u, v = int(parts[1]), int(parts[2])
                except ValueError:
                    raise DimacsFormatError(f"line {lineno}: malformed arc line {line!r}") from None
                try:
                    w = float(int(parts[3]))
                except ValueError:
                    raise DimacsFormatError(f"line {lineno}: non-integer weight {parts[3]!r}") from None
                except OverflowError:
                    raise DimacsFormatError(f"line {lineno}: weight too large for a float") from None
                if not 1 <= u <= n or not 1 <= v <= n:
                    raise DimacsFormatError(f"line {lineno}: vertex id out of range in {line!r}")
                edges.append((u - 1, v - 1, w))
            else:
                raise DimacsFormatError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise DimacsFormatError("missing problem line")
    if len(edges) != m:
        raise DimacsFormatError(f"arc count mismatch: problem line says {m}, file has {len(edges)}")
    if not 1 <= source <= n:
        raise DimacsFormatError(f"source id {source} out of range [1, {n}]")
    return Graph(n, tuple(edges), source=source - 1)


def write_dimacs(g: Graph, path: Union[str, Path]) -> None:
    """Write a graph with integer weights as a .gr file (ids shifted to 1-based)."""
    lines = [f"p sp {g.n} {g.m}"]
    for u, v, w in g.edges:
        if w != int(w):
            raise ValueError(f"DIMACS weights must be integers, got {w!r} on ({u}, {v})")
        lines.append(f"a {u + 1} {v + 1} {int(w)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
