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
    out of range, non-integer weight, weight too large for a float, non-ASCII
    byte.  Each names its line number and, where the line is at fault, the
    line with surrounding whitespace stripped.

    The file is read as text and split on newlines, as iterating a text file
    splits it (universal newlines: ``\\r\\n`` and a lone ``\\r`` end a line too;
    ``\\x0b``, ``\\x0c`` and ``\\x1c``-``\\x1e`` do not).  Each arc becomes the
    canonical ``(int, int, float)`` tuple that ``Graph`` keeps as it is.
    """
    with open(path, "r", encoding="ascii") as handle:
        try:
            lines = handle.read().split("\n")
        except UnicodeDecodeError as exc:  # exc.object: the whole file, as read() decodes it
            data, at = exc.object, exc.start
            lineno = (data.count(b"\n", 0, at) + data.count(b"\r", 0, at)
                      - data.count(b"\r\n", 0, at) + 1)
            raise DimacsFormatError(f"line {lineno}: non-ASCII byte 0x{data[at]:02x}") from None
    n = m = None
    edges: list[tuple[int, int, float]] = []
    append = edges.append
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "a":
            if n is None:
                raise DimacsFormatError(f"line {lineno}: arc before problem line (missing problem line)")
            if len(parts) != 4:
                raise DimacsFormatError(f"line {lineno}: malformed arc line {raw.strip()!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise DimacsFormatError(f"line {lineno}: malformed arc line {raw.strip()!r}") from None
            try:
                w = float(int(parts[3]))
            except ValueError:
                raise DimacsFormatError(f"line {lineno}: non-integer weight {parts[3]!r}") from None
            except OverflowError:
                raise DimacsFormatError(f"line {lineno}: weight too large for a float") from None
            if not 1 <= u <= n or not 1 <= v <= n:
                raise DimacsFormatError(f"line {lineno}: vertex id out of range in {raw.strip()!r}")
            append((u - 1, v - 1, w))
        elif tag[0] == "c":
            continue
        elif tag == "p":
            if n is not None:
                raise DimacsFormatError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "sp":
                raise DimacsFormatError(f"line {lineno}: malformed problem line {raw.strip()!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsFormatError(f"line {lineno}: malformed problem line {raw.strip()!r}") from None
        else:
            raise DimacsFormatError(f"line {lineno}: unrecognized line {raw.strip()!r}")
    if n is None:
        raise DimacsFormatError("missing problem line")
    if len(edges) != m:
        raise DimacsFormatError(f"arc count mismatch: problem line says {m}, file has {len(edges)}")
    if not 1 <= source <= n:
        raise DimacsFormatError(f"source id {source} out of range [1, {n}]")
    return Graph(n, tuple(edges), source=source - 1)


def write_dimacs(g: Graph, path: Union[str, Path]) -> None:
    """Write a graph with integral weights as a .gr file (ids shifted to 1-based).

    The first edge whose weight is not integral raises ``ValueError`` and
    nothing is written.  ``%d`` prints an integral float as ``int`` would,
    every digit of it, up to the largest finite float.
    """
    lines = [f"p sp {g.n} {g.m}"]
    append = lines.append
    for u, v, w in g.edges:
        if not w.is_integer():
            raise ValueError(f"DIMACS weights must be integers, got {w!r} on ({u}, {v})")
        append("a %d %d %d" % (u + 1, v + 1, w))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
