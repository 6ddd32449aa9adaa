"""DIMACS shortest-path (.gr) reading and writing.

The accepted grammar: comment lines start with ``c``, exactly one problem
line ``p sp <n> <m>``, and ``m`` arc lines ``a <u> <v> <w>`` with 1-based
vertex ids and integer weights (negative allowed).  Anything else is
malformed.  Vertex ids are shifted to 0-based internally; the source comes
from the caller because the format's optional source line is not universal.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Optional, Union

from .graph import Graph, _check_index


class DimacsFormatError(ValueError):
    """Raised for malformed DIMACS input, with a diagnostic naming the defect."""


def _digit_limit_error(lineno: int, what: str, token: str) -> Optional[DimacsFormatError]:
    """The diagnostic for a token ``int()`` refused, or None if it is no integer.

    ``int()`` refuses a well-formed integer only over its digit limit.
    """
    body = token[token[0] in "+-":]
    if not all(map(str.isdigit, body.split("_"))):
        return None
    return DimacsFormatError(
        f"line {lineno}: {what} {token[:12] + '...'!r} has {len(body) - body.count('_')}"
        f" digits; sys.get_int_max_str_digits() is {sys.get_int_max_str_digits()}")


def _vertex_id_error(lineno: int, raw: str, tokens: list[str]) -> DimacsFormatError:
    """The diagnostic for the first of an arc's vertex tokens that ``int()`` refuses."""
    for token in tokens:
        try:
            int(token)
        except ValueError:
            break
    return (_digit_limit_error(lineno, "vertex id", token)
            or DimacsFormatError(f"line {lineno}: malformed arc line {raw.strip()!r}"))


def load_dimacs(path: Union[str, Path], source: int = 1) -> Graph:
    """Parse a .gr file; ``source``, an integer, is the 1-based external id of the source.

    Distinct diagnostics: missing problem line, a vertex count that ``Graph``
    refuses, an arc count that is negative or above ``graph.MAX_COUNT``, or a
    source outside [1, n] (all three by
    ``graph._check_index``, at the problem line, before any arc is read),
    arc-count mismatch, vertex id or weight over
    ``int()``'s digit limit, vertex id out of range, non-integer weight,
    non-ASCII byte.  Each names its line number and, where the line is at
    fault, the line with surrounding whitespace stripped, or a long token cut
    short.  A weight is an ``int`` of any size below that limit, so every sum
    over it is exact.

    The file is read as text and split on newlines, as iterating a text file
    splits it (universal newlines: ``\\r\\n`` and a lone ``\\r`` end a line too;
    ``\\x0b``, ``\\x0c`` and ``\\x1c``-``\\x1e`` do not).  Each arc becomes the
    canonical ``(int, int, int)`` tuple that ``Graph`` keeps as it is, and the
    checks here refuse whatever ``Graph`` would, so the graph is built without
    checking each arc a second time.  Each distinct vertex token is parsed
    and range-checked once: an arc whose two tokens were both seen before
    costs two dict lookups, and any other arc is checked in full.
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
    edges: list[tuple[int, int, int]] = []
    append = edges.append
    ids: dict[str, int] = {}  # vertex token -> its 0-based id, parsed and in range
    known = ids.get
    shared = {}.setdefault  # 0-based id -> the one int object that every arc holds for it
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
            u, v = known(parts[1]), known(parts[2])
            new = u is None or v is None
            if new:
                try:
                    u, v = int(parts[1]), int(parts[2])
                except ValueError:
                    raise _vertex_id_error(lineno, raw, parts[1:3]) from None
            try:
                w = int(parts[3])
            except ValueError:
                raise (_digit_limit_error(lineno, "weight", parts[3]) or DimacsFormatError(
                    f"line {lineno}: non-integer weight {parts[3]!r}")) from None
            if new:
                if not 1 <= u <= n or not 1 <= v <= n:
                    raise DimacsFormatError(f"line {lineno}: vertex id out of range in {raw.strip()!r}")
                u, v = u - 1, v - 1
                u = ids[parts[1]] = shared(u, u)
                v = ids[parts[2]] = shared(v, v)
            append((u, v, w))
        elif tag[0] == "c":
            continue
        elif tag == "p":
            if n is not None:
                raise DimacsFormatError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "sp":
                raise DimacsFormatError(f"line {lineno}: malformed problem line {raw.strip()!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
                _check_index(n, f"line {lineno}: vertex count")
                _check_index(m, f"line {lineno}: arc count", 0)
                source = _check_index(source, "source id", 1, n)
            except ValueError as exc:  # n is set once both counts parse
                raise DimacsFormatError(f"line {lineno}: malformed problem line {raw.strip()!r}"
                                        if n is None else str(exc)) from None
        else:
            raise DimacsFormatError(f"line {lineno}: unrecognized line {raw.strip()!r}")
    if n is None:
        raise DimacsFormatError("missing problem line")
    if len(edges) != m:
        raise DimacsFormatError(f"arc count mismatch: problem line says {m}, file has {len(edges)}")
    return Graph._from_checked(n, tuple(edges), source - 1)


def write_dimacs(g: Graph, path: Union[str, Path]) -> None:
    """Write a graph with integral weights as a .gr file (ids shifted to 1-based).

    The first edge whose weight is a ``Fraction``, as ``Graph`` keeps a
    non-integral one, or an int over ``str()``'s digit limit raises
    ``ValueError`` naming the edge, and nothing is written.  Each vertex the
    edges name is formatted once, into a memo that holds only those vertices
    (a graph may have far more vertices than edges).
    """
    lines = [f"p sp {g.n} {g.m}"]
    append = lines.append
    names: dict[int, str] = {}  # vertex -> its 1-based name
    for u, v, w in g.edges:
        if type(w) is not int:
            raise ValueError(f"DIMACS weights must be integers, got {w!r} on ({u}, {v})")
        try:
            tail, head = names[u], names[v]
        except KeyError:
            tail, head = names.setdefault(u, str(u + 1)), names.setdefault(v, str(v + 1))
        try:
            append(f"a {tail} {head} {w}")
        except ValueError:
            raise ValueError(f"DIMACS weight on ({u}, {v}) has more than "
                             f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()} digits") from None
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
