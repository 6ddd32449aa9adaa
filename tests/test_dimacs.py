import contextlib
import io
import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxbench import GeneratorSpec, Graph, random_graph, worst_case_path
from relaxbench.cli import main
from relaxbench.dimacs import DimacsFormatError, load_dimacs, write_dimacs
from relaxbench.graph import MAX_COUNT

from helpers import reference_dimacs_text, reference_load_dimacs


def _load(tmp_path, text, **kwargs):
    path = tmp_path / "g.gr"
    path.write_text(text)
    return load_dimacs(path, **kwargs)


def test_minimal_file(tmp_path):
    g = _load(tmp_path, "c tiny\np sp 2 1\na 1 2 5\n")
    assert g.n == 2
    assert g.edges == ((0, 1, 5.0),)
    assert g.source == 0


def test_negative_weights_accepted(tmp_path):
    g = _load(tmp_path, "p sp 2 1\na 1 2 -7\n")
    assert g.edges == ((0, 1, -7.0),)


def test_source_flag_is_one_based(tmp_path):
    g = _load(tmp_path, "p sp 3 1\na 1 2 1\n", source=3)
    assert g.source == 2
    with pytest.raises(DimacsFormatError, match="source id"):
        _load(tmp_path, "p sp 3 1\na 1 2 1\n", source=4)


@pytest.mark.parametrize("source, message", [
    ("1", "source id must be an integer, got '1'"),  # these two raised TypeError
    (None, "source id must be an integer, got None"),
    (1.5, "source id must be an integer, got 1.5"),
    (0, "source id 0 out of range [1, 3]"),
])
def test_source_is_checked_at_the_problem_line(tmp_path, source, message):
    # The source is refused before any arc is read, so ahead of the malformed arc.
    for text in ("p sp 3 1\na 1 2 1\n", "p sp 3 1\na 1 x 1\n"):
        with pytest.raises(DimacsFormatError) as excinfo:
            _load(tmp_path, text, source=source)
        assert str(excinfo.value) == message


@pytest.mark.parametrize("text, message", [
    # These read "arc count mismatch: problem line says -1, file has 0" and blamed the arc.
    ("p sp 3 -1\n", "line 1: arc count must be >= 0, got -1"),
    ("c x\np sp 3 -2\na 1 x 1\n", "line 2: arc count must be >= 0, got -2"),
    (f"p sp 3 {sys.maxsize + 1}\n", f"line 1: arc count {sys.maxsize + 1} is above sys.maxsize"),
    (f"p sp 3 {MAX_COUNT + 1}\n", f"line 1: arc count {MAX_COUNT + 1} is above MAX_COUNT = {MAX_COUNT}"),
])
def test_arc_count_is_checked_at_the_problem_line(tmp_path, text, message):
    with pytest.raises(DimacsFormatError) as excinfo:
        _load(tmp_path, text)
    assert str(excinfo.value) == message


def test_missing_problem_line(tmp_path):
    with pytest.raises(DimacsFormatError, match="missing problem line"):
        _load(tmp_path, "c no header\n")
    with pytest.raises(DimacsFormatError, match="missing problem line"):
        _load(tmp_path, "a 1 2 3\n")


def test_vertex_count_above_sys_maxsize(tmp_path):
    # No list can index such a graph's vertices; it used to load.
    with pytest.raises(DimacsFormatError, match=r"^line 2: vertex count \d+ is above sys.maxsize$"):
        _load(tmp_path, f"c huge\np sp {sys.maxsize + 1} 1\na 1 2 3\n")


def test_vertex_count_above_max_count(tmp_path):
    # Refused at the problem line, before a vertex or an arc is built.
    with pytest.raises(DimacsFormatError) as excinfo:
        _load(tmp_path, f"p sp {MAX_COUNT + 1} 1\na 1 2 3\n")
    assert str(excinfo.value) == f"line 1: vertex count {MAX_COUNT + 1} is above MAX_COUNT = {MAX_COUNT}"


@pytest.mark.parametrize("text, message", [
    # The first read "source id 1 out of range [1, 0]", the second blamed the arc.
    ("p sp 0 0\n", "line 1: vertex count must be >= 1, got 0"),
    ("p sp -5 1\na 1 2 3\n", "line 1: vertex count must be >= 1, got -5"),
])
def test_vertex_count_below_one(tmp_path, text, message):
    with pytest.raises(DimacsFormatError) as excinfo:
        _load(tmp_path, text)
    assert str(excinfo.value) == message


def test_source_above_a_vertex_count_of_max_count_names_the_range(tmp_path):
    # An explicit bound equal to MAX_COUNT read "source id 10000001 is above MAX_COUNT = 10000000".
    with pytest.raises(DimacsFormatError) as excinfo:
        _load(tmp_path, f"p sp {MAX_COUNT} 0\n", source=MAX_COUNT + 1)
    assert str(excinfo.value) == f"source id {MAX_COUNT + 1} out of range [1, {MAX_COUNT}]"


def test_arc_count_mismatch(tmp_path):
    with pytest.raises(DimacsFormatError, match="arc count mismatch"):
        _load(tmp_path, "p sp 2 2\na 1 2 5\n")
    with pytest.raises(DimacsFormatError, match="arc count mismatch"):
        _load(tmp_path, "p sp 2 0\na 1 2 5\n")


def test_id_out_of_range(tmp_path):
    with pytest.raises(DimacsFormatError, match="out of range"):
        _load(tmp_path, "p sp 2 1\na 1 3 5\n")
    with pytest.raises(DimacsFormatError, match="out of range"):
        _load(tmp_path, "p sp 2 1\na 0 1 5\n")


def test_non_integer_weight(tmp_path):
    with pytest.raises(DimacsFormatError, match="non-integer weight"):
        _load(tmp_path, "p sp 2 1\na 1 2 1.5\n")


def test_weight_too_large_for_a_float(tmp_path):
    # An int holds it exactly.
    g = _load(tmp_path, f"p sp 2 2\na 1 2 1\na 2 1 {10**400}\n")
    assert g.edges == ((0, 1, 1), (1, 0, 10**400))


def test_vertex_id_over_the_digit_limit_is_cut_short(tmp_path):
    # It was "malformed arc line" quoting the whole 5000-digit line.
    huge = "1" + "0" * 5000
    limit = sys.get_int_max_str_digits()
    for arc, cut in ((f"a 1 {huge} 3", "100000000000"), (f"a +{huge} 1 3", "+10000000000"),
                     (f"a 1 {huge} x", "100000000000")):
        with pytest.raises(DimacsFormatError) as excinfo:
            _load(tmp_path, f"p sp 2 1\n{arc}\n")
        assert str(excinfo.value) == (
            f"line 2: vertex id '{cut}...' has 5001 digits; sys.get_int_max_str_digits() is {limit}")
    # The first token int() refuses is named: here a malformed one.
    with pytest.raises(DimacsFormatError, match="^line 2: malformed arc line 'a x "):
        _load(tmp_path, f"p sp 2 1\na x {huge} 3\n")


def test_a_vertex_token_is_parsed_once_and_checked_as_before(tmp_path):
    g = _load(tmp_path, "p sp 9 4\na 7 1 2\na 07 1 3\na +7 07 4\na 0_7 +7 5\n")
    assert g.edges == ((6, 0, 2), (6, 0, 3), (6, 6, 4), (6, 6, 5))
    assert all(type(x) is int for e in g.edges for x in e)
    # Tail 1 is known from line 2 and head 3 is not: the arc is still refused.
    with pytest.raises(DimacsFormatError) as excinfo:
        _load(tmp_path, "p sp 2 2\na 1 2 5\na 1 3 5\n")
    assert str(excinfo.value) == "line 3: vertex id out of range in 'a 1 3 5'"
    # A bad weight is still named before an out-of-range id, known token or not.
    with pytest.raises(DimacsFormatError, match="^line 3: non-integer weight 'x'$"):
        _load(tmp_path, "p sp 2 2\na 1 2 5\na 1 3 x\n")
    with pytest.raises(DimacsFormatError, match="^line 3: non-integer weight 'x'$"):
        _load(tmp_path, "p sp 2 2\na 1 2 5\na 2 1 x\n")


def test_unrecognized_and_duplicate_lines(tmp_path):
    with pytest.raises(DimacsFormatError, match="unrecognized"):
        _load(tmp_path, "p sp 2 1\nq what\na 1 2 5\n")
    with pytest.raises(DimacsFormatError, match="duplicate problem line"):
        _load(tmp_path, "p sp 2 1\np sp 2 1\na 1 2 5\n")


def test_write_rejects_fractional_weights(tmp_path):
    g = Graph(3, ((0, 1, 1), (1, 2, Fraction(5, 2)), (2, 0, Fraction(1, 2))))
    path = tmp_path / "bad.gr"
    with pytest.raises(ValueError) as excinfo:
        write_dimacs(g, path)
    with pytest.raises(ValueError) as expected:
        reference_dimacs_text(g)
    assert str(excinfo.value) == str(expected.value) == \
        "DIMACS weights must be integers, got Fraction(5, 2) on (1, 2)"
    assert not path.exists()


def test_write_keeps_no_table_of_all_vertices(tmp_path):
    # Names are memoized for the vertices the edges name, not for all n.
    g = Graph(10**6, ((0, 999_999, 1), (999_999, 0, -1)))
    path = tmp_path / "sparse.gr"
    tracemalloc.start()
    try:
        write_dimacs(g, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert path.read_text() == "p sp 1000000 2\na 1 1000000 1\na 1000000 1 -1\n"


def test_write_refuses_a_weight_over_the_digit_limit(tmp_path):
    # %d, as str(), refuses an int with more digits than the interpreter's limit.
    limit = sys.get_int_max_str_digits()
    g = Graph(3, ((0, 1, 1), (1, 2, 10**limit), (2, 0, 2)))
    path = tmp_path / "big.gr"
    with pytest.raises(ValueError) as excinfo:
        write_dimacs(g, path)
    assert str(excinfo.value) == ("DIMACS weight on (1, 2) has more than "
                                  f"sys.get_int_max_str_digits() = {limit} digits")
    assert not path.exists()


@pytest.mark.parametrize("spec", [
    GeneratorSpec(kind="random-sparse", n=8, m=14, seed=1),
    GeneratorSpec(kind="random-sparse", n=5, m=8, seed=2, ensure_reachable=True),
    GeneratorSpec(kind="planted-cycle", n=7, m=10, seed=3, cycle_length=3, cycle_weight=-2),
])
def test_round_trip_preserves_structure(tmp_path, spec):
    g = random_graph(spec)
    path = tmp_path / "rt.gr"
    write_dimacs(g, path)
    back = load_dimacs(path)
    assert back.n == g.n
    assert back.m == g.m
    assert sorted(back.edges) == sorted(g.edges)


def test_round_trip_path_graph(tmp_path):
    g = worst_case_path(9)
    path = tmp_path / "p.gr"
    write_dimacs(g, path)
    assert load_dimacs(path).edges == g.edges


# Mutated .gr text: a well-formed file, then edits that each leave it valid or
# break it in one way the reader must name.
_SEPARATORS = (" ", "  ", "\t", " \x0b ", "\x0c", "\x1c", "\x1e", "\x1f")
_BAD_TOKENS = ("+3", "-0", "1.5", "1e3", "0x10", "1_0", "nan", "inf", "--1", "7a",
               str(10**400), str(-10**400), "1" * 5000, str(MAX_COUNT + 1))
_JUNK_LINES = ("c", "c comment", "cfoo 1 2", "  c  indented", "", "   ", "\t", "\x0c", "\x0b",
               "x 1 2", "ab 1 2 3", "pp sp 1 1", "p sp 2 1", "p sp x 2", "p xx 2 1", "p sp 2",
               "a 1 2", "a 1 2 3 4", "a", "p", "\x1d", "a\x0c1 2 3")


def _rarely(common, rare):
    # Mostly ``common``, so that about a third of the files are well formed.
    return st.integers(0, 7).flatmap(lambda k: rare if k == 0 else common)


@st.composite
def _mutated_dimacs(draw):
    n = draw(st.integers(1, 5))
    # A vertex id is also written as "07" or "+7" now and then: tokens that the
    # loader parses apart but that name one vertex.
    vertex = _rarely(st.integers(1, n), st.sampled_from((0, n + 1, -1))).flatmap(
        lambda k: _rarely(st.just(str(k)), st.sampled_from((f"0{k}", f"+{k}"))))
    weight = _rarely(st.integers(-20, 20).map(str), st.sampled_from(_BAD_TOKENS))
    arcs = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=6))
    m = draw(_rarely(st.just(len(arcs)), st.integers(0, 8)))
    lines = [["p", "sp", str(n), str(m)]] + [["a", *arc] for arc in arcs]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(("junk", "junk", "drop", "add", "swap")))
        if kind == "junk":
            lines.insert(at, [draw(st.sampled_from(_JUNK_LINES))])
        elif at < len(lines) and len(lines[at]) > 1:
            tokens = lines[at]
            if kind == "drop":
                del tokens[draw(st.integers(0, len(tokens) - 1))]
            elif kind == "add":
                tokens.append(draw(weight))
            else:
                tokens[draw(st.integers(1, len(tokens) - 1))] = draw(st.sampled_from(_BAD_TOKENS))
    pad = st.sampled_from(("", "", " ", "\t", "\x0b", "\x0c", "\r"))
    inside = _rarely(st.just(""), st.sampled_from(("\x0b", "\x0c", "\x1c", "\x1e", "\u00e9")))
    text_lines = []
    for tokens in lines:
        line = draw(st.sampled_from(_SEPARATORS)).join(tokens)
        cut = draw(st.integers(0, len(line)))
        text_lines.append(draw(pad) + line[:cut] + draw(inside) + line[cut:] + draw(pad))
    newline = draw(st.sampled_from(("\n", "\r\n", "\r")))
    text = newline.join(text_lines) + draw(st.sampled_from(("", "\n", "\r\n")))
    source = draw(_rarely(st.just(1), st.integers(0, n + 1)))
    return text.encode("utf-8"), source


def _outcome(load, path, source):
    try:
        g = load(path, source=source)
    except (ValueError, OSError) as exc:
        return type(exc), str(exc)
    return g, [tuple(map(type, e)) for e in g.edges]


@given(case=_mutated_dimacs())
@settings(max_examples=400, deadline=None)
def test_load_matches_the_line_by_line_reference(tmp_path_factory, case):
    data, source = case
    path = tmp_path_factory.getbasetemp() / "mutated.gr"
    path.write_bytes(data)
    got = _outcome(load_dimacs, path, source)
    assert got == _outcome(reference_load_dimacs, path, source)
    if isinstance(got[0], Graph):
        assert all(types == (int, int, int) for types in got[1])


def test_load_splits_only_on_newlines(tmp_path):
    # Text-mode iteration ends a line at \n, \r\n or \r and nowhere else.
    with pytest.raises(DimacsFormatError) as excinfo:
        _load(tmp_path, "p sp 2 2\na 1 2 3\x0ca 2 1 4\n")
    assert str(excinfo.value) == "line 2: malformed arc line 'a 1 2 3\\x0ca 2 1 4'"
    path = tmp_path / "cr.gr"
    path.write_bytes(b"p sp 2 2\ra 1 2 3\r\nc x\r\n\ra 2 1 -4")
    assert load_dimacs(path).edges == ((0, 1, 3.0), (1, 0, -4.0))
    with pytest.raises(DimacsFormatError, match="line 2: non-integer weight '1e3'"):
        _load(tmp_path, "p sp 2 1\r\na 1 2 1e3\r\n")


def test_load_names_the_line_of_a_non_ascii_byte(tmp_path):
    # The codec's own message named a byte offset, not a line.
    path = tmp_path / "u.gr"
    path.write_bytes(b"p sp 2 1\r\nc caf\xc3\xa9\r\na 1 2 3\r\n")
    with pytest.raises(DimacsFormatError, match="^line 2: non-ASCII byte 0xc3$"):
        load_dimacs(path)


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def test_load_builds_the_graph_that_graph_would_check():
    # load_dimacs skips Graph's per-edge check, so each edge must already be one
    # that Graph keeps as the same object.
    loaded = 0
    for path in sorted(GOLDEN_INPUTS.rglob("*.gr")):
        try:
            g = load_dimacs(path)
        except DimacsFormatError:
            continue  # refusals: test_load_refuses_whatever_graph_refuses
        checked = Graph(g.n, g.edges, g.source)
        assert type(g) is Graph and g == checked, path
        assert all(a is b for a, b in zip(g.edges, checked.edges)), path
        loaded += 1
    assert loaded == 9


_ID = st.one_of(st.integers(-1, 6),
                st.sampled_from((MAX_COUNT + 1, sys.maxsize, sys.maxsize + 1, 2**64)))


@given(n=_ID, arcs=st.lists(st.tuples(_ID, _ID, st.one_of(
           st.integers(-9, 9), st.sampled_from((10**308, -10**308, 10**309, -10**400)))),
           max_size=5),
       source=_ID)
@settings(max_examples=300, deadline=None)
def test_load_refuses_whatever_graph_refuses(tmp_path_factory, n, arcs, source):
    path = tmp_path_factory.getbasetemp() / "graph.gr"
    path.write_text(f"p sp {n} {len(arcs)}\n" + "".join(f"a {u} {v} {w}\n" for u, v, w in arcs))
    try:
        want = Graph(n, tuple((u - 1, v - 1, w) for u, v, w in arcs), source - 1)
    except ValueError:
        want = None
    if want is not None:
        assert load_dimacs(path, source=source) == want
        return
    with pytest.raises(DimacsFormatError):
        load_dimacs(path, source=source)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["run", "--input", str(path), f"--source={source}", "--algorithm", "basic"])
    assert (rc, out.getvalue()) == (2, "") and err.getvalue().startswith("error: ")


_integral = st.one_of(
    st.integers(-2**60, 2**60).map(float),
    st.floats(-1e308, 1e308, allow_nan=False).map(lambda x: float(math.trunc(x))),
    st.sampled_from((1e308, -1e308, sys.float_info.max, -sys.float_info.max, -0.0, 2.0**53 + 2)),
    st.sampled_from((10**400, -10**400, 2**60 + 1, -2**53 - 1)),
)


@given(weights=st.lists(_integral, min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_write_matches_int_formatting(tmp_path_factory, weights):
    g = Graph(3, tuple((k % 3, (k + 1) % 3, w) for k, w in enumerate(weights)))
    path = tmp_path_factory.getbasetemp() / "written.gr"
    write_dimacs(g, path)
    assert path.read_bytes() == reference_dimacs_text(g).encode("ascii")


@st.composite
def _wide_graphs(draw):
    """Graphs whose ids have up to 8 digits, the most a vertex count within
    ``MAX_COUNT`` allows, with parallel edges and self-loops; none holds a
    per-vertex table."""
    n = draw(st.integers(1, MAX_COUNT))
    vertex = st.integers(0, n - 1) | st.sampled_from((0, n - 1))
    tails = draw(st.lists(vertex, min_size=1, max_size=4))
    edges = draw(st.lists(st.tuples(st.sampled_from(tails), vertex | st.sampled_from(tails),
                                    st.integers(-10**20, 10**20)), max_size=10))
    return Graph(n, tuple(edges + edges[:draw(st.integers(0, 2))]))


@given(g=_wide_graphs())
@settings(max_examples=200, deadline=None)
def test_write_names_vertices_of_many_digits(tmp_path_factory, g):
    path = tmp_path_factory.getbasetemp() / "wide.gr"
    write_dimacs(g, path)
    assert path.read_bytes() == reference_dimacs_text(g).encode("ascii")
    assert load_dimacs(path) == g


def test_a_loaded_graph_holds_one_int_object_per_vertex(tmp_path):
    # Past CPython's small-int cache (n > 256).  Each path arc names one vertex
    # seen before and one new, so the loader parses both tokens again; the last
    # file spells every head with a leading zero, so each vertex has two tokens.
    n = 600
    texts = [reference_dimacs_text(worst_case_path(n)),
             reference_dimacs_text(random_graph(GeneratorSpec(kind="random-sparse", n=n, m=3000))),
             f"p sp {n} {n - 1}\n" + "".join(f"a {i} 0{i + 1} 1\n" for i in range(1, n))]
    for text in texts:
        g = _load(tmp_path, text)
        assert len({id(x) for u, v, _ in g.edges for x in (u, v)}) <= g.n
