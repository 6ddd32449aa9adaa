import pytest

from relaxbench import GeneratorSpec, Graph, random_graph, worst_case_path
from relaxbench.dimacs import DimacsFormatError, load_dimacs, write_dimacs


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


def test_missing_problem_line(tmp_path):
    with pytest.raises(DimacsFormatError, match="missing problem line"):
        _load(tmp_path, "c no header\n")
    with pytest.raises(DimacsFormatError, match="missing problem line"):
        _load(tmp_path, "a 1 2 3\n")


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
    with pytest.raises(DimacsFormatError, match="line 3: weight too large for a float"):
        _load(tmp_path, f"p sp 2 2\na 1 2 1\na 2 1 {10**400}\n")


def test_unrecognized_and_duplicate_lines(tmp_path):
    with pytest.raises(DimacsFormatError, match="unrecognized"):
        _load(tmp_path, "p sp 2 1\nq what\na 1 2 5\n")
    with pytest.raises(DimacsFormatError, match="duplicate problem line"):
        _load(tmp_path, "p sp 2 1\np sp 2 1\na 1 2 5\n")


def test_write_rejects_fractional_weights(tmp_path):
    g = Graph(2, ((0, 1, 1.5),))
    with pytest.raises(ValueError):
        write_dimacs(g, tmp_path / "bad.gr")


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
