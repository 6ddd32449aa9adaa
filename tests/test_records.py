"""The record classes' contract, and what importing the command line loads."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from relaxbench import GeneratorSpec, Graph, Ordering, RunStats
from relaxbench.cli import CSV_HEADER, TrialRecord, emit_stats

SRC = Path(__file__).resolve().parents[1] / "src"
RECORD = TrialRecord(algorithm="yen", seed=1, n=3, m=2, iterations=2, relax_calls=4,
                     improvements=2, wall_time_ns=5, negative_cycle_found=False, source="gen:x")


@pytest.mark.parametrize("obj, field, value", [
    (Graph(2, ((0, 1, 1.0),)), "edges", ()),
    (Graph(2, ((0, 1, 1.0),)), "n", 3),
    (Ordering((0, 1)), "rank", (1, 0)),
    (Ordering((0, 1)), "not_a_field", 1),  # no __dict__ either
    (GeneratorSpec(kind="path-worst-case", n=4), "n", 5),
], ids=["graph-edges", "graph-n", "ordering-rank", "ordering-new-attribute", "spec-n"])
def test_frozen_records_refuse_field_assignment(obj, field, value):
    before = getattr(obj, field, None)
    with pytest.raises(AttributeError):
        setattr(obj, field, value)
    assert getattr(obj, field, None) == before


def test_equal_graphs_and_orderings_compare_and_hash_equal():
    # Graph converts its edges, so equal content built two ways is one value.
    a = Graph(3, [(0, 1, 2), (1, 2, Fraction(7, 2))], source=0)
    b = Graph(n=3, edges=((0, 1, 2.0), (1, 2, "3.5")))
    assert a == b and hash(a) == hash(b)
    assert a != Graph(3, ((0, 1, 2), (1, 2, Fraction(7, 2))), source=1)
    c, d = Ordering([0, 2, 1]), Ordering(rank=(0, 2, 1))
    assert c == d and hash(c) == hash(d)
    assert c.by_rank == (0, 2, 1) and c == d  # the derived inverse is no part of the value
    assert c != Ordering((0, 1, 2))


def test_checked_records_check_a_replaced_field_as_their_constructor_does():
    g = Graph(2, ((0, 1, 1.0),))
    assert g._replace(edges=[(1, 0, 2)]).edges == ((1, 0, 2.0),)
    with pytest.raises(ValueError, match=r"source 2 out of range \[0, 2\)"):
        g._replace(source=2)
    with pytest.raises(ValueError, match="rank must be a permutation"):
        Ordering((0, 1))._replace(rank=(0, 0))
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        GeneratorSpec(kind="path-worst-case", n=4)._replace(seed=-1)


def test_record_reprs_list_their_fields_in_order():
    assert repr(RunStats(7, 3, 2)) == (
        "RunStats(relax_calls=7, improvements=3, iterations=2, negative_cycle=None)")
    assert repr(RECORD) == (
        "TrialRecord(algorithm='yen', seed=1, n=3, m=2, iterations=2, relax_calls=4, "
        "improvements=2, wall_time_ns=5, negative_cycle_found=False, source='gen:x')")


def test_record_columns_are_pinned():
    assert CSV_HEADER == ("algorithm,seed,n,m,iterations,relax_calls,improvements,"
                          "wall_time_ns,negative_cycle_found,source")
    line = emit_stats([RECORD], "json-lines")
    assert list(json.loads(line)) == CSV_HEADER.split(",")


def test_importing_the_cli_loads_no_dataclasses_and_a_generated_csv_run_no_hashlib_or_json():
    # A fresh interpreter without site (-S), so that no installed .pth file
    # decides what is loaded.  Only a weight that is not an int or a float
    # needs fractions.  The last line is printed after a --gen csv run,
    # which runs in one process and so loads nothing the fork path needs.
    probe = (
        "import sys\n"
        "import relaxbench.cli\n"
        "print(*sorted({'dataclasses', 'fractions', 'inspect'} & set(sys.modules)), sep=',')\n"
        "relaxbench.cli.main(['run', '--gen', 'path-worst-case', '--n', '5',"
        " '--algorithm', 'basic'])\n"
        "print(*sorted({'dataclasses', 'fractions', 'inspect', 'hashlib', 'json', 'pickle',"
        " 'signal'} & set(sys.modules)), sep=',')\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1] == CSV_HEADER  # the run wrote its records between the two probes
    assert lines[0] == "", f"import relaxbench.cli loaded {lines[0]}"
    assert lines[-1] == "", f"a --gen csv run loaded {lines[-1]}"
