"""`relaxbench run` records against the committed golden file.

The golden file holds the CSV records of four runs, one after another, with
``wall_time_ns`` and any source hash masked.  A run that changes a counter,
a column or the record format changes the diff.
"""

import csv
import re
import warnings
from pathlib import Path

from relaxbench.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "run_records.csv"

PATH = ["--gen", "path-worst-case", "--n", "60", "--algorithm", "yen"]
PLANTED = ["--gen", "planted-cycle", "--n", "30", "--m", "120", "--cycle-length", "4",
           "--cycle-weight", "-1", "--algorithm", "randomized", "--seeds", "0:8"]
RUNS = [
    [*PATH, "--ordering", "adversarial"],
    [*PATH, "--ordering", "identity"],
    PLANTED,
    [*PLANTED, "--detect-cycles"],
]


def _masked(text: str) -> list[str]:
    """CSV lines with the wall_time_ns column and a source hash masked, found by header name."""
    header, *rows = csv.reader(text.splitlines())
    wall, source = header.index("wall_time_ns"), header.index("source")
    lines = [",".join(header)]
    for row in rows:
        row[wall] = "wall_time_ns"
        row[source] = re.sub(":sha256:.*", ":sha256:hash", row[source])
        lines.append(",".join(row))
    return lines


def test_yen_and_randomized_records_equal_the_golden_file(capsys):
    got = []
    for args in RUNS:
        with warnings.catch_warnings():
            # Without --detect-cycles the planted runs hit the iteration cap and warn.
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["run", *args]) == 0
        got += _masked(capsys.readouterr().out)
    assert got == GOLDEN.read_text(encoding="utf-8").splitlines()
