"""The study scripts' stdout against committed golden files and the README, and their refusals.

Each golden file holds one study's stdout at the sizes below, and the README
quotes each study's stdout at its default sizes.  A change to a counter the
study reads, to the record field it reads, or to its table changes the diff.
"""

import re
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SIZES = {
    "iteration_scaling": ["--sizes", "10", "30", "--trials", "20"],
    "relaxation_tail": ["--n", "30", "--trials", "50"],
    "detection_sweep": ["--trials", "20"],
}


def _run(study: str, args: list[str], monkeypatch) -> None:
    monkeypatch.setattr(sys, "argv", [f"{study}.py", *args])
    runpy.run_path(str(ROOT / "scripts" / f"{study}.py"), run_name="__main__")


@pytest.mark.parametrize("study", SIZES)
def test_study_stdout_equals_the_golden_file(study, monkeypatch, capsys):
    _run(study, SIZES[study], monkeypatch)
    golden = ROOT / "tests" / "golden" / f"{study}.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


# Each README block that runs a study with no arguments, and the stdout it quotes.
README_QUOTES = dict(re.findall(r"(?m)^```sh\n\$ python scripts/(\w+)\.py\n(.*?)^```$",
                                (ROOT / "README.md").read_text(encoding="utf-8"), re.DOTALL))


@pytest.mark.parametrize("study", SIZES)
def test_study_stdout_at_its_default_sizes_equals_the_readme(study, monkeypatch, capsys):
    _run(study, [], monkeypatch)
    assert capsys.readouterr().out == README_QUOTES[study]


@pytest.mark.parametrize("study, args", [
    ("iteration_scaling", ["--trials", "1"]),  # no standard error from one trial
    ("iteration_scaling", ["--sizes", "10", "1"]),
    ("relaxation_tail", ["--trials", "0"]),
    ("relaxation_tail", ["--n", "1"]),
    ("relaxation_tail", ["--c", "-1"]),
    ("relaxation_tail", ["--c", "nan"]),
    ("detection_sweep", ["--trials", "0"]),
    ("detection_sweep", ["--n", "1"]),
    ("detection_sweep", ["--n", "4", "--m", "2"]),  # too few edges to reach every vertex
    ("detection_sweep", ["--n", "4", "--m", "13"]),  # more than n(n-1) edges
    ("detection_sweep", ["--n", "12", "--m", "100", "--trials", "1"]),  # no cycle-free draw
])
def test_study_refuses_a_bad_argument_in_one_line(study, args, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(study, args, monkeypatch)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
