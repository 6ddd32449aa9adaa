"""The command line's contract: the cases of the corpus in ``tests/golden/cli``.

Each case runs ``cli.main`` in-process in a fresh directory holding a copy of
``tests/golden/inputs``, so no output holds a temporary path.  Its file holds
the command, exit code, last stderr line, warnings, the sha256 of each file
written, and stdout with all-digit ``wall_time_ns`` masked.  One case,
``FORKS``, has over twice ``PARALLEL_MIN_EDGE_TRIALS`` edge-trials, so it forks
wherever two CPUs are usable, and a test checks that its file is the same in
one process.  Run as a script, stdlib only, this file regenerates the corpus
(``PYTHONPATH=src``)."""

import contextlib
import difflib
import hashlib
import io
import os
import re
import shlex
import shutil
import tempfile
import traceback
import warnings
from pathlib import Path

from relaxbench import worst_case_path
from relaxbench.cli import ALGORITHMS, TrialConfig, TrialRecord, _process_count, main
from relaxbench.graph import MAX_COUNT

CORPUS, INPUTS = (Path(__file__).resolve().parent / "golden" / d for d in ("cli", "inputs"))

GRAPHS = {
    "path": "--gen path-worst-case --n 60",
    "planted": "--gen planted-cycle --n 8 --m 12 --cycle-length 3 --cycle-weight -2",
    "loops": "--input loops.gr",  # negative arcs and self-loops, no negative cycle
}
RUN_FLAGS = [a + f for a in ALGORITHMS for f in ("", " --check-oracle", " --format json-lines")]
RUN_FLAGS += ["basic --strict-count", "yen --ordering identity", "yen --ordering adversarial",
              "randomized --detect-cycles", "randomized --detect-cycles --check-oracle",
              "randomized --detect-cycles --fail-on-cycle"]
SPARSE = "--gen random-sparse --n 2000 --m 10000 --weight-min 0 --weight-max 9 --ensure-reachable"
DENSE = ("--gen planted-cycle --n 150 --m 22350 --weight-min 0 --weight-max 9"
         " --cycle-length 5 --cycle-weight -1")
C4 = "--gen planted-cycle --cycle-length 4 --cycle-weight -1"  # a planted 4-cycle of weight -1
P30 = f"{C4} --n 30 --m 120"
DETECT = "--algorithm randomized --detect-cycles --check-oracle"
P4 = "run --gen path-worst-case --n 4"
FORKS = "run-path-4000-randomized-seeds-0-65"  # the one case that forks

CASES = {}  # name -> the command line after `relaxbench`
for graph, source in GRAPHS.items():
    for flags in RUN_FLAGS:
        CASES["-".join(["run", graph, *(f.lstrip("-") for f in flags.split())])] = (
            f"run {source} --algorithm {flags}")
    CASES[f"verify-{graph}"] = f"verify {source}"
    CASES[f"verify-{graph}-fail-on-cycle"] = f"verify {source} --fail-on-cycle"
CASES.update({
    # The benchmark's sparse-2000 and dense-detect-cli seed-0 graphs, by their sha256.
    "generate-sparse-2000": f"generate {SPARSE} --output sparse.gr",
    "generate-dense-150": f"generate {DENSE} --output planted.gr",
    "generate-planted-30": f"generate {P30} --output g.gr",  # the bytes of lf/g.gr
    # Certified checks above the Floyd-Warshall cap.
    "run-sparse-check-oracle": f"run {SPARSE} --algorithm randomized --seeds 0:2 --check-oracle",
    "run-planted-200-detect-cycles-check-oracle": f"run {C4} --n 200 --m 1000 {DETECT} --seeds 0:2",
    "run-planted-30": f"run {P30} --algorithm randomized --seeds 0:8",
    # 65 seeds x 3999 arcs: 259,935 edge-trials, so two processes run it
    # wherever two CPUs are usable, and its records read the same either way.
    FORKS: "run --gen path-worst-case --n 4000 --algorithm randomized --seeds 0:65",
    "run-planted-30-detect-cycles": f"run {P30} --algorithm randomized --seeds 0:8 --detect-cycles",
    # crlf/g.gr: lf/g.gr with CRLF line ends and a comment and a blank line before each line.
    "run-lf": f"run --input lf/g.gr {DETECT} --seeds 0:4",
    "run-crlf": f"run --input crlf/g.gr {DETECT} --seeds 0:4",
    # Weights are exact ints.  Two arcs of weight 10^308 on a 3-vertex path:
    # dist[3] is 2 * 10^308, no inf.  A weight of 10^400, which no float holds.
    "run-inf": "run --input inf.gr --algorithm randomized --seeds 0:3 --check-oracle",
    "run-inf-detect-cycles": f"run --input inf.gr {DETECT} --seeds 0:3",
    "run-weight-too-large": "run --input weight-too-large.gr --algorithm basic",
    "verify-weight-too-large": "verify --input weight-too-large.gr",
    # The one cycle weighs -1 from arcs of 2^60 + 1 and -2^60 - 2, which as
    # floats would sum to 0.
    "run-huge-cycle": f"run --input huge-cycle.gr {DETECT} --seeds 0:2",
    "verify-huge-cycle": "verify --input huge-cycle.gr",
    # No pass relaxes a self-loop, so the detectors scan for this one after converging.
    "run-negloop-detect-cycles-check-oracle": f"run --input negloop.gr {DETECT}",
    "verify-negloop": "verify --input negloop.gr",
    "verify-planted-120": f"verify {C4} --n 120 --m 600",
    # Exit 2.  A form feed ends no line, so form-feed.gr's arc line has eight fields.
    # huge.gr's vertex count is 2^64, above sys.maxsize, and zero-vertices.gr's is 0;
    # negative-arc-count.gr's arc count is -1.
    # weight-too-many-digits.gr's one weight and vertex-id-too-many-digits.gr's one
    # head id have 5001 digits, above the 4300 that int() reads by default.
    **{f"run-{name}": f"run --input {name}.gr --algorithm basic"
       for name in ("form-feed", "arc-count-mismatch", "missing", "huge", "zero-vertices",
                    "negative-arc-count", "weight-too-many-digits", "vertex-id-too-many-digits")},
    "run-huge-n": f"run --gen path-worst-case --n={2**64} --algorithm basic",
    # One vertex more than graph.MAX_COUNT, refused before any vertex is built.
    "run-n-above-max-count": f"run --gen path-worst-case --n={MAX_COUNT + 1} --algorithm basic",
    "run-no-graph-source": "run --algorithm basic",
    "run-two-graph-sources": f"{P4} --input loops.gr --algorithm basic",
    "generate-two-graph-sources": ("generate --input loops.gr --gen path-worst-case --n 4"
                                   " --output q.gr"),
    "run-gen-without-n": "run --gen path-worst-case --algorithm basic",
    "run-gen-flag-the-kind-ignores": f"{P4} --m 40 --cycle-length 3 --algorithm randomized",
    # A generator flag needs --gen: a file's graph has no generator parameters.
    "run-input-with-gen-flag": ("run --input loops.gr --n 5 --m 3 --weight-min 2 --cycle-length 3"
                                " --ensure-reachable --algorithm basic"),
    "verify-input-with-graph-seed": "verify --input loops.gr --graph-seed 4",
    "run-negative-graph-seed": ("run --gen random-sparse --n 6 --m 10 --graph-seed -3"
                                " --algorithm randomized"),
    "run-source-with-gen": f"{P4} --source 2 --algorithm basic",
    # --source names an external id: from vertex 2 of loops.gr, vertex 1 is unreached.
    # The label names a source other than 1.
    "verify-loops-source-2": "verify --input loops.gr --source 2",
    "run-loops-source-2-basic": "run --input loops.gr --source 2 --algorithm basic",
    "verify-loops-source-9": "verify --input loops.gr --source 9",
    # --ordering needs yen and --strict-count needs basic.
    **{f"run-ordering-adversarial-{a}": f"{P4} --algorithm {a} --ordering adversarial"
       for a in ("basic", "adaptive", "randomized")},
    "run-strict-count-yen": f"{P4} --algorithm yen --strict-count",
    # The adversarial ordering takes the path 1 -> 2 -> 3 -> 4 with any weights, from vertex 1.
    "run-path-weights-yen-ordering-adversarial":
        "run --input path-weights.gr --algorithm yen --ordering adversarial",
    "run-path-weights-source-2-yen-ordering-adversarial":
        "run --input path-weights.gr --source 2 --algorithm yen --ordering adversarial",
    "run-path-missing-arc-yen-ordering-adversarial":
        "run --input path-missing-arc.gr --algorithm yen --ordering adversarial",
    "run-seeds-without-colon": f"{P4} --seeds 3 --algorithm basic",
    "run-seeds-empty": f"{P4} --seeds 5:5 --algorithm basic",
    "run-seeds-reversed": f"{P4} --seeds 7:3 --algorithm basic",
    "run-seeds-not-integers": f"{P4} --seeds a:b --algorithm basic",
    "run-negative-seed": f"{P4} --seed -1 --algorithm randomized",
    "run-detect-cycles-basic": f"{P4} --algorithm basic --detect-cycles",
    "run-strict-count-adaptive": f"{P4} --algorithm adaptive --strict-count",
    "run-without-algorithm": P4,
    "generate-without-gen": "generate --output g.gr",
    "verify-above-the-oracle-cap": "verify --gen path-worst-case --n 257",
    "verify-negative-seed": "verify --gen path-worst-case --n 4 --seed -1",
})


def _masked(stdout: str) -> str:
    """stdout with each all-digit wall_time_ns masked, in CSV rows and in JSON lines."""
    column = rf"(?m)^((?:[^,\n]*,){{{TrialRecord._fields.index('wall_time_ns')}}})[0-9]+,"
    csv = re.sub(column, r"\1wall_time_ns,", stdout)
    return re.sub(r'"wall_time_ns": [0-9]+(?=[,}])', '"wall_time_ns": "wall_time_ns"', csv)


def run_case(command: str) -> str:
    """Run one case in a fresh directory; return the text its golden file holds."""
    argv, out, err, cwd = shlex.split(command), io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        shutil.copytree(INPUTS, tmp, dirs_exist_ok=True)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's refusals
                    code = exc.code
                except Exception:  # reported as the interpreter reports an uncaught one
                    traceback.print_exc()
                    code = 1
            written = [f"wrote: {f} sha256:{hashlib.sha256(Path(f).read_bytes()).hexdigest()}"
                       for f in sorted(set(os.listdir()) - set(os.listdir(INPUTS)))]
        finally:
            os.chdir(cwd)
    return "\n".join([f"$ relaxbench {command}", f"exit: {code}",
                      *(f"stderr: {line}" for line in err.getvalue().splitlines()[-1:]),
                      *(f"warning: {w.category.__name__}: {w.message}" for w in caught),
                      *written, "stdout:", _masked(out.getvalue())])


def _failures(names) -> list[str]:
    """A diff for each named case whose output differs from its golden file."""
    failures = []
    for name in names:
        command = CASES[name]
        want, got = (CORPUS / f"{name}.txt").read_bytes().decode(), run_case(command)
        if got != want:
            diff = difflib.unified_diff(want.splitlines(), got.splitlines(), lineterm="")
            failures.append("\n".join([f"case {name} (-golden +now): relaxbench {command}", *diff]))
    return failures


def test_every_cli_case_equals_its_golden_file():
    assert sorted(p.stem for p in CORPUS.glob("*.txt")) == sorted(CASES)
    named = {token for command in CASES.values() for token in shlex.split(command)}
    inputs = {p.relative_to(INPUTS).as_posix() for p in INPUTS.rglob("*") if p.is_file()}
    assert inputs <= named, f"inputs that no case names: {sorted(inputs - named)}"
    failures = _failures(CASES)
    assert not failures, "\n\n".join(failures)


def test_yen_and_randomized_records_equal_the_golden_file():
    # Yen on the worst-case path under both orderings, and eight randomized seeds on a
    # planted 4-cycle with and without detection: a changed counter shows as a diff.
    failures = _failures(["run-path-yen-ordering-adversarial", "run-path-yen-ordering-identity",
                          "run-planted-30", "run-planted-30-detect-cycles"])
    assert not failures, "\n\n".join(failures)


def test_the_forking_case_reads_the_same_in_one_process(monkeypatch):
    config = TrialConfig(graph=worst_case_path(4000), algorithm="randomized", seeds=range(65))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _process_count(config) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _process_count(config) == 1
    failures = _failures([FORKS])
    assert not failures, "\n\n".join(failures)


def test_lf_and_crlf_files_give_the_same_records_but_their_hash():
    lf, crlf = (re.sub(":sha256:[0-9a-f]{64}", ":sha256:hash", run_case(CASES[name]))
                for name in ("run-lf", "run-crlf"))
    assert lf.replace("lf/", "crlf/", 1) == crlf and crlf.count("file:g.gr:sha256:hash") == 4


if __name__ == "__main__":
    for stale in CORPUS.glob("*.txt"):
        stale.unlink()
    for name, command in CASES.items():
        (CORPUS / f"{name}.txt").write_bytes(run_case(command).encode())
