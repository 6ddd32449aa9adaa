import contextlib
import csv
import io
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxbench import GeneratorSpec, Graph, cli, random_graph, run_randomized, worst_case_path
from relaxbench.cli import (
    ALGORITHMS,
    CSV_HEADER,
    ENGINES,
    OracleMismatchError,
    TrialConfig,
    TrialRecord,
    emit_stats,
    main,
    run_trials,
)
from relaxbench.dimacs import write_dimacs
from relaxbench.generators import KINDS
from relaxbench.graph import MAX_COUNT


def _record(**overrides):
    base = dict(algorithm="basic", seed=0, n=3, m=2, iterations=2, relax_calls=4,
                improvements=2, wall_time_ns=123, negative_cycle_found=False,
                source="gen:test")
    base.update(overrides)
    return TrialRecord(**base)


def test_emit_csv_header_only_for_empty_batch():
    assert emit_stats([], "csv") == CSV_HEADER + "\n"


def test_emit_csv_one_record_two_lines():
    text = emit_stats([_record()], "csv")
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert lines[1] == "basic,0,3,2,2,4,2,123,false,gen:test"


def test_readme_documents_the_record_columns():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if line.startswith("algorithm,")] == [CSV_HEADER]


def test_emit_is_deterministic():
    records = [_record(seed=s) for s in range(5)]
    assert emit_stats(records, "csv") == emit_stats(records, "csv")
    assert emit_stats(records, "json-lines") == emit_stats(records, "json-lines")


def test_run_trials_seed_order_and_strict_count():
    g = random_graph(GeneratorSpec(kind="random-sparse", n=6, m=9, seed=4))
    config = TrialConfig(graph=g, algorithm="basic", seeds=[3, 1, 2],
                         strict_count=True, source_label="x")
    records = run_trials(config)
    assert [r.seed for r in records] == [3, 1, 2]
    assert all(r.relax_calls == g.m * (g.n - 1) for r in records)


def test_run_trials_check_oracle_accepts_correct_engines():
    g = random_graph(GeneratorSpec(kind="random-sparse", n=6, m=8, seed=9,
                                   weight_min=0, weight_max=5))
    for algorithm in ("basic", "adaptive", "yen", "randomized"):
        config = TrialConfig(graph=g, algorithm=algorithm, seeds=[0, 1],
                             check_oracle=True)
        assert len(run_trials(config)) == 2


def test_cli_json_lines_output_to_file(tmp_path):
    out = tmp_path / "records.jsonl"
    rc = main(["run", "--gen", "path-worst-case", "--n", "6",
               "--algorithm", "yen", "--ordering", "adversarial",
               "--format", "json-lines", "--output", str(out)])
    assert rc == 0
    record = json.loads(out.read_text().splitlines()[0])
    assert record["iterations"] == 2 + (6 - 2) // 2
    assert record["source"].startswith("gen:kind=path-worst-case")


def test_cli_has_no_random_yen_ordering(capsys):
    # yen under a seeded random ordering is --algorithm randomized
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--gen", "path-worst-case", "--n", "6", "--algorithm", "yen",
              "--ordering", "random"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'random'" in capsys.readouterr().err
    with pytest.raises(ValueError, match="unknown ordering 'random'"):
        run_trials(TrialConfig(graph=worst_case_path(6), algorithm="yen", seeds=[0],
                               ordering="random"))


# Each flag needs one algorithm, and the adversarial ordering needs the path;
# a contradictory batch is refused before its first trial.
@pytest.mark.parametrize("algorithm, flags, graph, match", [
    *(pytest.param(a, {"detect_cycles": True}, worst_case_path(30), "randomized", id=a)
      for a in ("basic", "adaptive", "yen")),
    pytest.param("adaptive", {"strict_count": True}, worst_case_path(30), "--strict-count",
                 id="strict_count-adaptive"),
    pytest.param("basic", {"ordering": "adversarial"}, worst_case_path(30), "--ordering",
                 id="ordering-basic"),
    pytest.param("yen", {"ordering": "adversarial"},
                 random_graph(GeneratorSpec(kind="random-sparse", n=6, m=9)), "adversarial",
                 id="adversarial-off-path"),
])
def test_run_trials_detect_cycles_requires_randomized(algorithm, flags, graph, match,
                                                      monkeypatch):
    monkeypatch.setitem(ENGINES, algorithm, lambda *args: pytest.fail("a trial ran"))
    config = TrialConfig(graph=graph, algorithm=algorithm, seeds=[0], **flags)
    with pytest.raises(ValueError, match=match):
        run_trials(config)


def test_run_trials_refuses_an_unknown_algorithm_and_a_seed_that_is_no_int():
    with pytest.raises(ValueError, match="^unknown algorithm 'dijkstra'$"):
        run_trials(TrialConfig(graph=worst_case_path(6), algorithm="dijkstra", seeds=[0]))
    for algorithm in ALGORITHMS:
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got 1\.5$"):
            run_trials(TrialConfig(graph=worst_case_path(6), algorithm=algorithm, seeds=[0, 1.5]))


def test_emit_stats_refuses_an_unknown_format():
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        emit_stats([_record()], "xml")


@pytest.mark.parametrize("flag", ["--n=5", "--m=3", "--weight-min=2", "--weight-max=2",
                                  "--graph-seed=4", "--ensure-reachable", "--cycle-length=3",
                                  "--cycle-weight=-1"])
@pytest.mark.parametrize("command", [["run", "--algorithm", "basic"], ["verify"]])
def test_cli_refuses_a_generator_flag_beside_input(tmp_path, capsys, flag, command):
    # Each of these used to be ignored.
    gr = tmp_path / "g.gr"
    write_dimacs(worst_case_path(3), gr)
    assert main([*command, "--input", str(gr), flag]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {flag.partition('=')[0]} needs --gen; "
                   "--input reads the graph from its file\n")


def test_cli_verify_exits_1_on_a_mismatch(capsys, monkeypatch):
    def off_by_one(g, seed, config):
        state, stats = run_randomized(g, seed)[:2]
        state.dist[-1] += 1
        return state, stats

    monkeypatch.setitem(ENGINES, "yen", off_by_one)
    assert main(["verify", "--gen", "path-worst-case", "--n", "5"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "basic: ok", "adaptive: ok", "yen: MISMATCH", "randomized: ok", "detector: ok"]


def test_run_trials_check_oracle_rejects_wrong_distances(monkeypatch):
    def off_by_one(g, seed, config):
        state, stats, _ = run_randomized(g, seed)
        state.dist[-1] += 1
        return state, stats

    monkeypatch.setitem(ENGINES, "randomized", off_by_one)
    config = TrialConfig(graph=worst_case_path(5), algorithm="randomized", seeds=[0],
                         check_oracle=True)
    with pytest.raises(OracleMismatchError, match="fails its certificate"):
        run_trials(config)


def test_cli_verify_every_engine_and_the_detector_against_floyd_warshall(tmp_path, capsys):
    # Negative arcs and self-loops, no negative cycle: all four engines run.
    gr = tmp_path / "loops.gr"
    gr.write_text("p sp 4 6\na 1 2 3\na 2 2 1\na 2 3 -2\na 1 3 2\na 3 4 -1\na 4 4 0\n")
    assert main(["verify", "--input", str(gr)]) == 0
    assert capsys.readouterr().out == (
        "graph: n=4 m=6 (file:loops.gr:sha256:"
        "c9855c6776d02c34ec23410d9e1fcc4f49498d65825b0f9c0ae8adbf986b49bd)\n"
        "basic: ok\nadaptive: ok\nyen: ok\nrandomized: ok\ndetector: ok\n")
    assert main(["verify", "--gen", "planted-cycle", "--n", "120", "--m", "600",
                 "--cycle-length", "4", "--cycle-weight", "-1"]) == 0
    assert capsys.readouterr().out == (
        "graph: n=120 m=604 (gen:kind=planted-cycle;n=120;m=600;seed=0;cycle_length=4;"
        "cycle_weight=-1)\n"
        "oracle: negative cycle reachable from source\n"
        "detector: ok (found=True, iterations=62)\n")


def test_cli_finds_and_certifies_a_reachable_negative_self_loop(tmp_path, capsys):
    # No pass relaxes a self-loop, so the detectors scan for this one after converging.
    gr = tmp_path / "negloop.gr"
    gr.write_text("p sp 2 2\na 1 2 1\na 2 2 -1\n")
    label = "file:negloop.gr:sha256:c62c65ce13c4e39100f13ea9338fbea8869ff30f6f2b4419084ca1edf045c765"
    assert main(["verify", "--input", str(gr)]) == 0
    assert capsys.readouterr().out == (
        f"graph: n=2 m=2 ({label})\n"
        "oracle: negative cycle reachable from source\n"
        "detector: ok (found=True, iterations=2)\n")
    assert main(["run", "--input", str(gr), "--algorithm", "randomized", "--detect-cycles",
                 "--check-oracle"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == CSV_HEADER
    record = dict(zip(header.split(","), row.split(",")))
    assert record.pop("wall_time_ns").isdigit()
    assert record == dict(algorithm="randomized", seed="0", n="2", m="2", iterations="2",
                          relax_calls="1", improvements="1", negative_cycle_found="true",
                          source=label)


def _csv_round_trip(tmp_path, capsys, name):
    gr = tmp_path / name
    write_dimacs(worst_case_path(4), gr)
    args = ["run", "--input", str(gr), "--algorithm", "basic"]
    assert main(args) == 0
    header, row = csv.reader(io.StringIO(capsys.readouterr().out, newline=""))
    assert main([*args, "--format", "json-lines"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert header == CSV_HEADER.split(",")
    assert record["source"].startswith(f"file:{name}:")
    parsed, expected = dict(zip(header, row)), {k: str(v) for k, v in record.items()}
    expected["negative_cycle_found"] = "false"
    parsed.pop("wall_time_ns"), expected.pop("wall_time_ns")
    assert parsed == expected


def test_cli_csv_quotes_a_comma_in_the_source_label(tmp_path, capsys):
    _csv_round_trip(tmp_path, capsys, "a,b.gr")


def test_cli_csv_quotes_a_carriage_return_in_the_source_label(tmp_path, capsys):
    # Before Python 3.13 the stdlib csv writer left this field unquoted.
    _csv_round_trip(tmp_path, capsys, "cr\rx.gr")


@pytest.mark.parametrize("label", ["gen:plain", "a,b", 'say "hi"', "two\nlines", ""])
def test_emit_csv_quotes_like_the_csv_writer(label):
    record = _record(source=label)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(
        ("true" if v else "false") if isinstance(v, bool) else v
        for v in (getattr(record, name) for name in CSV_HEADER.split(",")))
    assert emit_stats([record], "csv") == CSV_HEADER + "\n" + out.getvalue()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cli_refuses_a_negative_seed_for_every_algorithm(algorithm, capsys, monkeypatch):
    # basic, adaptive and yen read no seed, and used to run seeds -3 and -2.
    monkeypatch.setitem(ENGINES, algorithm, lambda *args: pytest.fail("a trial ran"))
    assert main(["run", "--gen", "path-worst-case", "--n", "6", "--algorithm", algorithm,
                 "--seeds=-3:-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be a non-negative integer, got -3\n"


def _masked(records):
    return [r._replace(wall_time_ns=0) for r in records]


@pytest.fixture
def two_cpus(monkeypatch):
    """Make a batch of two or more seeds fork, whatever the host's CPU count and its size."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli, "PARALLEL_MIN_EDGE_TRIALS", 1)


@pytest.mark.parametrize("config", [
    TrialConfig(graph=random_graph(GeneratorSpec(kind="planted-cycle", n=30, m=90, seed=2,
                                                 cycle_length=4, cycle_weight=-1)),
                algorithm="randomized", seeds=list(range(6)), detect_cycles=True,
                check_oracle=True),
    TrialConfig(graph=worst_case_path(100), algorithm="randomized", seeds=list(range(6))),
], ids=["planted-detect", "path"])
def test_run_trials_batch_equals_single_seed_batches(config, two_cpus):
    batch = run_trials(config)
    singles = [r for seed in config.seeds for r in run_trials(config._replace(seeds=[seed]))]
    assert [r.seed for r in batch] == list(config.seeds)
    assert _masked(batch) == _masked(singles)
    assert all(r.wall_time_ns > 0 for r in batch)


def test_run_trials_raises_for_the_first_failing_seed(monkeypatch, two_cpus):
    # Seeds 0 and 2 run in this process, 1 and 3 in the worker.
    def wrong_from_seed_1(g, seed, config):
        state, stats, _ = run_randomized(g, seed)
        if seed >= 1:
            state.dist[-1] += 1
        return state, stats

    monkeypatch.setitem(ENGINES, "randomized", wrong_from_seed_1)
    config = TrialConfig(graph=worst_case_path(5), algorithm="randomized", seeds=[0, 1, 2, 3],
                         check_oracle=True)
    with pytest.raises(OracleMismatchError, match="^seed 1: ") as excinfo:
        run_trials(config)
    # Seed 1 ran again here: the exception and its traceback are this process's own.
    assert excinfo.value.__cause__ is None
    assert "_trial" in [entry.name for entry in excinfo.traceback]


class TwoArgError(Exception):
    """An exception that does not unpickle: pickle rebuilds it from its one arg."""

    def __init__(self, seed, why):
        super().__init__(f"seed {seed}: {why}")


def test_run_trials_raises_a_worker_exception_that_does_not_unpickle(monkeypatch, two_cpus):
    basic = ENGINES["basic"]

    def fails_at_seed_1(g, seed, config):
        if seed == 1:
            raise TwoArgError(seed, "two arguments")
        return basic(g, seed, config)

    monkeypatch.setitem(ENGINES, "basic", fails_at_seed_1)
    config = TrialConfig(graph=worst_case_path(5), algorithm="basic", seeds=[0, 1, 2, 3])
    with pytest.raises(TwoArgError, match="^seed 1: two arguments$"):
        run_trials(config)


def test_the_command_prints_a_warning_without_a_source_location(tmp_path):
    # The iteration cap's warning comes from a line of the engine table,
    # which tells the command's user nothing; main(), a library call, keeps
    # Python's own format.
    argv = ["run", "--gen", "planted-cycle", "--n", "30", "--m", "120", "--cycle-length", "4",
            "--cycle-weight", "-1", "--algorithm", "adaptive"]
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "relaxbench.cli", *argv], capture_output=True,
                          text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("relaxbench: RuntimeWarning: run_adaptive: iteration cap 31 hit with "
                           "work remaining; the input likely has a negative cycle reachable "
                           "from the source\n")
    formatwarning = warnings.formatwarning
    with warnings.catch_warnings(record=True), contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert warnings.formatwarning is formatwarning


def test_run_trials_reissues_worker_warnings_in_the_caller(two_cpus):
    g = random_graph(GeneratorSpec(kind="planted-cycle", n=20, m=60, seed=1,
                                   cycle_length=3, cycle_weight=-1))
    config = TrialConfig(graph=g, algorithm="yen", seeds=[0, 1])
    with pytest.warns(RuntimeWarning, match="iteration cap 21 hit") as caught:
        records = run_trials(config)
    assert [r.seed for r in records] == [0, 1]
    caught = [(w.category, w.filename, w.lineno) for w in caught]
    assert len(caught) == 2 and caught[0] == caught[1]  # the worker's names the same place
    # Under the default filter a batch shows it once, as one process would.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        run_trials(config)
    assert len(caught) == 1


@pytest.mark.parametrize("action, shown, ran_here", [
    ("default", 1, [0, 1, 2]),
    ("always", 4, [0, 1, 2, 3]),
    ("ignore", 0, [0, 2]),
], ids=["default", "always", "ignore"])
def test_run_trials_replays_the_worker_trials_whose_warnings_would_show(
        monkeypatch, two_cpus, action, shown, ran_here):
    # Every trial warns.  Seeds 0 and 2 run here; the worker's 1 and 3 run
    # here again if the filters show their warning, and their appends to
    # ``ran`` in the worker stay there.
    basic, ran = ENGINES["basic"], []

    def warns(g, seed, config):
        ran.append(seed)
        warnings.warn("every trial warns", RuntimeWarning)
        return basic(g, seed, config)

    monkeypatch.setitem(ENGINES, "basic", warns)
    config = TrialConfig(graph=worst_case_path(5), algorithm="basic", seeds=[0, 1, 2, 3])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        records = run_trials(config)
    assert [r.seed for r in records] == [0, 1, 2, 3]
    assert (len(caught), ran) == (shown, ran_here)


def _batch_pids(config):
    """Run a batch whose records carry the pid that ran them; return the caller's and theirs."""
    records = run_trials(config)
    assert [r.seed for r in records] == list(config.seeds)
    return os.getpid(), {r.relax_calls for r in records}


@pytest.mark.parametrize("cpus, setting, in_process", [
    ({0}, "", True),
    ({0, 1}, "", False),
    ({0, 1}, "small batch", True),
    ({0, 1}, "thread running", True),
    ({0, 1}, "multiprocessing worker", True),
], ids=["one-cpu", "two-cpus", "small-batch", "thread-running", "multiprocessing-worker"])
def test_run_trials_uses_the_cpu_affinity_mask(monkeypatch, cpus, setting, in_process):
    # Each record's relax_calls is the id of the process that ran its trial.
    basic = ENGINES["basic"]

    def report_pid(g, seed, config):
        state, stats = basic(g, seed, config)
        return state, stats._replace(relax_calls=os.getpid())

    monkeypatch.setitem(ENGINES, "basic", report_pid)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    if setting != "small batch":  # 4 seeds of a 4-edge path
        monkeypatch.setattr(cli, "PARALLEL_MIN_EDGE_TRIALS", 1)
    config = TrialConfig(graph=worst_case_path(5), algorithm="basic", seeds=[0, 1, 2, 3])
    if setting == "thread running":
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            caller, pids = _batch_pids(config)
        finally:
            stop.set()
            thread.join()
    elif setting == "multiprocessing worker":  # daemonic, and its parent spreads the work
        with multiprocessing.get_context("fork").Pool(1) as pool:
            caller, pids = pool.apply_async(_batch_pids, (config,)).get(timeout=60)
    else:
        caller, pids = _batch_pids(config)
    assert (pids == {caller}) == in_process


def test_a_batch_forks_only_from_twice_the_break_even(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # The benchmark's two-seed detection batch on a complete 150-vertex graph
    # with its planted cycle: 22,355 arcs.
    dense = TrialConfig(graph=Graph(150, ((0, 1, 1.0),) * 22_355), algorithm="randomized",
                        seeds=[0, 1])
    assert cli._process_count(dense) == 1
    at_twice = dense._replace(graph=Graph(2, ((0, 1, 1.0),) * cli.PARALLEL_MIN_EDGE_TRIALS))
    assert cli._process_count(at_twice) == 2


def test_run_trials_reports_a_killed_worker(monkeypatch, two_cpus):
    parent, basic = os.getpid(), ENGINES["basic"]

    def killed_at_seed_1(g, seed, config):
        if seed == 1 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return basic(g, seed, config)

    monkeypatch.setitem(ENGINES, "basic", killed_at_seed_1)
    config = TrialConfig(graph=worst_case_path(5), algorithm="basic", seeds=[0, 1, 2, 3])
    with pytest.raises(RuntimeError, match="seed 1 exited with code -9"):
        run_trials(config)


# The exit-code contract over hostile input.  Every graph has at most 8
# vertices and every seed range at most 4 seeds, so seeds * m stays far below
# PARALLEL_MIN_EDGE_TRIALS and no batch forks.  Every huge value is negative or
# above graph.MAX_COUNT, the first just above it, so a vertex or arc count drawn
# from them is refused before any per-vertex allocation.
_MUTANTS = ("nan", "inf", "-inf", "1e3", "0x10", "1.5", "-1", "0", "é")
_HUGE = (str(MAX_COUNT + 1), str(10**10), str(2**64), str(2**1100), str(-2**1100))
_INTS = st.sampled_from(("-3", "-1", "0", "1", "2", "5") + _HUGE)
_GEN_FLAGS = {
    "--n": st.sampled_from(("-1", "0", "1", "2", "5", "8") + _HUGE),
    "--m": st.sampled_from(("-1", "0", "3", "10", "60") + _HUGE),
    "--weight-min": _INTS,
    "--weight-max": _INTS,
    "--graph-seed": _INTS,
    "--cycle-length": st.sampled_from(("-1", "0", "1", "3", "9")),
    "--cycle-weight": _INTS,
    "--ensure-reachable": None,  # a switch
}
_RUN_FLAGS = {
    "--ordering": st.sampled_from(("identity", "adversarial")),
    "--format": st.sampled_from(("csv", "json-lines")),
}
_SWITCHES = ("--check-oracle", "--detect-cycles", "--strict-count", "--fail-on-cycle")
_SEEDS = st.one_of(
    st.builds("--seed={}".format, _INTS),
    st.builds("--seeds={}".format, st.sampled_from(
        ("0:4", "2:4", "5:5", "3:1", "x", "0:", "-2:1", f"{2**64}:{2**64 + 2}"))))
# Each option name, in its flag and its field spelling, and "line": one of
# them names what an exit 2 refused.
_NAMES = re.compile(r"\b(line|input|source|gen|n|m|weight|min|max|weight_min|weight_max"
                    r"|graph|seed|seeds|ensure_reachable|cycle|length|cycle_length|cycle_weight"
                    r"|algorithm|ordering|detect|fail|format|output)\b")


@st.composite
def _dimacs_bytes(draw):
    n = draw(st.integers(1, 5))
    arcs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n), st.integers(-4, 9)),
                         max_size=8))
    lines = [["p", "sp", str(n), str(len(arcs))], *(["a", *map(str, arc)] for arc in arcs)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("duplicate problem line", "duplicate line", "mutate")))
        if edit == "mutate":
            lines[i][draw(st.integers(1, 3))] = draw(st.sampled_from(_MUTANTS + _HUGE))
        else:
            copied = lines[0] if edit == "duplicate problem line" else lines[i]
            lines.insert(draw(st.integers(0, len(lines))), list(copied))
    return "".join(" ".join(tokens) + "\n" for tokens in lines).encode("utf-8")


@st.composite
def _cli_argv(draw, gr, out):
    """An argument list for ``main`` and the bytes of the DIMACS file ``gr``, if it reads one."""
    command = draw(st.sampled_from(("run", "verify", "generate")))
    argv, data = [command], None
    flags = dict(_GEN_FLAGS)
    if command != "generate" and draw(st.booleans()):
        data = draw(_dimacs_bytes())
        argv += ["--input", str(gr)]
        if draw(st.booleans()):
            argv.append(f"--source={draw(st.sampled_from(('0', '1', '3', '9') + _HUGE))}")
        odds = 15  # now and then a generator flag, which --input refuses
    else:
        argv += ["--gen", draw(st.sampled_from(KINDS)), f"--n={draw(flags.pop('--n'))}"]
        odds = 2
    for flag, values in flags.items():
        if draw(st.integers(0, odds)) == 0:
            argv.append(flag if values is None else f"{flag}={draw(values)}")
    if command == "run":
        argv += ["--algorithm", draw(st.sampled_from(ALGORITHMS))]
        for flag, values in _RUN_FLAGS.items():
            if draw(st.integers(0, 3)) == 0:
                argv.append(f"{flag}={draw(values)}")
        argv += [s for s in _SWITCHES if draw(st.integers(0, 2)) == 0]
    if command in ("run", "verify") and draw(st.booleans()):
        argv.append(draw(_SEEDS) if command == "run" else f"--seed={draw(_INTS)}")
    if command == "verify" and draw(st.booleans()):
        argv.append("--fail-on-cycle")
    if command == "generate" or command == "run" and draw(st.integers(0, 3)) == 0:
        argv += ["--output", str(out)]
    return argv, data


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_main_keeps_its_exit_code_contract_on_hostile_input(tmp_path_factory, data):
    base = tmp_path_factory.getbasetemp()
    argv, gr = data.draw(_cli_argv(base / "hostile.gr", base / "hostile.out"))
    if gr is not None:
        (base / "hostile.gr").write_bytes(gr)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2, 3)
    if gr is not None and any(a.partition("=")[0] in _GEN_FLAGS for a in argv):
        assert rc == 2 and "needs --gen" in err.getvalue()
    if rc == 2:
        assert out.getvalue() == ""
        [line] = err.getvalue().splitlines()
        assert line.startswith("error: ") and _NAMES.search(line[7:]), line
