import csv
import io
import json
import math
import multiprocessing
import os
import signal
import threading
import warnings
from dataclasses import replace

import pytest

from relaxbench import GeneratorSpec, cli, random_graph, run_randomized, worst_case_path
from relaxbench.cli import (
    CSV_HEADER,
    ENGINES,
    OracleMismatchError,
    TrialConfig,
    TrialRecord,
    emit_stats,
    main,
    run_trials,
)
from relaxbench.dimacs import load_dimacs, write_dimacs


def _record(**overrides):
    base = dict(algorithm="basic", seed=0, n=3, m=2, iterations=2, relax_calls=4,
                improvements=2, wall_time_ns=123, negative_cycle_found=False,
                c=2.0, source="gen:test")
    base.update(overrides)
    return TrialRecord(**base)


def test_emit_csv_header_only_for_empty_batch():
    assert emit_stats([], "csv") == CSV_HEADER + "\n"


def test_emit_csv_one_record_two_lines():
    text = emit_stats([_record()], "csv")
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert lines[1] == "basic,0,3,2,2,4,2,123,false,2.0,gen:test"


def test_emit_is_deterministic():
    records = [_record(seed=s) for s in range(5)]
    assert emit_stats(records, "csv") == emit_stats(records, "csv")
    assert emit_stats(records, "json-lines") == emit_stats(records, "json-lines")


def test_emit_json_lines_field_names():
    text = emit_stats([_record()], "json-lines")
    obj = json.loads(text.splitlines()[0])
    assert list(obj) == CSV_HEADER.split(",")
    assert obj["negative_cycle_found"] is False


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


def test_cli_generate_then_run_round_trip(tmp_path, capsys):
    out = tmp_path / "path.gr"
    rc = main(["generate", "--gen", "path-worst-case", "--n", "8",
               "--output", str(out)])
    assert rc == 0
    g = load_dimacs(out)
    assert g.edges == worst_case_path(8).edges

    rc = main(["run", "--input", str(out), "--algorithm", "randomized",
               "--seeds", "0:5", "--check-oracle"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    data_lines = [l for l in lines if l.startswith("randomized")]
    assert len(data_lines) == 5
    assert [int(l.split(",")[1]) for l in data_lines] == [0, 1, 2, 3, 4]


def test_cli_json_lines_output_to_file(tmp_path):
    out = tmp_path / "records.jsonl"
    rc = main(["run", "--gen", "path-worst-case", "--n", "6",
               "--algorithm", "yen", "--ordering", "adversarial",
               "--format", "json-lines", "--output", str(out)])
    assert rc == 0
    record = json.loads(out.read_text().splitlines()[0])
    assert record["iterations"] == 2 + (6 - 2) // 2
    assert record["source"].startswith("gen:kind=path-worst-case")


def test_cli_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p sp 2 2\na 1 2 5\n")
    rc = main(["run", "--input", str(bad), "--algorithm", "basic"])
    assert rc == 2
    assert "arc count mismatch" in capsys.readouterr().err


def test_cli_weight_too_large_for_a_float_exits_two(tmp_path, capsys):
    bad = tmp_path / "big.gr"
    bad.write_text(f"p sp 2 1\na 1 2 {10**400}\n")
    assert main(["run", "--input", str(bad), "--algorithm", "basic"]) == 2
    assert "line 2: weight too large for a float" in capsys.readouterr().err


def test_cli_negative_cycle_paths(tmp_path, capsys):
    args = ["--gen", "planted-cycle", "--n", "8", "--m", "12",
            "--cycle-length", "3", "--cycle-weight", "-2"]
    rc = main(["run", *args, "--algorithm", "randomized", "--detect-cycles",
               "--seed", "0", "--fail-on-cycle"])
    assert rc == 3
    out = capsys.readouterr().out
    assert ",true," in out

    # verifying engine distances against the oracle is impossible here
    with pytest.warns(RuntimeWarning, match="run_randomized: iteration cap"):
        rc = main(["run", *args, "--algorithm", "randomized", "--check-oracle"])
    assert rc == 1
    assert "negative cycle" in capsys.readouterr().err

    # detection plus oracle check: verdicts must agree with the oracle
    rc = main(["run", *args, "--algorithm", "randomized", "--detect-cycles",
               "--check-oracle"])
    assert rc == 0


def test_cli_check_oracle_failure_with_work_remaining_advises_a_command_that_runs(capsys):
    # basic has no iteration cap; its run ends with distances still changing,
    # and the advice is a detection run, which every input allows.
    args = ["run", "--gen", "planted-cycle", "--n", "8", "--m", "12",
            "--cycle-length", "3", "--cycle-weight", "-2", "--check-oracle"]
    assert main([*args, "--algorithm", "basic"]) == 1
    err = capsys.readouterr().err
    assert "iteration cap" not in err
    assert "stopped with distances still changing" in err
    assert "(rerun with --algorithm randomized --detect-cycles)" in err
    assert main([*args, "--algorithm", "randomized", "--detect-cycles"]) == 0


def test_cli_detect_cycles_requires_randomized(capsys):
    rc = main(["run", "--gen", "path-worst-case", "--n", "6",
               "--algorithm", "basic", "--detect-cycles"])
    assert rc == 2


@pytest.mark.parametrize("algorithm", ["basic", "adaptive", "yen", "randomized"])
def test_cli_c_requires_detect_cycles(algorithm, capsys):
    args = ["run", "--gen", "path-worst-case", "--n", "6", "--algorithm", algorithm]
    assert main([*args, "--c", "5"]) == 2
    assert "--c" in capsys.readouterr().err
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[9] == "2.0"


def test_cli_c_reaches_the_detection_record(capsys):
    assert main(["run", "--gen", "path-worst-case", "--n", "6", "--algorithm", "randomized",
                 "--detect-cycles", "--c", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[9] == "5.0"


@pytest.mark.parametrize("command, n, c", [
    ("run", 1, "-5"), ("run", 1, "0"), ("verify", 1, "-5"),
    *((command, 2, c) for command in ("run", "verify") for c in ("inf", "-inf", "nan"))])
def test_cli_refuses_c_that_is_not_positive_and_finite(tmp_path, capsys, command, n, c):
    # One vertex used to skip the check; inf and nan used to escape as other errors.
    # A refused c writes nothing to stdout: verify used to print its graph line first.
    path = tmp_path / "g.gr"
    path.write_text("p sp 1 0\n" if n == 1 else "p sp 2 1\na 1 2 3\n")
    args = ["--algorithm", "randomized", "--detect-cycles"] if command == "run" else []
    assert main([command, "--input", str(path), *args, f"--c={c}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"error: c must be positive and finite, got {float(c)}"


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


def test_cli_check_oracle_has_no_vertex_cap(capsys):
    rc = main(["run", "--gen", "path-worst-case", "--n", "300", "--algorithm", "randomized",
               "--seeds", "0:3", "--check-oracle"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_cli_verify_clean_and_planted(tmp_path, capsys):
    rc = main(["verify", "--gen", "random-sparse", "--n", "6", "--m", "9",
               "--graph-seed", "2", "--weight-min", "0", "--weight-max", "5"])
    assert rc == 0
    assert "ok" in capsys.readouterr().out

    rc = main(["verify", "--gen", "planted-cycle", "--n", "8", "--m", "12",
               "--cycle-length", "3", "--cycle-weight", "-2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "negative cycle reachable" in out

    rc = main(["verify", "--gen", "planted-cycle", "--n", "8", "--m", "12",
               "--cycle-length", "3", "--cycle-weight", "-2", "--fail-on-cycle"])
    assert rc == 3


def test_cli_verify_refuses_graphs_above_the_oracle_cap(capsys):
    assert main(["verify", "--gen", "path-worst-case", "--n", "257"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "256" in err


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
    record = _record(source=label, c=0.5)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(
        ("true" if v else "false") if isinstance(v, bool) else v
        for v in (getattr(record, name) for name in CSV_HEADER.split(",")))
    assert emit_stats([record], "csv") == CSV_HEADER + "\n" + out.getvalue()


def test_cli_source_flag_selects_external_id(tmp_path, capsys):
    # path 1 -> 2 -> 3 in external ids; with source 2, vertex 1 is unreached
    gr = tmp_path / "p.gr"
    gr.write_text("p sp 3 2\na 1 2 1\na 2 3 1\n")
    rc = main(["verify", "--input", str(gr), "--source", "2"])
    assert rc == 0
    assert main(["verify", "--input", str(gr), "--source", "9"]) == 2


def test_cli_source_with_gen_exits_two(capsys):
    rc = main(["run", "--gen", "path-worst-case", "--n", "5", "--source", "3",
               "--algorithm", "randomized"])
    assert rc == 2
    assert "--source needs --input" in capsys.readouterr().err


def test_cli_generator_flag_the_kind_ignores_exits_two(capsys):
    rc = main(["run", "--gen", "path-worst-case", "--n", "5", "--m", "40",
               "--cycle-length", "3", "--algorithm", "randomized"])
    assert rc == 2
    assert "path-worst-case takes neither m nor density" in capsys.readouterr().err


def test_cli_seeds_syntax_errors(capsys):
    rc = main(["run", "--gen", "path-worst-case", "--n", "4",
               "--algorithm", "basic", "--seeds", "nope"])
    assert rc == 2


@pytest.mark.parametrize("seeds", ["5:5", "7:3"])
def test_cli_empty_seed_range_exits_two(seeds, capsys):
    rc = main(["run", "--gen", "path-worst-case", "--n", "4",
               "--algorithm", "randomized", "--seeds", seeds])
    assert rc == 2
    assert "empty" in capsys.readouterr().err


# --ordering needs --algorithm yen, and --strict-count needs basic.
@pytest.mark.parametrize("algorithm, flags", [
    *(pytest.param(a, ["--ordering", "adversarial"], id=a)
      for a in ("basic", "adaptive", "randomized")),
    pytest.param("yen", ["--strict-count"], id="strict-count"),
])
def test_cli_ordering_requires_yen(algorithm, flags, capsys):
    args = ["run", "--gen", "path-worst-case", "--n", "4", "--algorithm", algorithm]
    rc = main([*args, *flags])
    assert rc == 2
    assert flags[0] in capsys.readouterr().err
    assert main(args) == 0


def test_cli_adversarial_ordering_requires_the_path(tmp_path, capsys):
    args = ["--algorithm", "yen", "--ordering", "adversarial"]
    rc = main(["run", "--gen", "random-sparse", "--n", "6", "--m", "9", *args])
    assert rc == 2
    assert "adversarial" in capsys.readouterr().err
    # the path with any weights is accepted; a missing edge or a source other
    # than 0 is not
    gr = tmp_path / "p.gr"
    gr.write_text("p sp 4 3\na 1 2 -5\na 2 3 7\na 3 4 0\n")
    assert main(["run", "--input", str(gr), *args]) == 0
    assert main(["run", "--input", str(gr), "--source", "2", *args]) == 2
    gr.write_text("p sp 4 2\na 1 2 1\na 2 3 1\n")
    assert main(["run", "--input", str(gr), *args]) == 2


def test_cli_requires_exactly_one_graph_source(tmp_path, capsys):
    rc = main(["run", "--algorithm", "basic"])
    assert rc == 2
    out = tmp_path / "p.gr"
    write_dimacs(worst_case_path(4), out)
    rc = main(["run", "--input", str(out), "--gen", "path-worst-case", "--n", "4",
               "--algorithm", "basic"])
    assert rc == 2
    rc = main(["generate", "--input", str(out), "--gen", "path-worst-case", "--n", "4",
               "--output", str(tmp_path / "q.gr")])
    assert rc == 2
    assert not (tmp_path / "q.gr").exists()


def test_run_trials_statistical_example_on_long_path():
    # 1000 randomized trials on the 100-vertex path: the record batch carries
    # the iteration statistics that the analysis predicts.
    g = worst_case_path(100)
    records = run_trials(TrialConfig(graph=g, algorithm="randomized",
                                     seeds=range(1000), source_label="path100"))
    assert len(records) == 1000
    counts = [r.iterations for r in records]
    mean = sum(counts) / len(counts)
    var = sum((x - mean) ** 2 for x in counts) / (len(counts) - 1)
    se = math.sqrt(var / len(counts))
    assert abs(mean - 103 / 3) <= 4 * se


def test_run_trials_adversarial_ordering_on_long_path():
    g = worst_case_path(100)
    records = run_trials(TrialConfig(graph=g, algorithm="yen",
                                     ordering="adversarial", seeds=[0]))
    assert records[0].iterations >= 48


def test_cli_wall_time_is_only_nondeterminism(tmp_path):
    args = ["run", "--gen", "random-sparse", "--n", "10", "--m", "20",
            "--graph-seed", "5", "--weight-min", "0", "--weight-max", "7",
            "--algorithm", "randomized", "--seeds", "0:10",
            "--format", "json-lines"]
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main([*args, "--output", str(out1)]) == 0
    assert main([*args, "--output", str(out2)]) == 0
    for line1, line2 in zip(out1.read_text().splitlines(), out2.read_text().splitlines()):
        a, b = json.loads(line1), json.loads(line2)
        a.pop("wall_time_ns"), b.pop("wall_time_ns")
        assert a == b


def _masked(records):
    return [replace(r, wall_time_ns=0) for r in records]


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
    singles = [r for seed in config.seeds for r in run_trials(replace(config, seeds=[seed]))]
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
    worker_traceback = str(excinfo.value.__cause__)
    assert "in _trial" in worker_traceback and "OracleMismatchError: seed 1: " in worker_traceback


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


def _batch_pids(config):
    """Run a batch whose trials warn with their pid; return the caller's pid and theirs."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = run_trials(config)
    assert [r.seed for r in records] == list(config.seeds)
    assert len(caught) == len(config.seeds)
    return os.getpid(), {str(w.message) for w in caught}


@pytest.mark.parametrize("cpus, setting, in_process", [
    ({0}, "", True),
    ({0, 1}, "", False),
    ({0, 1}, "small batch", True),
    ({0, 1}, "thread running", True),
    ({0, 1}, "multiprocessing worker", True),
], ids=["one-cpu", "two-cpus", "small-batch", "thread-running", "multiprocessing-worker"])
def test_run_trials_uses_the_cpu_affinity_mask(monkeypatch, cpus, setting, in_process):
    # Each trial warns with the id of the process that ran it.
    basic = ENGINES["basic"]

    def report_pid(g, seed, config):
        warnings.warn(f"pid {os.getpid()}")
        return basic(g, seed, config)

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
    assert (pids == {f"pid {caller}"}) == in_process


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
