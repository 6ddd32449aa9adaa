import contextlib
import csv
import io
import json
import math
import multiprocessing
import os
import re
import signal
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxbench import GeneratorSpec, cli, random_graph, run_randomized, worst_case_path
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
from relaxbench.dimacs import load_dimacs, write_dimacs
from relaxbench.generators import KINDS


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


@pytest.mark.parametrize("source", ["input", "gen"])
def test_cli_refuses_a_vertex_count_no_list_can_index(tmp_path, capsys, source):
    # A problem line of 2**64 vertices used to load, and the engine then
    # raised OverflowError; --n 2**64 built its path until memory ran out.
    if source == "input":
        (tmp_path / "huge.gr").write_text(f"p sp {2**64} 0\n")
        graph, message = ["--input", str(tmp_path / "huge.gr")], "line 1: vertex count"
    else:
        graph, message = ["--gen", "path-worst-case", f"--n={2**64}"], "n = "
    assert main(["run", *graph, "--algorithm", "basic"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}") and "sys.maxsize" in err


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
    record = _record(source=label)
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
    assert "path-worst-case takes no m" in capsys.readouterr().err


def test_cli_negative_graph_seed_exits_two(capsys):
    rc = main(["run", "--gen", "random-sparse", "--n", "6", "--m", "10",
               "--graph-seed", "-3", "--algorithm", "randomized"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be a non-negative integer, got -3\n"


def test_cli_verify_refuses_a_negative_seed_before_any_output(capsys):
    # verify used to print its graph line before the detector refused the seed.
    assert main(["verify", "--gen", "path-worst-case", "--n", "4", "--seed=-3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be a non-negative integer\n"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cli_refuses_a_negative_seed_for_every_algorithm(algorithm, capsys, monkeypatch):
    # basic, adaptive and yen read no seed, and used to run seeds -3 and -2.
    monkeypatch.setitem(ENGINES, algorithm, lambda *args: pytest.fail("a trial ran"))
    assert main(["run", "--gen", "path-worst-case", "--n", "6", "--algorithm", algorithm,
                 "--seeds=-3:-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be a non-negative integer, got -3\n"


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


# The exit-code contract over hostile input.  Every graph has at most 8
# vertices and every seed range at most 4 seeds, so seeds * m stays far below
# PARALLEL_MIN_EDGE_TRIALS and no batch forks.  Every huge value is negative or
# above sys.maxsize, so a vertex count drawn from them is refused before any
# per-vertex allocation.
_MUTANTS = ("nan", "inf", "-inf", "1e3", "0x10", "1.5", "-1", "0", "é")
_HUGE = (str(2**64), str(2**1100), str(-2**1100))
_INTS = st.sampled_from(("-3", "-1", "0", "1", "2", "5") + _HUGE)
_GEN_FLAGS = {
    "--m": st.sampled_from(("-1", "0", "3", "10", "60") + _HUGE),
    "--weight-min": _INTS,
    "--weight-max": _INTS,
    "--graph-seed": _INTS,
    "--cycle-length": st.sampled_from(("-1", "0", "1", "3", "9")),
    "--cycle-weight": _INTS,
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
    if command != "generate" and draw(st.booleans()):
        data = draw(_dimacs_bytes())
        argv += ["--input", str(gr)]
        if draw(st.booleans()):
            argv.append(f"--source={draw(st.sampled_from(('0', '1', '3', '9') + _HUGE))}")
    else:
        argv += ["--gen", draw(st.sampled_from(KINDS)),
                 f"--n={draw(st.sampled_from(('-1', '0', '1', '2', '5', '8') + _HUGE))}"]
        for flag, values in _GEN_FLAGS.items():
            if draw(st.integers(0, 2)) == 0:
                argv.append(f"{flag}={draw(values)}")
        if draw(st.booleans()):
            argv.append("--ensure-reachable")
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
    if rc == 2:
        assert out.getvalue() == ""
        [line] = err.getvalue().splitlines()
        assert line.startswith("error: ") and _NAMES.search(line[7:]), line
