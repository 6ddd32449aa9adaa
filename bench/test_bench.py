"""Self-tests for the benchmark: tiny runs pass their checks, wrong references fail ops.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import calibrate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

TINY = {
    "path-2000": {"n": 30},
    "sparse-2000": {"n": 60, "m": 240},
    "dense-detect-cli": {"n": 12, "cycle_length": 3},
}


def tiny_run(name: str, tmp_path: Path, trace: int, seed: int = 3, wl=None):
    if wl is None:
        wl = workloads.make_workload(name, seed, tmp_path, REPO / "src", **TINY[name])
    args = argparse.Namespace(seed=seed, seconds=0.05, trace=trace)
    return run.run(wl, args, Tracer() if trace else NullTracer(), tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_its_checks(name, trace, tmp_path):
    result, report = tiny_run(name, tmp_path, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["failed_frac"] == 0.0
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(expected)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and metric["unit"]
    if trace:
        assert report["metrics"]["engines.relax_calls"]["value"] > 0
        lines = next(tmp_path.glob("trace-*.jsonl")).read_text().splitlines()
        assert {"op", "replay", "setup"} <= {json.loads(line)["name"] for line in lines}


def test_trace_reports_layers_of_the_cli_workload(tmp_path):
    _, report = tiny_run("dense-detect-cli", tmp_path, trace=1)
    metrics = report["metrics"]
    for name in ("oracle.fw_ms", "dimacs.load_ms", "cli.startup_ms", "negcycle.detect_ms"):
        assert metrics[name]["value"] > 0, name
    assert metrics["dimacs.bytes"]["value"] > 0
    assert 0 < metrics["negcycle.useful_iter_frac"]["value"] <= 1


def test_wrong_dijkstra_reference_fails_ops_without_crashing(tmp_path, monkeypatch):
    right = reference.dijkstra

    def off_by_one(n, edges, source):
        return [None if d is None else d + 1 for d in right(n, edges, source)]

    monkeypatch.setattr(workloads.reference, "dijkstra", off_by_one)
    result, report = tiny_run("sparse-2000", tmp_path, trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert report["failed_frac"] == 1.0
    assert "Dijkstra" in report["failures"][0]


def test_drifted_pinned_counters_fail_ops(tmp_path):
    wl = workloads.make_workload("path-2000", 3, tmp_path, REPO / "src", **TINY["path-2000"])
    wl.pins = {s: (0, 0, 0) for s in wl.trial_seeds}
    result, report = tiny_run("path-2000", tmp_path, trace=0, wl=wl)
    assert result["failed"] == result["attempted"] >= 1
    assert "pinned" in report["failures"][0]


def test_default_seed_checks_pinned_counters(tmp_path):
    wl = workloads.make_workload("path-2000", workloads.DEFAULT_SEED, tmp_path, REPO / "src")
    assert wl.pins is not None and set(wl.pins) == set(wl.trial_seeds)


def test_speed_is_the_reference_over_the_local_median_unit_time():
    ref = calibrate.REF_UNIT_S
    speeds = calibrate.speeds([0, 1, 2, 10, 11, 12], [ref, ref, 3 * ref, 2 * ref, 2 * ref, 9 * ref])
    assert speeds == pytest.approx([1, 1, 1, 0.5, 0.5, 0.5])


@pytest.mark.parametrize("count, q", [(1000, 90), (100, 90), (99, 89), (24, 58), (10, 50)])
def test_tail_percentile_keeps_ten_samples_beyond(count, q):
    assert run.tail_percentile(count) == q


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(REPO / "bench" / "run.py"), "--workload",
                           "path-2000", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_workloads_match_the_declaration():
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()}
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
