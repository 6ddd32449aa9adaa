"""relaxbench benchmark: three seed-pinned workloads, one closed-loop client.

Run from the root of a checkout:

    python3 bench/run.py --workload path-2000 --seed 0 --seconds 35 --trace 0

A single client issues each op only after the previous one returned; there
are no threads.  Every op's output is checked exactly, and a failed check
counts as a failed op without stopping the run.

The end-to-end times (``ops_per_s``, ``op_ms_p50``, ``op_ms_p90``,
``setup_s``) are reference times: each op's and set-up's wall time scaled by
the machine's speed around it, measured with a fixed calibration unit run
before every op (see ``calibrate``).  On a shared host whose speed swings
within seconds, this keeps runs of the same code comparable.  The report line
also gives the unscaled wall-clock values under ``wall``.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs half the time untraced and half traced, replays each traced op's layers
through public calls, writes the spans to ``bench/out/`` and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a report with provenance, sample counts and failures.

The program comes from ``src/`` of the checkout the command runs in; without
it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import calibrate
from spans import NullTracer, Tracer

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("path-2000", "sparse-2000", "dense-detect-cli")
MAX_FAILURES_SHOWN = 5


def percentile(values: list, q: int) -> float:
    """Nearest-rank q-th percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered) / 100)) - 1]


def tail_percentile(count: int) -> int:
    """90, or the highest percentile with at least 10 samples beyond it.

    With 10 samples or fewer no percentile qualifies and the median stands in.
    """
    for q in range(90, 49, -1):
        if count - math.ceil(q * count / 100) >= 10:
            return q
    return 50


class Loop:
    """Outcome of one closed-loop phase.

    Op ``j`` took ``cycle_s[j]`` seconds of wall time, its call and its check;
    the calibration unit measured just before it took ``unit_s[j]``, and
    ``speed[j]`` scales its wall time to reference time (see ``calibrate``).
    """

    def __init__(self) -> None:
        self.latency: list[tuple[int, int]] = []  # (op, ns) for ops that returned
        self.attempted = 0
        self.passed = 0
        self.failures: list[str] = []
        self.unit_at: list[float] = []
        self.unit_s: list[float] = []
        self.cycle_s: list[float] = []
        self.speed: list[float] = []
        self.replayed: list[int] = []
        self.counts = Counter()

    @property
    def ops_per_s(self) -> float:
        """Passed ops per second of reference time."""
        return self.passed / sum(c * s for c, s in zip(self.cycle_s, self.speed))

    @property
    def wall_ops_per_s(self) -> float:
        return self.passed / sum(self.cycle_s)

    def speed_at(self, j: int) -> float:
        return self.speed[min(j, len(self.speed) - 1)]


class Setups:
    """Repeated set-ups of one workload; the seconds each took and the op it preceded."""

    def __init__(self, wl, tr) -> None:
        self.wl = wl
        self.tr = tr
        self.seconds: list[float] = []
        self.before_op: list[int] = []

    def run_one(self, before_op: int = 0) -> float:
        rep = f"setup-{len(self.seconds)}"
        t0 = time.perf_counter()
        with self.tr.span("setup", rep):
            self.wl.setup(self.tr, rep)
        self.seconds.append(time.perf_counter() - t0)
        self.before_op.append(before_op)
        return self.seconds[-1]

    def due(self, fraction: float) -> bool:
        """Whether the next set-up is due once ``fraction`` of the run has passed."""
        done = len(self.seconds)
        return done < self.wl.setup_reps and done <= fraction * self.wl.setup_reps

    def reference_s(self, loop: Loop) -> list[float]:
        """Each set-up's seconds scaled to reference time by the speed around it."""
        return [s * loop.speed_at(j) for s, j in zip(self.seconds, self.before_op)]


def closed_loop(wl, seconds: float, tr, replay: bool, setups: Setups | None = None) -> Loop:
    """Issue ops back to back for ``seconds`` (at least one op).

    A calibration unit runs before every op.  Set-ups are spread evenly over
    the phase, so that ``setup_s`` samples the same stretch of machine time as
    the ops; their time is left out of the phase.  Replay time counts toward
    the phase's length but not toward any op's time.
    """
    loop = Loop()
    setup_s = 0.0
    start = time.perf_counter()
    j = 0
    while True:
        while setups is not None and setups.due((time.perf_counter() - start - setup_s) / seconds):
            setup_s += setups.run_one(j)
        loop.unit_at.append(time.perf_counter())
        loop.unit_s.append(calibrate.measure(wl.calib_units))
        c0 = time.perf_counter()
        try:
            t0 = time.perf_counter_ns()
            with tr.span("op", j):
                out = wl.op(j, tr)
            loop.latency.append((j, time.perf_counter_ns() - t0))
            problems = wl.check(j, out)
        except Exception:  # an op that raises is a failed op, not a failed run
            problems = [f"op {j}: " + traceback.format_exc(limit=2).strip().replace("\n", " | ")]
        loop.cycle_s.append(time.perf_counter() - c0)
        loop.attempted += 1
        if problems:
            loop.failures += problems
        else:
            loop.passed += 1
            if replay:
                with tr.span("replay", j):
                    counts = wl.replay(j, out, tr)
                loop.replayed.append(j)
                loop.counts += counts
        j += 1
        if time.perf_counter() - start - setup_s >= seconds:
            break
    while setups is not None and setups.due(1.0):
        setups.run_one(j - 1)
    loop.speed = calibrate.speeds(loop.unit_at, loop.unit_s)
    return loop


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.out_of_process else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def end_to_end(wl, loop: Loop, setups: Setups) -> tuple[dict, dict]:
    """(metrics, report extras) for an untraced run; times are reference times."""
    lat_ms = [ns / 1e6 * loop.speed_at(j) for j, ns in loop.latency]
    wall_ms = [ns / 1e6 for _, ns in loop.latency]
    q = tail_percentile(len(lat_ms))
    setup_s = setups.reference_s(loop)
    metrics = {
        "ops_per_s": (loop.ops_per_s, "1/s", loop.passed),
        "op_ms_p50": (statistics.median(lat_ms), "ms", len(lat_ms)),
        "op_ms_p90": (percentile(lat_ms, q), "ms", len(lat_ms)),
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "peak_rss_mb": (peak_rss_mb(wl), "MB", 1),
    }
    extras = {
        "op_ms_p90_is_percentile": q,
        "wall": {"ops_per_s": loop.wall_ops_per_s, "op_ms_p50": statistics.median(wall_ms),
                 "op_ms_p90": percentile(wall_ms, q),
                 "setup_s": statistics.median(setups.seconds)},
        "speed": {"median": statistics.median(loop.speed), "min": min(loop.speed),
                  "max": max(loop.speed), "units_per_op": wl.calib_units,
                  "ref_unit_s": calibrate.REF_UNIT_S},
    }
    return metrics, extras


def per_layer(tr, reps: int, untraced: Loop, traced: Loop) -> tuple[dict, dict]:
    """(metrics, report extras) for a traced run, from spans and replay counts."""
    by_op = tr.self_ns_by_op()
    setups = [by_op[f"setup-{r}"] for r in range(reps)]
    ops = [by_op[j] for j in traced.replayed]
    n_ops = len(ops)

    def med_ms(rows, f) -> float:
        return statistics.median(f(t) for t in rows) / 1e6 if rows else 0.0

    def pass_ns(t) -> int:
        return (t["engines.run"] + t["negcycle.detect"]
                - t["graph.ordering"] - t["graph.partition"])

    def cli_other_ns(t) -> int:
        if not t["cli.run"]:
            return 0
        return t["cli.run"] - sum(t[k] for k in ("cli.startup", "dimacs.load", "oracle.fw",
                                                  "negcycle.detect", "cli.emit"))

    c = traced.counts
    relax = c["relax_calls"]

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    def per_op(key) -> float:
        return ratio(c[key], n_ops)

    metrics = {
        "generators.build_ms": (med_ms(setups, lambda t: t["generators.build"]
                                       - t["graph.construct"]), "ms", reps),
        "graph.construct_ms": (med_ms(setups, lambda t: t["graph.construct"]), "ms", reps),
        "dimacs.write_ms": (med_ms(setups, lambda t: t["dimacs.write"]), "ms", reps),
        "graph.ordering_ms": (med_ms(ops, lambda t: t["graph.ordering"]), "ms", n_ops),
        "graph.partition_ms": (med_ms(ops, lambda t: t["graph.partition"]), "ms", n_ops),
        "engines.pass_ms": (med_ms(ops, pass_ns), "ms", n_ops),
        "engines.iterations": (per_op("iterations"), "count", n_ops),
        "engines.relax_calls": (per_op("relax_calls"), "count", n_ops),
        "engines.improvements": (per_op("improvements"), "count", n_ops),
        "engines.useful_frac": (ratio(c["improvements"], relax), "ratio", n_ops),
        "engines.frontier_mean": (ratio(c["frontier_sum"], c["iterations"]), "count", n_ops),
        "engines.scanned": (per_op("scanned"), "count", n_ops),
        "engines.scan_per_relax": (ratio(c["scanned"], relax), "ratio", n_ops),
        "engines.ns_per_relax": (ratio(sum(pass_ns(t) for t in ops), relax), "ns", n_ops),
        "negcycle.detect_ms": (med_ms(ops, lambda t: t["negcycle.detect"]), "ms", n_ops),
        "negcycle.iterations_used": (per_op("iterations_used"), "count", n_ops),
        "negcycle.checks": (per_op("checks"), "count", n_ops),
        "negcycle.useful_iter_frac": (ratio(c["first_cycle_iter"], c["iterations_used"]),
                                      "ratio", n_ops),
        "oracle.fw_ms": (med_ms(ops, lambda t: t["oracle.fw"]), "ms", n_ops),
        "dimacs.load_ms": (med_ms(ops, lambda t: t["dimacs.load"]), "ms", n_ops),
        "dimacs.bytes": (per_op("dimacs_bytes"), "bytes", n_ops),
        "cli.startup_ms": (med_ms(ops, lambda t: t["cli.startup"]), "ms", n_ops),
        "cli.emit_ms": (med_ms(ops, lambda t: t["cli.emit"]), "ms", n_ops),
        "cli.other_ms": (med_ms(ops, cli_other_ns), "ms", n_ops),
        "trace.overhead_frac": (1 - traced.ops_per_s / untraced.ops_per_s, "ratio",
                                traced.passed),
    }
    def mean_self_ms(rows) -> dict:
        names = {name for t in rows for name in t}
        return {name: sum(t[name] for t in rows) / 1e6 / len(rows) for name in sorted(names)}

    extras = {
        "self_ms_per_setup": mean_self_ms(setups),
        "self_ms_per_op": mean_self_ms(ops) if ops else {},
        "ops_per_s_untraced": untraced.ops_per_s,
        "ops_per_s_traced": traced.ops_per_s,
        "computed": {
            "engines.scanned": "iterations x (tails in plus + tails in minus)",
            "engines.scan_per_relax": "engines.scanned / relax calls",
            "engines.pass_ms": "engine run span - graph.ordering - graph.partition replays",
            "engines.ns_per_relax": "engines.pass_ms / relax calls",
            "generators.build_ms": "generator span - graph.construct replay",
            "cli.other_ms": "cli.run span - startup, load, fw, detect and emit replays",
        },
    }
    return metrics, extras


def bootstrap() -> Path | None:
    """Put the checkout's ``src/`` first on the import path; None if missing."""
    src = ROOT / "src"
    if not (src / "relaxbench" / "__init__.py").is_file():
        return None
    OUT_DIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(src))
    return src


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    src = bootstrap()
    if src is None:
        print(f"error: no relaxbench sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    wl = workloads.make_workload(args.workload, args.seed, workdir, src)
    try:
        result, report = run(wl, args, Tracer() if args.trace else NullTracer(), OUT_DIR)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


def run(wl, args, tr, out_dir: Path) -> tuple[dict, dict]:
    """Set up, measure and summarise one run; returns (result line, report).

    A traced run writes its spans to ``out_dir``.
    """
    setups = Setups(wl, tr)
    setups.run_one()
    wl.prepare_reference()
    if args.trace:
        untraced = closed_loop(wl, args.seconds / 2, NullTracer(), replay=False)
        traced = closed_loop(wl, args.seconds / 2, tr, replay=True, setups=setups)
        loops = (untraced, traced)
        metrics, extras = per_layer(tr, len(setups.seconds), untraced, traced)
        trace_file = out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tr.write(trace_file)
        extras["trace_file"] = os.path.relpath(trace_file, ROOT)
    else:
        loop = closed_loop(wl, args.seconds, tr, replay=False, setups=setups)
        loops = (loop,)
        metrics, extras = end_to_end(wl, loop, setups)
    attempted = sum(lp.attempted for lp in loops)
    failed = attempted - sum(lp.passed for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    report = {
        "benchmark": "relaxbench",
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "client": "closed loop, 1 client, no threads",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "instance": wl.params(),
        "pinned_counters_checked": wl.pins is not None,
        "metrics": {name: {"value": v, "unit": u, "samples": k}
                    for name, (v, u, k) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures[:MAX_FAILURES_SHOWN],
        **extras,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }
    return result, report


if __name__ == "__main__":
    sys.exit(main())
