"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed (``setup``), runs one
operation per call (``op``), checks every op's output exactly (``check``, a
list of problems, empty when the output is right), and, in traced runs,
replays the op's layers one public call at a time (``replay``) to split its
time and count its work.  Ops rotate over a fixed list of trials, so every run
with one seed does the same work in the same order.

Only public ``relaxbench`` functions and the ``relaxbench`` command line are
used, and none that the roadmap schedules for change (``ParentGraph``, the
``alternating-adversary`` kind, empty ``--seeds`` ranges, ``--ordering`` with
a non-``yen`` algorithm).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from relaxbench import (
    GeneratorSpec,
    Graph,
    SsspState,
    build_graph,
    count_local_minima,
    detection_start,
    floyd_warshall,
    partition_edges,
    random_ordering,
    run_randomized,
    run_with_detection,
    worst_case_path,
    yen_iterations,
)
from relaxbench.cli import TrialRecord, emit_stats
from relaxbench.dimacs import load_dimacs, write_dimacs

import pinned
import reference

DEFAULT_SEED = 0
C = 2.0  # detection confidence exponent, the command line's default
TRIALS = 64  # engine trials an in-process run rotates over
SUBPROCESS_TIMEOUT_S = 120


def replay_construct(g: Graph, tr, rep) -> None:
    """Time ``Graph`` construction alone by rebuilding ``g`` from its edges."""
    if tr.enabled:
        with tr.span("graph.construct", rep):
            Graph(g.n, g.edges, g.source)


def replay_engine(g: Graph, seed: int, iterations: int, tr, op, watch_cycles: bool) -> Counter:
    """Replay the ordering, the partition and ``iterations`` engine steps.

    Reads the frontier entering every iteration; with ``watch_cycles`` it also
    finds the first iteration whose predecessors hold a cycle.  ``scanned`` is
    computed, not counted: every iteration visits each tail of the ascending
    and of the descending subgraph once.
    """
    with tr.span("graph.ordering", op):
        ordering = random_ordering(g, seed)
    with tr.span("graph.partition", op):
        part = partition_edges(g, ordering)
    frontier_sum = first_cycle = 0
    with tr.span("engines.step", op):
        state = SsspState(g)
        steps = yen_iterations(g, ordering, state)
        for t in range(1, iterations + 1):
            frontier_sum += len(state.frontier)
            next(steps)
            if watch_cycles and not first_cycle and reference.pred_has_cycle(state.pred):
                first_cycle = t
    tails = len({u for u, _, _ in part.plus}) + len({u for u, _, _ in part.minus})
    return Counter(scanned=iterations * tails, frontier_sum=frontier_sum,
                   first_cycle_iter=first_cycle)


def check_pins(pins, seed: int, got: tuple) -> list[str]:
    if pins is None or pins[seed] == got:
        return []
    return [f"trial seed {seed}: (relax_calls, iterations, improvements) = {got}, "
            f"pinned {pins[seed]}"]


class _EngineWorkload:
    """One op is ``run_randomized(g, trial seed)`` in this process."""

    out_of_process = False

    def __init__(self, seed: int, n: int, default_n: int):
        self.seed = seed
        self.n = n
        self.trial_seeds = [seed * TRIALS + i for i in range(TRIALS)]
        self.pins = pinned.PINNED[self.name] if seed == DEFAULT_SEED and n == default_n else None
        self.graphs: list[Graph] = []

    def prepare_reference(self) -> None:
        pass

    def trial_seed(self, j: int) -> int:
        return self.trial_seeds[j % TRIALS]

    def graph_index(self, j: int) -> int:
        """The graph of op ``j``: the trials are split into equal runs, one per graph."""
        return j % TRIALS * len(self.graphs) // TRIALS

    def op(self, j: int, tr):
        with tr.span("engines.run", j):
            return run_randomized(self.graphs[self.graph_index(j)], self.trial_seed(j))

    def check(self, j: int, out) -> list[str]:
        state, stats, ordering = out
        seed = self.trial_seed(j)
        problems = [f"trial seed {seed}: {p}"
                    for p in self.check_result(self.graph_index(j), state, stats, ordering)]
        got = (stats.relax_calls, stats.iterations, stats.improvements)
        return problems + check_pins(self.pins, seed, got)

    def replay(self, j: int, out, tr) -> Counter:
        _, stats, _ = out
        counts = replay_engine(self.graphs[self.graph_index(j)], self.trial_seed(j),
                               stats.iterations, tr, j, watch_cycles=False)
        counts.update(iterations=stats.iterations, relax_calls=stats.relax_calls,
                      improvements=stats.improvements)
        return counts


class PathWorkload(_EngineWorkload):
    name = "path-2000"
    why = ("The paper's tight single-path case: guard-scan bound (about 400 vertices scanned per "
           "relaxation) over about 666 iterations; exercises a work-proportional kernel.")
    setup_reps = 41
    calib_units = 2  # calibration units before each op (see calibrate.py)

    def __init__(self, seed: int, n: int = 2000):
        super().__init__(seed, n, default_n=2000)

    def params(self) -> dict:
        return {"graph": f"worst_case_path({self.n})", "trial_seeds": self.trial_seeds}

    def setup(self, tr, rep) -> None:
        with tr.span("generators.build", rep):
            g = worst_case_path(self.n)
        replay_construct(g, tr, rep)
        self.graphs = [g]

    def check_result(self, k: int, state, stats, ordering) -> list[str]:
        n = self.n
        problems = []
        if state.dist != list(range(n)):
            problems.append("dist[v] != v")
        if state.pred != [None] + list(range(n - 1)):
            problems.append("pred[v] != v-1")
        expected = 2 + count_local_minima([ordering.rank[v] for v in range(n)])
        if stats.iterations != expected:
            problems.append(f"{stats.iterations} iterations, 2 + local minima = {expected}")
        return problems


class SparseWorkload(_EngineWorkload):
    name = "sparse-2000"
    why = ("Eight random sparse graphs, n=2000 m=10000: wide frontier, 2-8 iterations, "
           "ordering and partition a large share; a worklist would lose here.")
    setup_reps = 15
    calib_units = 1
    # Op cost differs by about 4% from one random graph to the next, and by far
    # less between sets of trials on one graph, so a run spreads its trials
    # over several graphs to keep runs with different workload seeds alike.
    GRAPHS = 8

    def __init__(self, seed: int, n: int = 2000, m: int = 10000):
        super().__init__(seed, n, default_n=2000)
        self.specs = [GeneratorSpec(kind="random-sparse", n=n, m=m, weight_min=0, weight_max=9,
                                    seed=seed * self.GRAPHS + k, ensure_reachable=True)
                      for k in range(self.GRAPHS)]
        self.expected: list = []

    def params(self) -> dict:
        return {"graphs": [s.label() for s in self.specs], "trial_seeds": self.trial_seeds}

    def setup(self, tr, rep) -> None:
        graphs = []
        for spec in self.specs:
            with tr.span("generators.build", rep):
                g = build_graph(spec)
            replay_construct(g, tr, rep)
            graphs.append(g)
        self.graphs = graphs

    def prepare_reference(self) -> None:
        self.expected = [reference.dijkstra(g.n, g.edges, g.source) for g in self.graphs]

    def check_result(self, k: int, state, stats, ordering) -> list[str]:
        if state.dist != self.expected[k]:
            return [f"graph {k}: distances differ from the Dijkstra reference"]
        return []


class DenseCliWorkload:
    """One op is a ``relaxbench run`` subprocess with detection and the oracle check."""

    name = "dense-detect-cli"
    why = ("relaxbench run subprocesses detecting planted cycles on complete n=150 graphs: "
           "the only user of cli, dimacs, oracle and negcycle.")
    out_of_process = True
    setup_reps = 13
    calib_units = 4
    INSTANCES = 3
    ROTATION = 6  # distinct (instance, seed range) ops before the rotation repeats

    def __init__(self, seed: int, workdir: Path, src: Path, n: int = 150,
                 cycle_length: int = 5):
        self.seed = seed
        self.n = n
        self.specs = [GeneratorSpec(kind="planted-cycle", n=n, m=n * (n - 1), weight_min=0,
                                    weight_max=9, seed=seed * self.INSTANCES + k,
                                    cycle_length=cycle_length, cycle_weight=-1)
                      for k in range(self.INSTANCES)]
        self.files = [workdir / f"planted-{k}.gr" for k in range(self.INSTANCES)]
        self.pins = pinned.PINNED[self.name] if seed == DEFAULT_SEED and n == 150 else None
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))

    def prepare_reference(self) -> None:
        pass  # the command line's own --check-oracle is this workload's reference

    def trial(self, j: int) -> tuple[int, int]:
        """(instance index, first trial seed of the op's two-seed range)."""
        r = j % self.ROTATION
        return r % self.INSTANCES, 2 * (self.seed * self.ROTATION + r)

    def params(self) -> dict:
        return {"graphs": [s.label() for s in self.specs],
                "seed_ranges": [f"{s}:{s + 2}" for s in
                                (self.trial(j)[1] for j in range(self.ROTATION))],
                "c": C}

    def setup(self, tr, rep) -> None:
        for spec, path in zip(self.specs, self.files):
            with tr.span("generators.build", rep):
                g = build_graph(spec)
            replay_construct(g, tr, rep)
            with tr.span("dimacs.write", rep):
                write_dimacs(g, path)

    def op(self, j: int, tr):
        k, s = self.trial(j)
        cmd = [sys.executable, "-m", "relaxbench.cli", "run", "--input", str(self.files[k]),
               "--algorithm", "randomized", "--detect-cycles", "--check-oracle",
               "--seeds", f"{s}:{s + 2}", "--format", "json-lines"]
        with tr.span("cli.run", j):
            return subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  timeout=SUBPROCESS_TIMEOUT_S)

    def check(self, j: int, proc) -> list[str]:
        k, s = self.trial(j)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return [f"instance {k} seeds {s}:{s + 2}: exit code {proc.returncode}: {tail[0]}"]
        try:
            records = [json.loads(line) for line in proc.stdout.splitlines()]
        except json.JSONDecodeError as exc:
            return [f"instance {k} seeds {s}:{s + 2}: unreadable record: {exc}"]
        if [r.get("seed") for r in records] != [s, s + 1]:
            return [f"instance {k}: records for seeds {[r.get('seed') for r in records]}, "
                    f"expected {[s, s + 1]}"]
        problems = []
        for r in records:
            if r.get("negative_cycle_found") is not True:
                problems.append(f"instance {k} seed {r['seed']}: planted cycle not found")
            got = (r.get("relax_calls"), r.get("iterations"), r.get("improvements"))
            problems += check_pins(self.pins, r["seed"], got)
        return problems

    def replay(self, j: int, proc, tr) -> Counter:
        k, _ = self.trial(j)
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        with tr.span("cli.startup", j):
            subprocess.run([sys.executable, "-c", "import relaxbench.cli"], env=self.env,
                           check=True, timeout=SUBPROCESS_TIMEOUT_S)
        with tr.span("dimacs.load", j):
            g = load_dimacs(self.files[k])
        with tr.span("oracle.fw", j):
            floyd_warshall(g)
        counts = Counter()
        for r in records:
            with tr.span("negcycle.detect", j):
                _, _, verdict = run_with_detection(g, r["seed"], C)
            used = verdict.iterations_used
            counts += replay_engine(g, r["seed"], used, tr, j, watch_cycles=True)
            counts["iterations"] += r["iterations"]
            counts["relax_calls"] += r["relax_calls"]
            counts["improvements"] += r["improvements"]
            counts["iterations_used"] += used
            counts["checks"] += used - detection_start(g.n, C) + 1
        trial_records = [TrialRecord(**r) for r in records]
        with tr.span("cli.emit", j):
            emit_stats(trial_records, "json-lines")
        counts["dimacs_bytes"] = self.files[k].stat().st_size
        return counts


WORKLOADS = {w.name: w for w in (PathWorkload, SparseWorkload, DenseCliWorkload)}


def make_workload(name: str, seed: int, workdir: Path, src: Path, **sizes):
    cls = WORKLOADS[name]
    if cls is DenseCliWorkload:
        return cls(seed, workdir, src, **sizes)
    return cls(seed, **sizes)
