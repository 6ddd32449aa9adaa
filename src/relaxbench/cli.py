"""Benchmark command line: generate instances, run engines, verify, emit stats.

Subcommands:
  generate   build an instance from generator flags and write it as DIMACS .gr
  run        run one engine over a seed batch, emit per-trial records
  verify     cross-check every engine and the detector against Floyd-Warshall

Exit codes: 0 success, 1 verification failure, 2 malformed input (a generator flag,
whose default is ``GeneratorSpec``'s, without --gen too), 3 negative cycle detected under
--fail-on-cycle.  Records come in seed order, and every field but wall_time_ns is deterministic.

A ``run`` batch runs its trials on min(seeds, usable CPUs, seeds * m // 128000)
processes, this one and workers forked from it, where usable CPUs are the
process's CPU affinity mask (``os.cpu_count()`` where the platform has none)
and seeds * m counts edge-trials; ``taskset -c 0`` therefore runs it here,
one trial after another.  A worker's trial that raised, or issued a warning
that the filters would show, runs again here, so a batch raises and warns as
one process would.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
import warnings
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence

from .dimacs import load_dimacs, write_dimacs
from .engines import run_adaptive, run_basic, run_randomized, run_yen
from .generators import KINDS, GeneratorSpec, adversarial_ordering, build_graph
from .graph import Graph, _check_seed, identity_ordering
from .negcycle import run_with_detection
from .oracle import certify, floyd_warshall

FORMATS = ("csv", "json-lines")


class OracleMismatchError(Exception):
    """A trial's verdict failed its certificate check."""


class TrialConfig(NamedTuple):
    """Everything one batch of trials needs; immutable while trials run."""

    graph: Graph
    algorithm: str
    seeds: Sequence[int]
    ordering: Optional[str] = None
    check_oracle: bool = False
    detect_cycles: bool = False
    strict_count: bool = False
    source_label: str = ""


class TrialRecord(NamedTuple):
    """One completed trial; field order is the documented CSV column order."""

    algorithm: str
    seed: int
    n: int
    m: int
    iterations: int
    relax_calls: int
    improvements: int
    wall_time_ns: int
    negative_cycle_found: bool
    source: str


CSV_HEADER = ",".join(TrialRecord._fields)

# name -> graph -> Ordering, for --algorithm yen.
ORDERINGS = {
    "identity": identity_ordering,
    "adversarial": lambda g: adversarial_ordering(g.n),
}

# name -> (graph, seed, config) -> (state, stats): the one engine dispatch,
# shared by ``run`` and ``verify``.  Detection is the randomized engine with
# one more stopping rule; its certificate is ``stats.negative_cycle``.
ENGINES = {
    "basic": lambda g, seed, config: run_basic(g, strict=config.strict_count),
    "adaptive": lambda g, seed, config: run_adaptive(g),
    "yen": lambda g, seed, config: run_yen(g, ORDERINGS[config.ordering or "identity"](g)),
    "randomized": lambda g, seed, config: (run_with_detection(g, seed)
                                           if config.detect_cycles
                                           else run_randomized(g, seed))[:2],
}
ALGORITHMS = tuple(ENGINES)

# flag -> (TrialConfig field, the one algorithm that reads it)
FLAG_NEEDS = {
    "--ordering": ("ordering", "yen"),
    "--strict-count": ("strict_count", "basic"),
    "--detect-cycles": ("detect_cycles", "randomized"),
}


def run_trials(config: TrialConfig) -> List[TrialRecord]:
    """Execute one trial per seed; records come back in seed order.

    A contradictory config raises ``ValueError`` before the first trial: an
    unknown algorithm or ordering, a seed that is not a non-negative ``int``,
    a flag of ``FLAG_NEEDS`` set for another algorithm, or the adversarial
    ordering off the path 0 -> 1 -> ... -> n-1 with source 0.
    ``ordering=None`` is the identity for ``yen``.

    With ``check_oracle`` every trial's verdict is checked by
    :func:`~relaxbench.oracle.certify` in O(n + m): a cycle against its hops,
    distances against feasibility and tight-edge reachability.  The first
    failure raises :class:`OracleMismatchError`.

    Trials are independent, so a batch large enough to repay forking runs on
    :func:`_process_count` processes, this one and workers forked from it,
    each taking every P-th seed.  Each process times its own trials.  A
    trial is a function of (config, seed), so this process runs again, in
    seed order, each worker trial that raised or issued a warning that the
    filters in force at the fork would show: a caller sees the exception of
    the first failing seed and the warnings that a sequential batch shows,
    raised and issued here.  A killed worker raises ``RuntimeError``.
    """
    engine = ENGINES.get(config.algorithm)
    if engine is None:
        raise ValueError(f"unknown algorithm {config.algorithm!r}")
    if config.ordering is not None and config.ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {config.ordering!r}")
    for seed in config.seeds:
        _check_seed(seed)
    for flag, (field, needed) in FLAG_NEEDS.items():
        if getattr(config, field) and config.algorithm != needed:
            raise ValueError(f"{flag} needs algorithm {needed!r}, got {config.algorithm!r}")
    g = config.graph
    if config.ordering == "adversarial" and (
            g.source != 0
            or {(u, v) for u, v, _ in g.edges} != {(i, i + 1) for i in range(g.n - 1)}):
        raise ValueError(
            "the adversarial ordering needs the path 0 -> 1 -> ... -> n-1 with source 0")

    processes = _process_count(config)
    if processes == 1:
        return [_trial(config, engine, seed) for seed in config.seeds]
    import pickle  # only a parallel batch pays for importing these
    import signal

    # Fork, so workers share the loaded graph and the engine table (lambdas,
    # perhaps patched) without pickling them.  Process k runs every
    # processes-th seed from the k-th on, this one being process 0, and each
    # worker streams one record or None per seed, so seed i's is the next one
    # from process i % processes.  Ours, and each None, run here.
    sys.stdout.flush()  # or a worker could write what is buffered again
    sys.stderr.flush()
    workers: List[tuple] = []
    try:
        for k in range(1, processes):
            workers.append(_fork_worker(config, engine, config.seeds[k::processes]))
        records: List[TrialRecord] = []
        for i, seed in enumerate(config.seeds):
            record = None
            if i % processes:
                pid, reader = workers[i % processes - 1]
                try:
                    record = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError):
                    workers.remove((pid, reader))
                    reader.close()
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    raise RuntimeError(f"the worker process running seed {seed} exited "
                                       f"with code {code}") from None
            records.append(record or _trial(config, engine, seed))
        return records
    finally:
        for pid, reader in workers:
            os.kill(pid, signal.SIGKILL)  # after a failure; a worker that is done has exited
            os.waitpid(pid, 0)
            reader.close()


# Edge-trials (one trial over one edge) each process of a batch must be given.
# Timed as whole `relaxbench run` batches, forked against `taskset -c 0`
# (2-vCPU Linux VM, CPython 3.11), forking won at least 5 pairs in 6, at that
# size and every larger one, from 128,000 edge-trials per process for the
# cheapest trial measured: adaptive on a sparse graph its source mostly cannot
# reach, about 0.4 us per edge-trial.  Dense cycle detection (about 0.7 us)
# gained from 67,065 and randomized on a 2000-vertex path (about 2.6 us) from
# 15,992.  Below that, trials running side by side slow each other down by more
# than the second process saves.
PARALLEL_MIN_EDGE_TRIALS = 128_000


def _process_count(config: TrialConfig) -> int:
    """How many processes run a batch, this one included.

    It is min(len(seeds), usable CPUs, len(seeds) * m // PARALLEL_MIN_EDGE_TRIALS),
    and at least 1.  Usable CPUs are ``len(os.sched_getaffinity(0))``, or
    ``os.cpu_count()`` where there are no affinity masks, so ``taskset -c 0``
    gives 1.  A platform without ``fork``, a process running other threads
    (where a forked child can deadlock) or one that is itself a
    ``multiprocessing`` worker (whose parent already spreads the work) gets 1.
    """
    mp = sys.modules.get("multiprocessing")
    if (not hasattr(os, "fork") or threading.active_count() > 1
            or (mp is not None and mp.parent_process() is not None)):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    work = len(config.seeds) * config.graph.m
    return max(1, min(len(config.seeds), cpus, work // PARALLEL_MIN_EDGE_TRIALS))


def _trial(config: TrialConfig, engine, seed: int) -> TrialRecord:
    """Run, time and, under ``check_oracle``, certify one seed's trial."""
    g = config.graph
    start = time.perf_counter_ns()
    state, stats = engine(g, seed, config)
    wall = time.perf_counter_ns() - start

    flaw = certify(g, state.dist, stats.negative_cycle) if config.check_oracle else None
    if flaw is not None:
        if not config.detect_cycles and state.frontier:
            raise OracleMismatchError(
                f"seed {seed}: {config.algorithm} stopped with distances still changing and "
                f"its distances fail the certificate ({flaw}); the input likely has a negative "
                "cycle reachable from the source, where engine distances are undefined "
                "(rerun with --algorithm randomized --detect-cycles)"
            )
        raise OracleMismatchError(
            f"seed {seed}: {config.algorithm} verdict fails its certificate: {flaw}"
        )

    return TrialRecord(
        algorithm=config.algorithm,
        seed=seed,
        n=g.n,
        m=g.m,
        iterations=stats.iterations,
        relax_calls=stats.relax_calls,
        improvements=stats.improvements,
        wall_time_ns=wall,
        negative_cycle_found=stats.negative_cycle is not None,
        source=config.source_label,
    )


def _fork_worker(config: TrialConfig, engine, seeds: Sequence[int]) -> tuple:
    """Fork a worker that runs ``seeds``; return its pid and the pipe it writes.

    The worker pickles one value per seed: the trial's record, or None if the
    trial raised or issued a warning that the inherited filters show.  It then
    exits.
    """
    import pickle
    import signal
    import traceback

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the worker; it never returns
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C stops the parent, which ends us
            os.close(read_fd)
            # One catch_warnings for the whole loop: each entry resets the
            # warning registries, after which a `default` filter would show,
            # and so replay, every warning trial's warning again.
            with os.fdopen(write_fd, "wb") as out, warnings.catch_warnings(record=True) as caught:
                for seed in seeds:
                    try:
                        record = _trial(config, engine, seed)
                    except Exception:
                        record = None
                    pickle.dump(None if caught else record, out)
                    out.flush()
                    caught.clear()
            code = 0
        except BaseException:  # reported here; the exit code tells the parent
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)  # so that a dead worker's pipe reads as end of file
    return pid, os.fdopen(read_fd, "rb")


def _csv_field(value) -> str:
    # Quote as Python 3.13's csv writer does; before 3.13 it left a carriage
    # return unquoted, so a label holding one did not read back.
    text = ("true" if value else "false") if isinstance(value, bool) else str(value)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_stats(records: Sequence[TrialRecord], fmt: str) -> str:
    """Serialize records as CSV (fixed header) or JSON lines (same field names)."""
    if fmt == "csv":
        rows = (",".join(map(_csv_field, r)) for r in records)
        return "".join(line + "\n" for line in (CSV_HEADER, *rows))
    if fmt == "json-lines":
        import json  # only this format pays for importing it

        return "".join(json.dumps(r._asdict()) + "\n" for r in records)
    raise ValueError(f"unknown format {fmt!r}")


def _add_graph_source_args(parser: argparse.ArgumentParser) -> None:
    src = parser.add_argument_group("graph source (file or generator)")
    src.add_argument("--input", type=Path, help="DIMACS .gr file to load")
    src.add_argument("--source", type=int,
                     help="1-based source vertex id for --input (default 1)")
    src.add_argument("--gen", choices=KINDS, help="generator kind")
    src.add_argument("--n", type=int, help="vertex count for the generator")
    src.add_argument("--m", type=int, help="edge count for random kinds")
    src.add_argument("--weight-min", type=int)
    src.add_argument("--weight-max", type=int)
    src.add_argument("--graph-seed", type=int,
                     help="seed for the instance generator (not the engine)")
    src.add_argument("--ensure-reachable", action="store_true", default=None,
                     help="add a zero-weight spanning arborescence first")
    src.add_argument("--cycle-length", type=int, help="planted cycle length")
    src.add_argument("--cycle-weight", type=int, help="planted cycle total weight (negative)")


def _resolve_graph(args: argparse.Namespace) -> tuple[Graph, str]:
    if (args.input is None) == (args.gen is None):
        raise ValueError("exactly one of --input or --gen is required")
    # GeneratorSpec field -> its flag's dest; run's --seed seeds the engine.
    dests = {f: "graph_seed" if f == "seed" else f for f in GeneratorSpec._fields[1:]}
    given = {f: getattr(args, d) for f, d in dests.items() if getattr(args, d) is not None}
    if args.input is not None:
        if given:
            flag = dests[next(iter(given))].replace("_", "-")
            raise ValueError(f"--{flag} needs --gen; --input reads the graph from its file")
        import hashlib  # only a file source pays for importing it

        source = 1 if args.source is None else args.source
        g = load_dimacs(args.input, source=source)
        digest = hashlib.sha256(Path(args.input).read_bytes()).hexdigest()
        label = f"file:{args.input.name}:sha256:{digest}"
        return g, label if source == 1 else f"{label};source={source}"
    if args.source is not None:
        raise ValueError("--source needs --input; a generated graph's source is vertex 1")
    if args.n is None:
        raise ValueError("--gen requires --n")
    spec = GeneratorSpec(args.gen, **given)
    return build_graph(spec), spec.label()


def _parse_seeds(args: argparse.Namespace) -> List[int]:
    if args.seeds is not None:
        lo, sep, hi = args.seeds.partition(":")
        if not sep:
            raise ValueError("--seeds expects a half-open range like 0:1000")
        try:
            seeds = list(range(int(lo), int(hi)))
        except ValueError:
            raise ValueError(f"malformed seed range {args.seeds!r}") from None
        if not seeds:
            raise ValueError(f"seed range {args.seeds!r} is empty")
        return seeds
    return [args.seed]


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.gen is None or args.n is None:
        raise ValueError("generate requires --gen and --n")
    g, label = _resolve_graph(args)
    write_dimacs(g, args.output)
    print(f"wrote {args.output}: n={g.n} m={g.m} ({label})")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    g, label = _resolve_graph(args)
    config = TrialConfig(
        graph=g,
        algorithm=args.algorithm,
        seeds=_parse_seeds(args),
        ordering=args.ordering,
        check_oracle=args.check_oracle,
        detect_cycles=args.detect_cycles,
        strict_count=args.strict_count,
        source_label=label,
    )
    records = run_trials(config)
    text = emit_stats(records, args.format)
    if args.output is not None:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.fail_on_cycle and any(r.negative_cycle_found for r in records):
        return 3
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g, label = _resolve_graph(args)
    oracle = floyd_warshall(g)
    _, stats, verdict = run_with_detection(g, args.seed)  # before any output: it refuses a bad seed
    print(f"graph: n={g.n} m={g.m} ({label})")
    failures = 0
    if oracle.has_reachable_negative_cycle:
        ok = verdict.found
        print(f"oracle: negative cycle reachable from source")
        print(f"detector: {'ok' if ok else 'MISSED'} "
              f"(found={verdict.found}, iterations={stats.iterations})")
        failures += 0 if ok else 1
    else:
        row = oracle.dist[g.source]
        for name, engine in ENGINES.items():
            # The default config: identity ordering, non-strict counting.
            state, _ = engine(g, args.seed, TrialConfig(g, name, [args.seed]))
            ok = state.dist == row
            print(f"{name}: {'ok' if ok else 'MISMATCH'}")
            failures += 0 if ok else 1
        ok = not verdict.found
        print(f"detector: {'ok' if ok else 'FALSE POSITIVE'}")
        failures += 0 if ok else 1
    if failures:
        return 1
    if verdict.found and args.fail_on_cycle:
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaxbench",
        description="Instrumented Bellman-Ford variants with exact relaxation accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a generated instance as DIMACS .gr")
    _add_graph_source_args(p_gen)
    p_gen.add_argument("--output", type=Path, required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_run = sub.add_parser("run", help="run an engine over a seed batch")
    _add_graph_source_args(p_run)
    p_run.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    p_run.add_argument("--ordering", choices=ORDERINGS,
                       help="vertex ordering for --algorithm yen (default identity)")
    seeds = p_run.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=0)
    seeds.add_argument("--seeds", type=str, help="half-open range A:B")
    p_run.add_argument("--check-oracle", action="store_true",
                       help="check each trial's distances or cycle certificate in O(n + m)")
    p_run.add_argument("--detect-cycles", action="store_true")
    p_run.add_argument("--strict-count", action="store_true",
                       help="basic engine: count skipped relaxations too")
    p_run.add_argument("--fail-on-cycle", action="store_true")
    p_run.add_argument("--format", choices=FORMATS, default="csv")
    p_run.add_argument("--output", type=Path)
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify", help="check every engine against the exact oracle")
    _add_graph_source_args(p_ver)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--fail-on-cycle", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleMismatchError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _format_warning(message, category, filename, lineno, line=None) -> str:
    # A warning's source line is library internals (for the iteration cap, a
    # line of ENGINES) that a command's user cannot act on.
    return f"relaxbench: {category.__name__}: {message}\n"


def entry() -> None:
    """The ``relaxbench`` command: ``main`` with warnings printed without a source location."""
    warnings.formatwarning = _format_warning
    sys.exit(main())


if __name__ == "__main__":
    entry()
