"""Benchmark command line: generate instances, run engines, verify, emit stats.

Subcommands:
  generate   build an instance from generator flags and write it as DIMACS .gr
  run        run one engine over a seed batch, emit per-trial records
  verify     cross-check every engine and the detector against Floyd-Warshall

Exit codes: 0 success, 1 verification failure, 2 malformed input,
3 negative cycle detected under --fail-on-cycle.  Records are emitted in seed
order and are deterministic for identical inputs except for wall_time_ns.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields
from io import StringIO
from pathlib import Path
from typing import List, Optional, Sequence

from .dimacs import DimacsFormatError, load_dimacs, write_dimacs
from .engines import run_adaptive, run_basic, run_randomized, run_yen
from .generators import KINDS, GeneratorSpec, adversarial_ordering, build_graph
from .graph import Graph, identity_ordering, random_ordering
from .negcycle import run_with_detection
from .oracle import certify, floyd_warshall

FORMATS = ("csv", "json-lines")


class OracleMismatchError(Exception):
    """A trial's verdict failed its certificate check."""


@dataclass
class TrialConfig:
    """Everything one batch of trials needs; immutable while trials run."""

    graph: Graph
    algorithm: str
    seeds: Sequence[int]
    ordering: Optional[str] = None
    c: float = 2.0
    check_oracle: bool = False
    detect_cycles: bool = False
    strict_count: bool = False
    source_label: str = ""


@dataclass
class TrialRecord:
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
    c: float
    source: str


CSV_HEADER = ",".join(f.name for f in fields(TrialRecord))

# name -> (graph, seed) -> Ordering, for --algorithm yen.
ORDERINGS = {
    "identity": lambda g, seed: identity_ordering(g),
    "random": random_ordering,
    "adversarial": lambda g, seed: adversarial_ordering(g.n),
}

# name -> (graph, seed, config) -> (state, stats): the one engine dispatch,
# shared by ``run`` and ``verify``.  Detection is the randomized engine with
# one more stopping rule; its certificate is ``stats.negative_cycle``.
ENGINES = {
    "basic": lambda g, seed, config: run_basic(g, strict=config.strict_count),
    "adaptive": lambda g, seed, config: run_adaptive(g),
    "yen": lambda g, seed, config: run_yen(g, ORDERINGS[config.ordering or "identity"](g, seed)),
    "randomized": lambda g, seed, config: (run_with_detection(g, seed, config.c)
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
    """Execute one trial per seed, in seed order.

    A contradictory config raises ``ValueError`` before the first trial: an
    unknown algorithm or ordering, a flag of ``FLAG_NEEDS`` set for another
    algorithm, or the adversarial ordering off the path 0 -> 1 -> ... -> n-1
    with source 0.  ``ordering=None`` is the identity for ``yen``.

    With ``check_oracle`` every trial's verdict is checked by
    :func:`~relaxbench.oracle.certify` in O(n + m): a cycle against its hops,
    distances against feasibility and tight-edge reachability.  The first
    failure raises :class:`OracleMismatchError`.  Trials are independent;
    records come back in seed order regardless of how they ran.
    """
    engine = ENGINES.get(config.algorithm)
    if engine is None:
        raise ValueError(f"unknown algorithm {config.algorithm!r}")
    if config.ordering is not None and config.ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {config.ordering!r}")
    for flag, (field, needed) in FLAG_NEEDS.items():
        if getattr(config, field) and config.algorithm != needed:
            raise ValueError(f"{flag} needs algorithm {needed!r}, got {config.algorithm!r}")
    g = config.graph
    if config.ordering == "adversarial" and (
            g.source != 0
            or {(u, v) for u, v, _ in g.edges} != {(i, i + 1) for i in range(g.n - 1)}):
        raise ValueError(
            "the adversarial ordering needs the path 0 -> 1 -> ... -> n-1 with source 0")

    records: List[TrialRecord] = []
    for seed in config.seeds:
        start = time.perf_counter_ns()
        state, stats = engine(g, seed, config)
        wall = time.perf_counter_ns() - start

        flaw = certify(g, state.dist, stats.negative_cycle) if config.check_oracle else None
        if flaw is not None:
            if not config.detect_cycles and not stats.terminated_early:
                raise OracleMismatchError(
                    f"seed {seed}: {config.algorithm} stopped at its iteration cap and its "
                    f"distances fail the certificate ({flaw}); the input likely has a negative "
                    "cycle reachable from the source, where engine distances are undefined "
                    "(rerun with --detect-cycles)"
                )
            raise OracleMismatchError(
                f"seed {seed}: {config.algorithm} verdict fails its certificate: {flaw}"
            )

        records.append(TrialRecord(
            algorithm=config.algorithm,
            seed=seed,
            n=g.n,
            m=g.m,
            iterations=stats.iterations,
            relax_calls=stats.relax_calls,
            improvements=stats.improvements,
            wall_time_ns=wall,
            negative_cycle_found=stats.negative_cycle is not None,
            c=config.c,
            source=config.source_label,
        ))
    return records


def emit_stats(records: Sequence[TrialRecord], fmt: str) -> str:
    """Serialize records as CSV (fixed header) or JSON lines (same field names)."""
    if fmt == "csv":
        out = StringIO()
        out.write(CSV_HEADER + "\n")
        writer = csv.writer(out, lineterminator="\n")
        for r in records:
            row = (getattr(r, f.name) for f in fields(TrialRecord))
            writer.writerow(("true" if v else "false") if isinstance(v, bool) else v for v in row)
        return out.getvalue()
    if fmt == "json-lines":
        return "".join(json.dumps(asdict(r)) + "\n" for r in records)
    raise ValueError(f"unknown format {fmt!r}")


def _add_graph_source_args(parser: argparse.ArgumentParser) -> None:
    src = parser.add_argument_group("graph source (file or generator)")
    src.add_argument("--input", type=Path, help="DIMACS .gr file to load")
    src.add_argument("--source", type=int, default=1,
                     help="1-based source vertex id for file input (default 1)")
    src.add_argument("--gen", choices=KINDS, help="generator kind")
    src.add_argument("--n", type=int, help="vertex count for the generator")
    src.add_argument("--m", type=int, help="edge count for random kinds")
    src.add_argument("--density", type=float, help="edge density for random kinds")
    src.add_argument("--weight-min", type=int, default=-3)
    src.add_argument("--weight-max", type=int, default=7)
    src.add_argument("--graph-seed", type=int, default=0,
                     help="seed for the instance generator (not the engine)")
    src.add_argument("--ensure-reachable", action="store_true",
                     help="add a zero-weight spanning arborescence first")
    src.add_argument("--cycle-length", type=int, help="planted cycle length")
    src.add_argument("--cycle-weight", type=int, help="planted cycle total weight (negative)")


def _resolve_graph(args: argparse.Namespace) -> tuple[Graph, str]:
    if (args.input is None) == (args.gen is None):
        raise DimacsFormatError("exactly one of --input or --gen is required")
    if args.input is not None:
        g = load_dimacs(args.input, source=args.source)
        digest = hashlib.sha256(Path(args.input).read_bytes()).hexdigest()
        return g, f"file:{args.input.name}:sha256:{digest}"
    if args.n is None:
        raise DimacsFormatError("--gen requires --n")
    spec = GeneratorSpec(
        kind=args.gen,
        n=args.n,
        m=args.m,
        density=args.density,
        weight_min=args.weight_min,
        weight_max=args.weight_max,
        seed=args.graph_seed,
        ensure_reachable=args.ensure_reachable,
        cycle_length=args.cycle_length,
        cycle_weight=args.cycle_weight,
    )
    return build_graph(spec), spec.label()


def _parse_seeds(args: argparse.Namespace) -> List[int]:
    if args.seeds is not None:
        lo, sep, hi = args.seeds.partition(":")
        if not sep:
            raise DimacsFormatError("--seeds expects a half-open range like 0:1000")
        try:
            seeds = list(range(int(lo), int(hi)))
        except ValueError:
            raise DimacsFormatError(f"malformed seed range {args.seeds!r}") from None
        if not seeds:
            raise DimacsFormatError(f"seed range {args.seeds!r} is empty")
        return seeds
    return [args.seed]


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.gen is None or args.n is None:
        raise DimacsFormatError("generate requires --gen and --n")
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
        c=args.c,
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
    print(f"graph: n={g.n} m={g.m} ({label})")
    _, _, verdict = run_with_detection(g, args.seed, args.c)
    failures = 0
    if oracle.has_reachable_negative_cycle:
        ok = verdict.found
        print(f"oracle: negative cycle reachable from source")
        print(f"detector: {'ok' if ok else 'MISSED'} "
              f"(found={verdict.found}, iterations={verdict.iterations_used})")
        failures += 0 if ok else 1
    else:
        row = oracle.dist[g.source]
        for name, engine in ENGINES.items():
            # The default config: identity ordering, non-strict counting.
            state, _ = engine(g, args.seed, TrialConfig(g, name, [args.seed]))
            ok = [math.inf if d is None else d for d in state.dist] == row
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
    p_run.add_argument("--c", type=float, default=2.0,
                       help="confidence exponent for detection thresholds")
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
    p_ver.add_argument("--c", type=float, default=2.0)
    p_ver.add_argument("--fail-on-cycle", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DimacsFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleMismatchError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
