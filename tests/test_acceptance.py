"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``
to see the full report.  All randomness is seed-pinned, so outcomes are
reproducible.
"""

import math
import statistics
import time
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from relaxbench import (
    GeneratorSpec,
    adversarial_ordering,
    complete_over_path,
    count_local_minima,
    floyd_warshall,
    identity_ordering,
    iteration_cap,
    iteration_threshold,
    monte_carlo_dense_detect,
    random_graph,
    run_adaptive,
    run_basic,
    run_randomized,
    run_with_detection,
    run_yen,
    worst_case_path,
)

from helpers import all_orderings, as_inf


def _report(num, name, ok, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {name} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def _sparse_spec(instance, n_lo=2, n_hi=6, weight_min=-3, weight_max=7):
    n = n_lo + instance % (n_hi - n_lo + 1)
    m = (instance * 7919) % (n * (n - 1) + 1)
    return GeneratorSpec(kind="random-sparse", n=n, m=m, weight_min=weight_min,
                         weight_max=weight_max, seed=instance)


def test_criterion_01_oracle_equivalence():
    target, start = 10_000, time.perf_counter()
    accepted = instance = 0
    while accepted < target:
        g = random_graph(_sparse_spec(instance))
        instance += 1
        result = floyd_warshall(g)
        if result.has_reachable_negative_cycle:
            continue
        expected = result.dist[g.source]
        states = (
            run_basic(g)[0],
            run_adaptive(g)[0],
            run_yen(g, identity_ordering(g))[0],
            run_randomized(g, accepted)[0],
        )
        for state in states:
            if as_inf(state.dist) != expected:
                _report(1, "oracle equivalence", False,
                        f"mismatch on instance {instance - 1}")
        accepted += 1
    elapsed = time.perf_counter() - start
    _report(1, "oracle equivalence", elapsed < 60.0,
            f"({target} cycle-free graphs from {instance} candidates, "
            f"all four engines exact, {elapsed:.1f}s)")


def test_criterion_02_exact_basic_count():
    for instance in range(100):
        n = 2 + instance % 9
        m = (instance * 31) % 21
        g = random_graph(GeneratorSpec(kind="random-sparse", n=n,
                                       m=min(m, n * (n - 1)), seed=instance))
        _, stats = run_basic(g, strict=True)
        if stats.relax_calls != g.m * (g.n - 1):
            _report(2, "exact basic count", False,
                    f"instance {instance}: {stats.relax_calls} != m(n-1)")
    _report(2, "exact basic count", True, "(100 instances, zero tolerance)")


def test_criterion_03_local_minima_expectation():
    start = time.perf_counter()
    for n in range(3, 9):
        total = sum(count_local_minima(p) for p in permutations(range(n)))
        mean = Fraction(total, math.factorial(n))
        if mean != Fraction(n - 2, 3):
            _report(3, "local-minima expectation", False, f"n={n}: mean={mean}")
    elapsed = time.perf_counter() - start
    _report(3, "local-minima expectation", elapsed < 10.0,
            f"(n=3..8 exhaustive, exact rational mean, {elapsed:.1f}s)")


@lru_cache(maxsize=None)
def _randomized_iterations_path100():
    g = worst_case_path(100)
    return tuple(run_randomized(g, seed)[1].iterations for seed in range(1000))


def test_criterion_04_randomized_iteration_expectation():
    start = time.perf_counter()
    counts = _randomized_iterations_path100()
    mean = statistics.fmean(counts)
    se = statistics.stdev(counts) / math.sqrt(len(counts))
    target = (100 + 3) / 3
    ok = abs(mean - target) <= 4 * se and abs(mean - target) <= 0.03 * target
    elapsed = time.perf_counter() - start
    _report(4, "randomized iteration expectation",
            ok and elapsed < 30.0,
            f"(mean={mean:.3f}, target={target:.3f}, 4*se={4 * se:.3f}, {elapsed:.1f}s)")


def test_criterion_05_relaxation_bound():
    details = []
    for n in (30, 100, 300):
        g = worst_case_path(n)
        m = g.m
        calls = [run_randomized(g, seed)[1].relax_calls for seed in range(500)]
        mean = statistics.fmean(calls)
        expected_bound = m * n / 3 + m
        tail_bound = expected_bound + m * math.sqrt(2 * n * math.log(n))
        frac = sum(1 for x in calls if x > tail_bound) / len(calls)
        limit = 1 / n + 4 * math.sqrt((1 / n) * (1 - 1 / n) / len(calls))
        if mean > expected_bound or frac > limit:
            _report(5, "relaxation bound", False,
                    f"n={n}: mean={mean:.1f} bound={expected_bound:.1f} frac={frac:.3f}")
        details.append(f"n={n}: mean={mean:.0f}<={expected_bound:.0f}, tail={frac:.3f}")
    _report(5, "relaxation bound", True, f"({'; '.join(details)})")


def test_criterion_06_yen_worst_case_realized():
    g = worst_case_path(100)
    _, stats = run_yen(g, adversarial_ordering(100))
    randomized_mean = statistics.fmean(_randomized_iterations_path100())
    ratio = randomized_mean / stats.iterations
    ok = stats.iterations >= 48 and 0.66 <= ratio <= 0.72
    _report(6, "yen worst case realized", ok,
            f"(adversarial iterations={stats.iterations}, randomized mean="
            f"{randomized_mean:.2f}, ratio={ratio:.3f})")


def test_criterion_07_iteration_vs_local_minima_identity():
    runs = 0
    for n in range(2, 8):
        g = worst_case_path(n)
        for ordering in all_orderings(g):
            _, stats = run_yen(g, ordering)
            minima = count_local_minima([ordering.rank[v] for v in range(n)])
            if stats.iterations != 2 + minima:
                _report(7, "iteration identity", False,
                        f"n={n} rank={ordering.rank}: {stats.iterations} != 2+{minima}")
            runs += 1
    _report(7, "iteration identity", True,
            f"({runs} orderings across n=2..7, zero tolerance)")


def test_criterion_08_negative_cycle_detection():
    n, trials = 12, 500
    cap = iteration_cap(n)
    late_cutoff = iteration_threshold(n, 2.0) + 1
    late = 0
    for seed in range(trials):
        g = random_graph(GeneratorSpec(kind="planted-cycle", n=n, m=24,
                                       seed=seed, cycle_length=3, cycle_weight=-1))
        _, stats, verdict = run_with_detection(g, seed, c=2.0)
        cycle = stats.negative_cycle
        ok = verdict.found and stats.iterations <= cap and cycle
        if ok:
            pairs = {}
            for u, v, w in g.edges:
                pairs[(u, v)] = min(w, pairs.get((u, v), math.inf))
            hops = list(zip(cycle, cycle[1:] + cycle[:1]))
            ok = all(h in pairs for h in hops) and sum(pairs[h] for h in hops) < 0
        if not ok:
            _report(8, "negative-cycle detection", False, f"planted seed {seed}")
        if stats.iterations > late_cutoff:
            late += 1
    late_limit = 1 / n + 4 * math.sqrt((1 / n) * (1 - 1 / n) / trials)
    if late / trials > late_limit:
        _report(8, "negative-cycle detection", False,
                f"late fraction {late / trials:.3f} > {late_limit:.3f}")

    clean = 0
    seed = 0
    false_hits = 0
    while clean < trials:
        g = random_graph(GeneratorSpec(kind="random-sparse", n=n, m=24, seed=seed))
        seed += 1
        if floyd_warshall(g).has_reachable_negative_cycle:
            continue
        _, _, verdict = run_with_detection(g, clean, c=2.0)
        false_hits += verdict.found
        clean += 1
    _report(8, "negative-cycle detection", false_hits == 0,
            f"({trials} planted all found within {cap} iterations, late={late}; "
            f"{trials} cycle-free with {false_hits} false detections)")


def test_criterion_09_monte_carlo_dense_detector():
    n, trials = 30, 200
    false_cycles = 0
    for seed in range(trials):
        g = random_graph(GeneratorSpec(kind="random-dense", n=n, weight_min=0,
                                       weight_max=9, seed=seed))
        false_cycles += monte_carlo_dense_detect(g, seed, c=2.0)[2].found
    missed = 0
    for seed in range(trials):
        g = random_graph(GeneratorSpec(kind="planted-cycle", n=n, m=n * (n - 1),
                                       weight_min=0, weight_max=9, seed=seed,
                                       cycle_length=3, cycle_weight=-1))
        missed += not monte_carlo_dense_detect(g, seed, c=2.0)[2].found
    _report(9, "monte carlo dense detector", false_cycles == 0 and missed == 0,
            f"({trials} cycle-free: {false_cycles} false verdicts; "
            f"{trials} planted: {trials - missed} detected)")


def test_criterion_10_dense_relaxation_bound():
    n, trials = 100, 200
    g = complete_over_path(n)
    result = floyd_warshall(g)
    tree_ok = (result.dist[0] == [float(v) for v in range(n)]
               and sorted(result.sp_edges) == [(i, i + 1, 1.0) for i in range(n - 1)])
    if not tree_ok:
        _report(10, "dense relaxation bound", False, "oracle rejected the instance")
    calls = [run_randomized(g, seed)[1].relax_calls for seed in range(trials)]
    mean = statistics.fmean(calls)
    bound = n**3 / 6
    _report(10, "dense relaxation bound", mean <= bound,
            f"(mean relax calls {mean:.0f} <= n^3/6 = {bound:.0f} over {trials} seeds)")
