#!/usr/bin/env python3
"""Negative-cycle detection behaviour on planted and clean instances.

Reports at which iteration detection fires on planted-cycle graphs, the
deterministic cap it never exceeds, and the false-positive count on
oracle-verified cycle-free graphs.
"""

import argparse
from collections import Counter

from relaxbench import (
    GeneratorSpec,
    detection_start,
    floyd_warshall,
    iteration_cap,
    random_graph,
    run_with_detection,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=12)
    parser.add_argument("--m", type=int, default=24)
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--c", type=float, default=2.0)
    args = parser.parse_args()

    n, trials = args.n, args.trials
    print(f"n={n} m={args.m} trials={trials} c={args.c} "
          f"check-start={detection_start(n, args.c)} cap={iteration_cap(n)}")

    fired_at = Counter()
    for seed in range(trials):
        g = random_graph(GeneratorSpec(kind="planted-cycle", n=n, m=args.m,
                                       seed=seed, cycle_length=3, cycle_weight=-1))
        _, stats, verdict = run_with_detection(g, seed, c=args.c)
        assert verdict.found
        fired_at[stats.iterations] += 1
    print("planted instances, detection fired at iteration:")
    for iteration in sorted(fired_at):
        print(f"  {iteration:3d}: {fired_at[iteration]}")

    false_hits = 0
    clean = seed = 0
    while clean < trials:
        g = random_graph(GeneratorSpec(kind="random-sparse", n=n, m=args.m, seed=seed))
        seed += 1
        if floyd_warshall(g).has_reachable_negative_cycle:
            continue
        _, _, verdict = run_with_detection(g, clean, c=args.c)
        false_hits += verdict.found
        clean += 1
    print(f"cycle-free instances: {false_hits} false detections out of {trials}")


if __name__ == "__main__":
    main()
