#!/usr/bin/env python3
"""Negative-cycle detection behaviour on planted and clean instances.

Reports at which iteration detection, at run_trials' c = 2.0, fires on
planted-cycle graphs (each found cycle certified), the deterministic cap it
never exceeds, and the false positives on oracle-verified cycle-free graphs.

The cycle-free graphs are random-sparse draws that Floyd-Warshall finds
free of reachable negative cycles.  At most DRAWS_PER_TRIAL times --trials
graphs are drawn; arguments whose graphs nearly always hold such a cycle
exit 2 at that bound, before printing anything, instead of drawing forever.
"""

import argparse
from collections import Counter

from relaxbench import GeneratorSpec, detection_start, floyd_warshall, iteration_cap, random_graph
from relaxbench.cli import TrialConfig, run_trials

DRAWS_PER_TRIAL = 1000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=12)
    parser.add_argument("--m", type=int, default=24)
    parser.add_argument("--trials", type=int, default=500)
    args = parser.parse_args()
    n, trials = args.n, args.trials
    if trials < 1 or not 3 <= n <= args.m + 1 <= n * (n - 1) + 1:
        parser.exit(2, "error: needs --trials >= 1, --n >= 3 and n-1 <= --m <= n(n-1)\n")
    planted = GeneratorSpec(kind="planted-cycle", n=n, m=args.m, cycle_length=3, cycle_weight=-1)

    false_hits = clean = seed = 0
    while clean < trials:
        if seed == DRAWS_PER_TRIAL * trials:
            parser.exit(2, f"error: {seed} random-sparse draws gave {clean} of {trials} "
                           "cycle-free graphs; lower --m\n")
        g = random_graph(GeneratorSpec(kind="random-sparse", n=n, m=args.m, seed=seed))
        seed += 1
        if floyd_warshall(g).has_reachable_negative_cycle:
            continue
        [record] = run_trials(TrialConfig(g, "randomized", [clean], detect_cycles=True))
        false_hits += record.negative_cycle_found
        clean += 1

    print(f"n={n} m={args.m} trials={trials} c=2.0 "
          f"check-start={detection_start(n, 2.0)} cap={iteration_cap(n)}")

    fired_at = Counter()
    for seed in range(trials):
        g = random_graph(planted._replace(seed=seed))
        [record] = run_trials(TrialConfig(g, "randomized", [seed], check_oracle=True,
                                          detect_cycles=True))
        fired_at[record.iterations] += 1
    print("planted instances, detection fired at iteration:")
    for iteration in sorted(fired_at):
        print(f"  {iteration:3d}: {fired_at[iteration]}")
    print(f"cycle-free instances: {false_hits} false detections out of {trials}")


if __name__ == "__main__":
    main()
