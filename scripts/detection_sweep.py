#!/usr/bin/env python3
"""Negative-cycle detection behaviour on planted and clean instances.

Reports at which iteration detection, at run_trials' c = 2.0, fires on
planted-cycle graphs and the deterministic cap it never exceeds.

Every run is certified (``check_oracle``), so a detection is a certificate:
a missed cycle fails ``certify`` on the distances and stops the study with
exit 1 instead of being counted.  The cycle-free graphs are the first --trials
random-sparse draws whose own certified run finds no cycle; the last line
counts the draws that took, each other draw holding a certified reachable
negative cycle.  At most DRAWS_PER_TRIAL times --trials graphs are drawn;
arguments whose graphs nearly always hold such a cycle exit 2 at that bound,
before printing anything, instead of drawing forever.
"""

import argparse
from collections import Counter

from relaxbench import GeneratorSpec, detection_start, iteration_cap, random_graph
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

    clean = draws = 0
    while clean < trials:
        if draws == DRAWS_PER_TRIAL * trials:
            parser.exit(2, f"error: {draws} random-sparse draws gave {clean} of {trials} "
                           "cycle-free graphs; lower --m\n")
        g = random_graph(GeneratorSpec(kind="random-sparse", n=n, m=args.m, seed=draws))
        draws += 1
        [record] = run_trials(TrialConfig(g, "randomized", [clean], check_oracle=True,
                                          detect_cycles=True))
        clean += not record.negative_cycle_found

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
    print(f"cycle-free instances: {trials} of {draws} random-sparse draws; "
          f"{draws - trials} held a reachable negative cycle")


if __name__ == "__main__":
    main()
