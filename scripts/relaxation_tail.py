#!/usr/bin/env python3
"""Empirical relaxation-count tail of the randomized engine.

On the single-path worst case, counts how often a run exceeds the expected
bound m*n/3 + m and the high-probability bound with the sqrt(2*c*n*ln n)
tail term, and compares the exceedance rate with 1/n^c.
"""

import argparse
import math
import statistics

from relaxbench import worst_case_path
from relaxbench.cli import TrialConfig, run_trials


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--c", type=float, default=1.0)
    args = parser.parse_args()
    if args.trials < 1 or args.n < 2 or not 0 < args.c < math.inf:
        parser.exit(2, "error: needs --trials >= 1, --n >= 2 and a positive, finite --c\n")

    g = worst_case_path(args.n)
    m, n, c = g.m, args.n, args.c
    calls = [r.relax_calls for r in run_trials(TrialConfig(g, "randomized", range(args.trials)))]
    expected_bound = m * n / 3 + m
    tail_bound = expected_bound + m * math.sqrt(2 * c * n * math.log(n))
    over_expected = sum(x > expected_bound for x in calls) / args.trials
    over_tail = sum(x > tail_bound for x in calls) / args.trials

    print(f"n={n} m={m} trials={args.trials} c={c}")
    print(f"mean relax calls      {statistics.fmean(calls):12.1f}")
    print(f"max relax calls       {max(calls):12d}")
    print(f"expected bound        {expected_bound:12.1f}  exceeded: {over_expected:.4f}")
    print(f"high-probability bound{tail_bound:12.1f}  exceeded: {over_tail:.4f}")
    print(f"1/n^c reference       {1 / n**c:12.4f}")


if __name__ == "__main__":
    main()
