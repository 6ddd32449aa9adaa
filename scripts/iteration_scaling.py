#!/usr/bin/env python3
"""Mean outer iterations of the randomized engine on single-path instances.

Sweeps n and compares the sample mean against (n+3)/3 and against the
fixed adversarial ordering, printing one table row per n.
"""

import argparse
import math
import statistics

from relaxbench import worst_case_path
from relaxbench.cli import TrialConfig, run_trials


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[10, 30, 100, 300])
    parser.add_argument("--trials", type=int, default=500)
    args = parser.parse_args()
    if args.trials < 2 or min(args.sizes) < 2:
        parser.exit(2, "error: --trials and every --sizes value must be at least 2\n")

    print(f"{'n':>5} {'mean':>8} {'(n+3)/3':>8} {'stderr':>7} {'adversarial':>11} {'ratio':>6}")
    for n in args.sizes:
        g = worst_case_path(n)
        counts = [r.iterations for r in run_trials(TrialConfig(g, "randomized", range(args.trials)))]
        mean = statistics.fmean(counts)
        se = statistics.stdev(counts) / math.sqrt(args.trials)
        [adv] = run_trials(TrialConfig(g, "yen", [0], ordering="adversarial"))
        print(f"{n:>5} {mean:>8.3f} {(n + 3) / 3:>8.3f} {se:>7.3f} "
              f"{adv.iterations:>11} {mean / adv.iterations:>6.3f}")


if __name__ == "__main__":
    main()
