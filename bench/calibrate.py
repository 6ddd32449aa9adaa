"""A fixed unit of pure-Python work that measures how fast the machine runs now.

The benchmark shares a few cores of a host whose speed, seen from inside, swings
by up to 1.7x within seconds and drifts between runs.  The swings slow the
library's pure-Python code and this unit alike, so the closed loop runs a unit
before every op and scales each op's wall time by how long the units around it
took: ``reference time = wall time x REF_UNIT_S / local median unit time``.

The unit is an integer loop plus building and sorting a dict of small tuples,
lists and strings.  Of the candidates tried (also relaxations over an edge
list, a binary-heap Dijkstra and method calls on a slotted object), this mix
tracked the speed of all three workloads best: interleaved with their ops on a
2 vCPU host, the log of op time moved with the log of unit time at a slope of
0.8 to 1.1, and scaling cut the standard deviation of log op time between
4-second windows from 0.11-0.17 to 0.03-0.06.  The unit's code is the benchmark's own and takes no
input, so it is the same on every run, seed and commit.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_UNIT_S = 0.004  # what one unit takes at reference speed (2 vCPU host, quiet)
HALF_WINDOW_S = 2.0  # units within this many seconds of an op set its speed


def _unit() -> int:
    total = 0
    for i in range(60_000):
        total += i
    table = {}
    for i in range(3000):
        table[i] = (i, [i, i + 1], str(i))
    return total + sorted(table.items(), key=lambda item: -item[0])[0][0]


def measure(units: int) -> float:
    """Seconds that one unit took, averaged over ``units`` run back to back."""
    t0 = time.perf_counter()
    for _ in range(units):
        _unit()
    return (time.perf_counter() - t0) / units


def speeds(at: list[float], unit_s: list[float]) -> list[float]:
    """Machine speed relative to reference at each time in ``at`` (sorted).

    ``unit_s[i]`` is the unit time measured at ``at[i]``; the speed at ``at[i]``
    is REF_UNIT_S over the median unit time within HALF_WINDOW_S of it.
    """
    out = []
    for t in at:
        lo = bisect.bisect_left(at, t - HALF_WINDOW_S)
        hi = bisect.bisect_right(at, t + HALF_WINDOW_S)
        out.append(REF_UNIT_S / statistics.median(unit_s[lo:hi]))
    return out
