"""Local-minima counts of rank sequences.

The iteration count of the partitioned engines on a single-path instance is
governed by how often the rank sequence along the path dips: every interior
local minimum costs one extra outer iteration.  These helpers quantify that,
plus the tail threshold used to reason about unusually slow orderings.
"""

from __future__ import annotations

import math
from typing import Sequence

from .graph import _check_index


def count_local_minima(values: Sequence[float]) -> int:
    """Number of interior elements strictly smaller than both neighbours.

    Endpoints are never counted.  Rejects sequences with duplicate values;
    ranks are bijective so ties cannot occur in legal inputs.
    """
    if len(values) == 0:
        raise ValueError("sequence must have length >= 1")
    if len(set(values)) != len(values):
        raise ValueError("sequence values must be distinct")
    return sum(
        1
        for j in range(1, len(values) - 1)
        if values[j] < values[j - 1] and values[j] < values[j + 1]
    )


def check_c(c: float) -> None:
    """Refuse a confidence exponent c that is not positive and finite."""
    # NaN fails both comparisons, so it is refused with the infinities.
    if not 0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c}")


def local_minima_tail_threshold(n: int, c: float) -> float:
    """(n-2)/3 + sqrt(2*c*n*ln n): exceeded with probability at most 1/n^c.

    Uses the natural logarithm.  Requires n >= 3 (no interior otherwise)
    and a positive, finite c.
    """
    n = _check_index(n, "n", 3)
    check_c(c)
    return (n - 2) / 3 + math.sqrt(2 * c * n * math.log(n))
