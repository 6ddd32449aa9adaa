import math
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxbench import count_local_minima, local_minima_tail_threshold
from relaxbench.graph import MAX_COUNT

from helpers import local_minima_law


def test_count_local_minima_examples():
    assert count_local_minima([1, 2, 3]) == 0
    assert count_local_minima([3, 1, 2]) == 1
    assert count_local_minima([5]) == 0
    assert count_local_minima([2, 1]) == 0  # endpoints never count


def test_count_local_minima_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        count_local_minima([1, 1, 2])
    with pytest.raises(ValueError):
        count_local_minima([])


def test_mean_minima_over_length_four_permutations():
    total = sum(count_local_minima(p) for p in permutations(range(4)))
    assert Fraction(total, math.factorial(4)) == Fraction(2, 3)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_exact_expectation_small(n):
    total = sum(count_local_minima(p) for p in permutations(range(n)))
    assert Fraction(total, math.factorial(n)) == Fraction(n - 2, 3)


def test_tail_threshold_values():
    assert local_minima_tail_threshold(3, 1e-12) == pytest.approx(1 / 3, abs=1e-5)
    expected = 98 / 3 + math.sqrt(200 * math.log(100))
    assert local_minima_tail_threshold(100, 1.0) == expected


def test_tail_threshold_rejects_bad_args():
    with pytest.raises(ValueError):
        local_minima_tail_threshold(10, 0.0)
    with pytest.raises(ValueError, match="^n must be >= 3, got 2$"):
        local_minima_tail_threshold(2, 1.0)
    with pytest.raises(ValueError, match=r"^n must be an integer, got 10\.0$"):
        local_minima_tail_threshold(10.0, 1.0)
    with pytest.raises(ValueError, match=f"^n {MAX_COUNT + 1} is above MAX_COUNT = {MAX_COUNT}$"):
        local_minima_tail_threshold(MAX_COUNT + 1, 1.0)


@pytest.mark.parametrize("c", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_tail_threshold_refuses_c_that_is_not_positive_and_finite(c):
    with pytest.raises(ValueError, match=f"c must be positive and finite, got {c}"):
        local_minima_tail_threshold(10, c)


def test_local_minima_law_matches_enumeration():
    for length in range(1, 9):
        counts = Counter(count_local_minima(p) for p in permutations(range(length)))
        exact = [Fraction(counts[k], math.factorial(length)) for k in range(max(counts) + 1)]
        assert local_minima_law(length, Fraction(1)) == exact


def test_tail_exceedance_frequency_matches_bound():
    # The exact law, not a sample.  At each (n, c) the threshold is below the
    # largest count a permutation can have, so the bound is not met vacuously.
    laws = {n: local_minima_law(n) for n in (500, 1000)}
    for n, c in ((500, 1.0), (1000, 1.0), (1000, 2.0)):
        threshold = local_minima_tail_threshold(n, c)
        assert threshold < len(laws[n]) - 1
        assert sum(p for k, p in enumerate(laws[n]) if k > threshold) <= n ** -c


@given(n=st.integers(3, 30), idx=st.integers(0, 29), bump=st.integers(0, 29))
@settings(max_examples=200)
def test_single_element_change_moves_count_by_at_most_two(n, idx, bump):
    idx %= n
    base = [2 * k for k in random.Random(n * 31 + idx).sample(range(n), n)]
    changed = list(base)
    changed[idx] = 2 * (bump % n) + 1  # odd: never collides with the evens
    delta = count_local_minima(changed) - count_local_minima(base)
    assert abs(delta) <= 2

