import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxbench import count_local_minima, local_minima_tail_threshold


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
        local_minima_tail_threshold(2, 1.0)
    with pytest.raises(ValueError):
        local_minima_tail_threshold(10, 0.0)


@pytest.mark.parametrize("c", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_tail_threshold_refuses_c_that_is_not_positive_and_finite(c):
    with pytest.raises(ValueError, match=f"c must be positive and finite, got {c}"):
        local_minima_tail_threshold(10, c)


def test_tail_exceedance_frequency_matches_bound():
    # n=50, c=1: P(count > threshold) <= 1/50; check the empirical rate.
    n, c, trials = 50, 1.0, 100_000
    threshold = local_minima_tail_threshold(n, c)
    rng = random.Random(2024)
    values = list(range(n))
    exceed = 0
    for _ in range(trials):
        rng.shuffle(values)
        if count_local_minima(values) > threshold:
            exceed += 1
    bound = 1 / n
    se = math.sqrt(bound * (1 - bound) / trials)
    assert exceed / trials <= bound + 4 * se


@given(n=st.integers(3, 30), idx=st.integers(0, 29), bump=st.integers(0, 29))
@settings(max_examples=200)
def test_single_element_change_moves_count_by_at_most_two(n, idx, bump):
    idx %= n
    base = [2 * k for k in random.Random(n * 31 + idx).sample(range(n), n)]
    changed = list(base)
    changed[idx] = 2 * (bump % n) + 1  # odd: never collides with the evens
    delta = count_local_minima(changed) - count_local_minima(base)
    assert abs(delta) <= 2

