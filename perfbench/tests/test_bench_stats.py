import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402


@pytest.mark.parametrize("n", [11, 12, 39, 100, 1352])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    xs = [float(i) for i in range(n)]
    value, pct = stats.tail(reversed(xs))
    beyond = sum(x > value for x in xs)
    assert beyond == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)
    # one rank higher would leave only nine beyond
    assert sum(x > xs[xs.index(value) + 1] for x in xs) == 9


def test_tail_at_100_jobs_is_p90():
    value, pct = stats.tail(range(1, 101))
    assert (value, pct) == (90, 90.0)


def test_tail_with_ties_counts_samples_not_values():
    xs = [1.0] * 30 + [5.0] * 10
    value, pct = stats.tail(xs)
    assert value == 1.0 and pct == 75.0


def test_tail_falls_back_to_max_below_eleven_samples():
    assert stats.tail([3, 1, 2]) == (3, 100.0)
    assert stats.tail(range(10)) == (9, 100.0)


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        stats.tail([])


def test_spread_is_iqr_over_median():
    # exclusive quartiles of 1..10 are 2.75 and 8.25; the median is 5.5
    assert stats.spread(range(1, 11)) == pytest.approx(1.0)
    assert stats.spread([4.0] * 10) == 0.0
