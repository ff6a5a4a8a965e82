"""The benchmark's statistics helper against hand-computed values."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import geomean, median, percentile, summarize, tail_percentile  # noqa: E402


def test_median_odd_and_even():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    assert median([7.0]) == 7.0


def test_geomean():
    assert geomean([1, 4]) == pytest.approx(2.0)
    assert geomean([2, 8, 4]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_percentile_nearest_rank():
    values = list(range(1, 11))  # 1..10
    assert percentile(values, 10) == 1
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 91) == 10
    assert percentile(values, 99) == 10
    assert percentile(values, 100) == 10
    # 1..1000: p99 is the 990th smallest, p99.9 the 999th.
    big = list(range(1, 1001))
    assert percentile(reversed(big), 99) == 990
    assert percentile(big, 99.9) == 999


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0, math.nan], 50)


def test_tail_needs_ten_samples_beyond_it():
    assert tail_percentile(39) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9


def test_summary_reports_median_alone_below_forty_samples():
    assert summarize(list(range(39))) == {"n": 39, "median": 19}
    summary = summarize(list(range(1, 101)))
    assert summary == {"n": 100, "median": 50.5, "p90": 90}
