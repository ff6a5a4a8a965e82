"""Summary statistics for the benchmark, always computed from raw samples.

Every summary carries its sample count.  Percentiles are exact order
statistics (nearest rank on the sorted samples), never read off a bucketed
histogram.  A timing with fewer than :data:`MIN_TAIL_SAMPLES` samples is
summarized by its median alone: a high percentile of a handful of values is
not a tail.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "MIN_TAIL_SAMPLES",
    "median",
    "geomean",
    "percentile",
    "tail_percentile",
    "summarize",
]

MIN_TAIL_SAMPLES = 40


def _sorted(samples: Iterable[float]) -> List[float]:
    values = sorted(float(v) for v in samples)
    if not values:
        raise ValueError("no samples")
    for value in values:
        if math.isnan(value):
            raise ValueError("NaN sample")
    return values


def median(samples: Iterable[float]) -> float:
    """The middle sample; the mean of the two middle samples for an even count."""
    values = _sorted(samples)
    n = len(values)
    mid = n // 2
    if n % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2.0


def geomean(samples: Iterable[float]) -> float:
    """Geometric mean of strictly positive samples."""
    values = _sorted(samples)
    if values[0] <= 0:
        raise ValueError(f"geometric mean needs positive samples, got {values[0]!r}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(samples: Iterable[float], q: float) -> float:
    """The exact ``q``-th percentile (0 < q <= 100) by the nearest-rank rule.

    The result is the smallest sample with at least ``q`` percent of the
    samples at or below it, so it is always one of the samples.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q!r}")
    values = _sorted(samples)
    # Exact decimal arithmetic: 99.9% of 1000 samples is rank 999, not 1000.
    rank = math.ceil(Fraction(str(q)) * len(values) / 100)
    return values[max(rank, 1) - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest of p99.9/p99/p90 that leaves at least ten samples beyond it."""
    # (percentile, 1 / share of samples beyond it), in exact integers.
    for q, inverse_share in ((99.9, 1000), (99.0, 100), (90.0, 10)):
        if count >= 10 * inverse_share:
            return q
    return None


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median and sample count, plus the reportable tail when there is one."""
    summary: Dict[str, float] = {"n": len(samples), "median": median(samples)}
    if len(samples) >= MIN_TAIL_SAMPLES:
        q = tail_percentile(len(samples))
        if q is not None:
            summary[f"p{q:g}"] = percentile(samples, q)
    return summary
