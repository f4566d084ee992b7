"""Order statistics for benchmark samples."""

from __future__ import annotations

import statistics
from typing import Sequence

__all__ = ["STANDARD_PERCENTILES", "percentile", "quartiles", "tail_percentile"]

#: Percentiles a timing distribution is reported at, lowest first.
STANDARD_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is only reported when this many samples lie beyond it.
MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of ``pct`` among ``n`` samples, in integer
    arithmetic on tenths of a percent (0.999 * 10000 is not 9990.0)."""
    tenths = round(pct * 10)
    return max(1, -(-tenths * n // 1000))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the smallest sample with at least
    ``pct`` percent of the samples at or below it)."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(pct, len(samples)) - 1]


def tail_percentile(samples: Sequence[float]) -> tuple[float, float, int] | None:
    """``(pct, value, n)`` for the highest standard percentile that has
    at least :data:`MIN_BEYOND` samples beyond its rank; ``None`` when
    even the median lacks them."""
    n = len(samples)
    best = None
    for pct in STANDARD_PERCENTILES:
        if n - _rank(pct, n) >= MIN_BEYOND:
            best = pct
    if best is None:
        return None
    return best, percentile(samples, best), n


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; one value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3
