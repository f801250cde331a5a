"""Summary statistics the benchmark reports: median, tail percentile, spread."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10
MIN_TAIL_PCT = 50.0  # a "tail" below the median is no tail


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float] | None:
    """The highest percentile that has at least `beyond` samples above it.

    With n samples that is the value at rank n - beyond (the (beyond+1)-th
    largest), the 100 * (n - beyond) / n percentile.  Returns (percentile,
    value), or None when that percentile would fall below the median.
    """
    n = len(values)
    pct = 100.0 * (n - beyond) / n if n else 0.0
    if pct < MIN_TAIL_PCT:
        return None
    return pct, sorted(values)[n - beyond - 1]


def relative_iqr(values: list[float]) -> float | None:
    """Distance between first and third quartile as a share of the median (None if it is 0)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None
