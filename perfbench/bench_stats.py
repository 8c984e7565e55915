"""Exact order statistics over raw per-request samples.

The benchmark never bins latencies: every sample is kept, and each
percentile is reported with the number of samples it was taken from.
"""

from __future__ import annotations

import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    """The exact median (0.0 for an empty sample)."""
    return statistics.median(values) if values else 0.0


def low_quartile(values: Sequence[float]) -> float:
    """The first quartile, interpolated between samples (the one value
    of a single sample)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile that still has ten samples beyond it.

    Returns ``(value, percentile, sample_count)``.  With twenty samples
    or fewer that percentile would not lie above the median, so the
    median is returned, labelled as the 50th percentile.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= 20:
        return median(ordered), 50.0, count
    # ordered[count - 11] has exactly ten samples above it.
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def frac(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0
