"""Percentiles under the suite's reporting rule.

A timing is reported as its median plus the highest percentile that
still has at least ten samples beyond it; a tail percentile the sample
cannot support is reported as ``None`` rather than as a number that is
really the maximum.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10

#: Tail percentiles the suite may report, lowest first.
LADDER = (90.0, 95.0, 99.0, 99.9)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supports(count: int, pct: float) -> bool:
    """Do ``count`` samples leave at least ten beyond percentile ``pct``?"""
    # Rounded: 0.01 * 1000 is 10.000000000000009 in floating point.
    return round(count * (100.0 - pct) / 100.0, 6) >= MIN_BEYOND


def highest_supported(count: int) -> float | None:
    """The highest ladder percentile ``count`` samples support."""
    best = None
    for pct in LADDER:
        if supports(count, pct):
            best = pct
    return best


def median(samples: Sequence[float]) -> float | None:
    return percentile(samples, 50.0) if samples else None


def tail(samples: Sequence[float], pct: float) -> float | None:
    """Percentile ``pct``, or ``None`` when the sample is too small."""
    if not samples or not supports(len(samples), pct):
        return None
    return percentile(samples, pct)
