"""Percentiles, tails and spreads over measured samples."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile; ``inf`` samples (failed
    requests) sort last, so they count as missing every limit."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    lo, hi = math.floor(position), math.ceil(position)
    if math.isinf(ordered[hi]):
        return math.inf
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def beyond(count: int, q: float) -> int:
    """Samples that lie beyond the ``q``-th percentile of ``count``."""
    return int(count * (100 - q) // 100)


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest of p90 and p99 with at least ten samples beyond it
    (p90 when neither has ten), with which one and how many lie beyond."""
    q = 99 if beyond(len(values), 99) >= 10 else 90
    return {"value": percentile(values, q), "percentile": q,
            "beyond": beyond(len(values), q), "samples": len(values)}


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else math.inf


def summary(samples: Sequence[float]) -> Dict[str, object]:
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "samples": list(samples),
    }
