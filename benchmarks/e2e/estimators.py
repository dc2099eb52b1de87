"""Estimators shared by the run, the comparison tool and the self-test.

Everything here is pure: lists of numbers in, numbers out.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with >= fraction below it.

    Nearest-rank never interpolates, so the reported tail is always a
    latency that actually happened.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie strictly beyond the percentile."""
    return count - max(1, math.ceil(fraction * count))


def normalised(raw: float, ref_ms: float, nominal_ms: float) -> float:
    """``raw`` as it would read on the nominal box: raw * nominal / ref."""
    return raw * nominal_ms / ref_ms


def quartile_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and IQR/median spread of one metric's runs.

    The spread is exactly what the benchmark driver computes: the distance
    between the first and third quartile of ``statistics.quantiles(values,
    n=4)`` as a share of the median.
    """
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def worse_by(base: float, change: float, better: str) -> float:
    """Relative amount ``change`` is worse than ``base`` (negative = better)."""
    if not base:
        return float("inf") if change != base else 0.0
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def verdict(
    base: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, object]:
    """Compare two run sets of one metric: ok / regressed / unresolved.

    ``unresolved`` means either side's own run-to-run spread is wider than
    the bound, so a difference of that size cannot be told from noise.
    """
    a = quartile_summary(base)
    b = quartile_summary(change)
    delta = worse_by(a["median"], b["median"], better)
    if max(a["spread"], b["spread"]) > bound:
        status = "unresolved"
    elif delta > bound:
        status = "regressed"
    else:
        status = "ok"
    return {"base": a, "change": b, "worse_by": delta, "status": status}


def median_or(values: Sequence[float], default: Optional[float] = 0.0) -> float:
    """Median of ``values``, or ``default`` for an empty sample."""
    return statistics.median(values) if values else default
