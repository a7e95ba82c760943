"""Order statistics shared by the run report and the compare command."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values) -> tuple[float, float] | None:
    """(p, value) for the highest percentile with at least ten samples
    beyond it, or None when there are too few samples for any."""
    values = sorted(values)
    n = len(values)
    for p in _TAILS:
        rank = math.ceil(n * p / 100.0)  # nearest-rank percentile
        if rank >= 1 and n - rank >= 10:
            return p, values[rank - 1]
    return None


def describe(values, unit: str) -> str:
    """'median X unit, pP Y unit, n=N' (the tail only when it exists)."""
    values = list(values)
    if not values:
        return "no samples"
    text = f"median {median(values):.6g} {unit}"
    t = tail(values)
    if t:
        text += f", p{t[0]:g} {t[1]:.6g} {unit}"
    return text + f", n={len(values)}"
