"""Summary statistics for the benchmark's samples."""

from __future__ import annotations

import math

# Percentiles a tail metric may report, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def median(values) -> float:
    v = sorted(values)
    if not v:
        raise ValueError("median of no samples")
    mid = len(v) // 2
    return float(v[mid]) if len(v) % 2 else (v[mid - 1] + v[mid]) / 2.0


def nearest_rank(values, pct: float) -> float:
    """The nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    v = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(v) - 1e-9))
    return float(v[rank - 1])


def samples_beyond(n: int, pct: float) -> int:
    return n - max(1, math.ceil(pct / 100.0 * n - 1e-9))


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least MIN_BEYOND of n samples beyond it."""
    ok = [p for p in TAIL_PERCENTILES if samples_beyond(n, p) >= MIN_BEYOND]
    return ok[-1] if ok else None
