"""Cohort-level CLV models: discounted retention formula, retention-curve
and monetization-curve projections, and Kaplan-Meier survival estimation.

These treat the cohort as homogeneous; per-customer models live in the
btyd and markov modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError, NumericalError

MON_FLOOR = 1e-9


@dataclass(frozen=True)
class BasicCLVConfig:
    """Inputs of the constant-rate discounted CLV formula.

    gross_margin and promotion_cost are per period; retention is the
    period-to-period survival rate; discount_rate is per period.
    """

    gross_margin: float
    promotion_cost: float
    n_periods: int
    retention: float
    discount_rate: float

    def __post_init__(self):
        for name in ("gross_margin", "promotion_cost", "discount_rate"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DataError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.retention <= 1.0:
            raise DataError("retention must lie in [0, 1]")
        if self.discount_rate < 0:
            raise DataError("discount_rate must be >= 0")
        if self.n_periods < 0:
            raise DataError("n_periods must be >= 0")


def basic_clv(config: BasicCLVConfig) -> float:
    """Discounted margin minus mid-period discounted promotion costs.

    Revenue: GC * sum_{i=0..n} r^i / (1+d)^i.
    Promotion: M * sum_{i=1..n} r^(i-1) / (1+d)^(i-0.5); the sum starts at
    i=1 so the retention exponent stays non-negative, with costs discounted
    mid-period.
    """
    gc, m = config.gross_margin, config.promotion_cost
    n, r, d = config.n_periods, config.retention, config.discount_rate
    i = np.arange(0, n + 1)
    revenue = gc * float(np.sum(r**i / (1.0 + d) ** i))
    j = np.arange(1, n + 1)
    promo = m * float(np.sum(r ** (j - 1) / (1.0 + d) ** (j - 0.5)))
    return revenue - promo


@dataclass
class RetentionCurve:
    """ret(i): fraction of the cohort still active on day i.

    Parametric families: power_law ret(i) = (1+i)^(-k) and exponential
    ret(i) = exp(-k*i), both with k >= 0. kaplan_meier carries an explicit
    non-increasing step table instead.
    """

    family: str
    k: float | None = None
    steps: list[tuple[float, float]] = field(default_factory=list)
    rss: float | None = None

    def ret(self, day):
        day = np.asarray(day, dtype=float)
        if self.family == "power_law":
            out = (1.0 + day) ** (-self.k)
        elif self.family == "exponential":
            out = np.exp(-self.k * day)
        elif self.family == "kaplan_meier":
            times = np.array([t for t, _ in self.steps])
            surv = np.array([s for _, s in self.steps])
            idx = np.searchsorted(times, day, side="right") - 1
            out = np.where(idx < 0, 1.0, surv[np.clip(idx, 0, len(surv) - 1)])
        else:
            raise DataError(f"unknown retention family {self.family!r}")
        return float(out) if out.ndim == 0 else out


def fit_retention_curve(points: Sequence[tuple[float, float]], family: str) -> RetentionCurve:
    """Least-squares fit of one decay parameter to (day, fraction) points."""
    if len(points) < 2:
        raise DataError("need at least 2 points to fit a retention curve")
    days = np.array([p[0] for p in points], dtype=float)
    fracs = np.array([p[1] for p in points], dtype=float)
    if np.any((fracs < 0) | (fracs > 1)):
        raise DataError("fractions must lie in [0, 1]")
    if np.all(fracs == 0):
        raise DataError("all-zero fractions cannot be fit by a decay curve")
    if family not in ("power_law", "exponential"):
        raise DataError(f"unknown retention family {family!r}")

    def rss(k):
        return float(np.sum((RetentionCurve(family, k).ret(days) - fracs) ** 2))

    # Bracket with a log-spaced scan first: the objective is flat wherever
    # the curve has fully decayed, which strands a plain bounded search.
    grid = np.concatenate([[0.0], np.logspace(-5, np.log10(200.0), 80)])
    best = int(np.argmin([rss(k) for k in grid]))
    k = _golden_section(rss, grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)])
    if rss(0.0) <= rss(k):
        k = 0.0
    return RetentionCurve(family=family, k=k, rss=rss(k))


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(fn, lo: float, hi: float) -> float:
    """The minimizer of fn on [lo, hi], unimodal there, to within 1e-12:
    each step keeps the golden-ratio part of the bracket that holds the
    lower of its two inner points."""
    lo, hi = float(lo), float(hi)
    a, b = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fa, fb = fn(a), fn(b)
    while hi - lo > 1e-12:
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - _INV_PHI * (hi - lo)
            fa = fn(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + _INV_PHI * (hi - lo)
            fb = fn(b)
    return a if fa <= fb else b


def kaplan_meier(durations: Sequence[tuple[float, bool]]) -> RetentionCurve:
    """Product-limit survival estimate from (length, censored) pairs."""
    if not durations:
        raise DataError("no durations supplied")
    lengths = np.array([d[0] for d in durations], dtype=float)
    censored = np.array([bool(d[1]) for d in durations])
    if np.any(lengths < 0):
        raise DataError("durations must be >= 0")
    order = np.argsort(lengths, kind="stable")
    lengths, censored = lengths[order], censored[order]
    at_risk = len(lengths)
    s = 1.0
    steps = []
    for t in np.unique(lengths):
        mask = lengths == t
        deaths = int((~censored[mask]).sum())
        if deaths > 0 and at_risk > 0:
            s *= 1.0 - deaths / at_risk
        steps.append((float(t), s))
        at_risk -= int(mask.sum())
    return RetentionCurve(family="kaplan_meier", steps=steps)


def retention_clv(arpdau: float, curve: RetentionCurve, n_days: int) -> float:
    """sum_{i=0..n} ARPDAU * ret(i): expected per-user revenue to day n."""
    if not (arpdau >= 0 and math.isfinite(arpdau)):
        raise DataError("arpdau must be >= 0 and finite")
    if not (n_days >= 0 and math.isfinite(n_days)):
        raise DataError("n_days must be >= 0 and finite")
    days = np.arange(0, n_days + 1)
    return float(arpdau * np.sum(curve.ret(days)))


@dataclass
class MonetizationCurve:
    """mon(i): average fraction of lifetime-window revenue earned by day i.

    Piecewise-linear through the fitted knots, held flat outside them, and
    clamped to (MON_FLOOR, 1] on evaluation.
    """

    knot_days: list[float]
    knot_fractions: list[float]

    def mon(self, day):
        day = np.asarray(day, dtype=float)
        out = np.interp(day, self.knot_days, self.knot_fractions)
        out = np.clip(out, MON_FLOOR, 1.0)
        return float(out) if out.ndim == 0 else out


def fit_monetization_curve(points: Sequence[tuple[float, float]]) -> MonetizationCurve:
    """Monotone curve through cumulative (day, fraction) points ending at 1."""
    if not points:
        raise DataError("no monetization points supplied")
    pts = sorted((float(d), float(f)) for d, f in points)
    days = [p[0] for p in pts]
    fracs = [p[1] for p in pts]
    if any(b < a for a, b in zip(fracs, fracs[1:])):
        raise DataError("cumulative revenue fractions must be non-decreasing")
    if abs(fracs[-1] - 1.0) > 1e-9:
        raise DataError("final cumulative fraction must be 1")
    return MonetizationCurve(knot_days=days, knot_fractions=fracs)


def monetization_clv(revenue_to_date, curve: MonetizationCurve, n_days: float):
    """revenue so far, a float or an array of them, divided by the fraction
    of revenue typically earned by day n. Zero revenue projects to exactly 0."""
    if not math.isfinite(n_days):
        raise DataError(f"n_days must be finite, got {n_days}")
    frac = curve.mon(n_days)
    if frac <= MON_FLOOR:
        raise NumericalError(f"mon({n_days}) = {frac:g} is at the division floor")
    return revenue_to_date / frac
