"""Buy-till-you-die purchase models and the gamma-gamma spend model.

Pareto/NBD: Poisson purchasing with a gamma-mixed rate, exponential
lifetimes with a gamma-mixed death rate. BG/NBD: the beta-geometric
variant where dropout can only happen right after a purchase. Gamma-gamma:
hierarchical gamma spend per transaction, independent of frequency.

All closed forms follow the standard literature parameterization; they are
validated against a cohort simulator built directly from the generative
assumptions. Likelihoods are computed in log space and accept scalars or
equal-length arrays for (frequency, recency, age).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np
from scipy.special import betaln, digamma, expit, gammaln

from .data import RFMSummaries, RFMSummary, summary_arrays
from .errors import DataError, NumericalError
from .fitting import DEFAULT_RESTARTS, StartRecord, minimize_multistart
from .special import log_hyp2f1


def _require_positive(obj):
    for f in fields(obj):
        value = getattr(obj, f.name)
        # a NaN fails the comparison
        if not (value > 0 and math.isfinite(value)):
            raise DataError(f"{type(obj).__name__}.{f.name} must be > 0 and finite, got {value}")


@dataclass(frozen=True)
class ParetoNBDParams:
    r: float
    alpha: float
    s: float
    beta: float

    def __post_init__(self):
        _require_positive(self)


@dataclass(frozen=True)
class BGNBDParams:
    r: float
    alpha: float
    a: float
    b: float

    def __post_init__(self):
        _require_positive(self)


@dataclass(frozen=True)
class GammaGammaParams:
    p: float
    q: float
    gamma: float

    def __post_init__(self):
        _require_positive(self)


@dataclass
class FitResult:
    params: ParetoNBDParams | BGNBDParams | GammaGammaParams
    nll: float
    n_evaluations: int
    converged: bool
    penalizer: float
    n_starts: int = 1
    # one record per optimizer start, in order
    starts: list[StartRecord] = field(default_factory=list)


def _as_arrays(*values):
    arrs = [np.asarray(v, dtype=float) for v in values]
    # a scalar as one row, as atleast_1d makes it but without its cost a call
    arrs = [v if v.ndim else v.reshape(1) for v in arrs]
    if all(v.shape == arrs[0].shape for v in arrs[1:]):
        return arrs
    return np.broadcast_arrays(*arrs)


def _all(mask):
    """mask.all(), by the reduction that costs least on a one-customer call."""
    return np.count_nonzero(mask) == mask.size


def _validate_summary(x, t_x, T):
    # x and t_x >= 0, x and T < inf, t_x <= T; minimum and maximum pass a
    # NaN on and a comparison with NaN is false, so NaN fails too
    if not _all((np.minimum(x, t_x) >= 0.0) & (np.maximum(x, T) < np.inf) & (t_x <= T)):
        raise DataError("summaries must satisfy 0 <= recency <= age and frequency >= 0, all finite")


def _scalar_like(out, *inputs):
    # np.ndim would convert a Python number to an array to find its 0
    if all(isinstance(v, (int, float)) or np.ndim(v) == 0 for v in inputs):
        return float(out[0])
    return out


def _log1mexp(delta):
    """log(1 - exp(delta)) for delta <= 0, -inf at delta = 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log1p(-np.exp(delta))
    return np.where(delta == 0.0, -np.inf, out)


# ---------------------------------------------------------------------------
# Pareto/NBD


def _pareto_tail_term(r, alpha, s, beta, x, t, grad=False):
    """log of 2F1(r+s+x, b; r+s+x+1; |alpha-beta|/(base+t)) / (base+t)^(r+s+x)
    with (base, b) = (alpha, s+1) if alpha >= beta else (beta, r+x): up to
    constants, the likelihood mass of dying after time t. With grad, returns
    (term, d_term), d_term its (4, rows) gradient in (log r, log alpha,
    log s, log beta).

    The 2F1 is summed in Euler's form, 2F1(a, b; a+1; z) =
    (1-z)^(1-b) 2F1(1, a+1-b; a+1; z) with a = r+s+x, where a+1-b is r+x
    or s+1 exactly. The direct series would need about b*z/(1-z) terms,
    growing with the purchase count when b = r+x; this one has positive
    terms with ratio (a+1-b+n)/(a+1+n)*z <= z, so below the z = 0.9 switch
    every row stops within about 260 terms whatever its purchase count. The
    2F1's a = 1, and for alpha < beta its b = s+1, hold for every row and are
    passed as scalars."""
    rsx = r + s + x
    if alpha >= beta:
        base, other, b, b_euler = alpha, beta, s + 1.0, r + x
    else:
        base, other, b, b_euler = beta, alpha, r + x, s + 1.0
    q = base + t
    z = abs(alpha - beta) / q
    if not _all(z < 1.0):
        # 1 - z = (other + t) / q is below the rounding of 1, as at beta
        # ~1e17 times alpha + t: the 2F1 at z = 1 is out of reach, and a
        # fit's objective reads this as a non-finite point
        raise NumericalError(f"Pareto/NBD tail term: 2F1 argument rounds to 1 at alpha={alpha}, beta={beta}")
    if grad:
        # z = (base - other) / q: at alpha = beta the kink of |alpha - beta|
        # is taken from the side of the branch, where the term is smooth
        j_base, j_other = (1, 3) if alpha >= beta else (3, 1)
        d_r, d_s = np.array([[r], [0.0], [0.0], [0.0]]), np.array([[0.0], [0.0], [s], [0.0]])
        d_b_euler, d_b = (d_r, d_s) if alpha >= beta else (d_s, d_r)
        d_rsx = d_r + d_s
        dz = np.zeros((4, z.size))
        dz[j_base] = base * (other + t) / q**2
        dz[j_other] = -other / q
    _, log_f, *d_log_f = log_hyp2f1(1.0, b_euler, rsx + 1.0, z, tangents=(None, d_b_euler, d_rsx, dz) if grad else None)
    log_1mz, log_q = np.log1p(-z), np.log(q)
    term = log_f + (1.0 - b) * log_1mz - rsx * log_q
    if not grad:
        return term
    d_log_q = np.zeros((4, z.size))
    d_log_q[j_base] = base / q
    d_term = d_log_f[0] - d_b * log_1mz - (1.0 - b) * dz / (1.0 - z) - d_rsx * log_q - rsx * d_log_q
    return term, d_term


def _pareto_log_alive_dead(r, alpha, s, beta, x, T, term1, term2):
    """(log_alive, log_dead): the Pareto/NBD likelihood of the history for a
    customer still alive at T and for one who died in (t_x, T], less the
    terms that depend on x alone, from the tail terms at recency (term1) and
    at age (term2)."""
    # term1 >= term2 always (t_x <= T and the series is increasing in z)
    log_a0 = term1 + _log1mexp(np.minimum(term2 - term1, 0.0))
    log_alive = -(r + x) * np.log(alpha + T) - s * np.log(beta + T)
    log_dead = np.log(s) - np.log(r + s + x) + log_a0
    return log_alive, log_dead


def _pareto_loglik_terms(r, alpha, s, beta, x, T, term1, term2, gammaln_rx):
    """Pareto/NBD log-likelihood from the tail terms at recency (term1) and
    at age (term2) and gammaln(r + x); returns (ll, log_alive, log_dead)."""
    log_alive, log_dead = _pareto_log_alive_dead(r, alpha, s, beta, x, T, term1, term2)
    log_base = gammaln_rx - gammaln(r) + r * np.log(alpha) + s * np.log(beta)
    return log_base + np.logaddexp(log_alive, log_dead), log_alive, log_dead


def _pareto_loglik_gradient(r, alpha, s, beta, x, T, term1, term2, d_term1, d_term2, digamma_rx, log_alive, log_dead):
    """(4, rows) gradient in (log r, log alpha, log s, log beta) of the ll of
    _pareto_loglik_terms, given the tail terms' gradients, digamma(r + x)
    and its log_alive and log_dead."""
    rsx = r + s + x
    delta = np.minimum(term2 - term1, 0.0)
    # log_a0 = log(e^term1 - e^term2); rows with t_x = T have no dead mass
    with np.errstate(divide="ignore", invalid="ignore"):
        d_log_a0 = np.where(delta < 0.0, (d_term1 - np.exp(delta) * d_term2) / -np.expm1(delta), 0.0)
    zero = np.zeros_like(rsx)
    d_log_dead = d_log_a0 + np.stack([-r / rsx, zero, 1.0 - s / rsx, zero])
    d_log_alive = np.stack([
        -r * np.log(alpha + T), -(r + x) * alpha / (alpha + T), -s * np.log(beta + T), -s * beta / (beta + T)
    ])
    d_log_base = np.stack([
        r * (digamma_rx - digamma(r) + np.log(alpha)), zero + r, zero + s * np.log(beta), zero + s
    ])
    return d_log_base + d_log_alive + expit(log_dead - log_alive) * (d_log_dead - d_log_alive)


def _pareto_loglik_arrays(r, alpha, s, beta, x, t_x, T):
    term1 = _pareto_tail_term(r, alpha, s, beta, x, t_x)
    term2 = _pareto_tail_term(r, alpha, s, beta, x, T)
    return _pareto_loglik_terms(r, alpha, s, beta, x, T, term1, term2, gammaln(r + x))


def pareto_nbd_loglik(params: ParetoNBDParams, frequency, recency, age):
    """Individual log-likelihood of (x, t_x, T) under Pareto/NBD."""
    x, t_x, T = _as_arrays(frequency, recency, age)
    _validate_summary(x, t_x, T)
    ll, _, _ = _pareto_loglik_arrays(params.r, params.alpha, params.s, params.beta, x, t_x, T)
    if not np.all(np.isfinite(ll)):
        raise NumericalError(
            f"non-finite Pareto/NBD log-likelihood at params={params} "
            f"(first bad row {int(np.argmax(~np.isfinite(ll)))})"
        )
    return _scalar_like(ll, frequency, recency, age)


def _pareto_p_alive_arrays(r, alpha, s, beta, x, t_x, T):
    term1 = _pareto_tail_term(r, alpha, s, beta, x, t_x)
    term2 = _pareto_tail_term(r, alpha, s, beta, x, T)
    log_alive, log_dead = _pareto_log_alive_dead(r, alpha, s, beta, x, T, term1, term2)
    return expit(-(log_dead - log_alive))


def _pareto_expected_arrays(params, x, t_x, T):
    """Pareto/NBD conditional expected purchases in (T, T + h] as a
    per-customer factor, p_alive (r+x)(beta+T)/(alpha+T), and a function of
    (x, T, h) giving the horizon factor, the growth term, which has no 2F1."""
    r, alpha, s, beta = params.r, params.alpha, params.s, params.beta
    p_alive = _pareto_p_alive_arrays(r, alpha, s, beta, x, t_x, T)

    def horizon_factor(x, T, h):
        # (1 - rho^(s-1)) / (s-1), rho = (beta+T)/(beta+T+h), without the
        # cancellation of 1 - rho^(s-1) at short horizons
        log_growth = np.log1p(h / (beta + T))
        if abs(s - 1.0) < 1e-8:
            return log_growth
        return -np.expm1(-(s - 1.0) * log_growth) / (s - 1.0)

    return p_alive * (r + x) * (beta + T) / (alpha + T), horizon_factor


# ---------------------------------------------------------------------------
# BG/NBD


def _bg_log_base(r, alpha, a, b, x):
    """The BG/NBD log-likelihood terms that depend on x alone."""
    return (
        gammaln(r + x) - gammaln(r) + r * np.log(alpha)
        + gammaln(a + b) + gammaln(b + x) - gammaln(b) - gammaln(a + b + x)
    )


def _bg_log_base_gradient(r, alpha, a, b, x):
    """(4, len(x)) gradient of _bg_log_base in (log r, log alpha, log a, log b)."""
    psi_ab, psi_abx = digamma(a + b), digamma(a + b + x)
    return np.stack([
        r * (digamma(r + x) - digamma(r) + np.log(alpha)),
        np.full_like(x, r),
        a * (psi_ab - psi_abx),
        b * (psi_ab + digamma(b + x) - digamma(b) - psi_abx),
    ])


def _bg_log_odds(r, alpha, a, b, x, t_x, T, grad=False):
    """log of the odds that a BG/NBD customer dropped out right after the
    last purchase rather than being alive at T:
    log(a/(b+x-1)) + (r+x) log((alpha+T)/(alpha+t_x)), -inf at x = 0, where
    there was no dropout opportunity. With grad, returns (log_odds, d), d
    its (4, rows) gradient in (log r, log alpha, log a, log b).

    The ratio's log is taken by log1p((T-t_x)/(alpha+t_x)): a heavy buyer's
    exponent r+x would multiply the rounding of the quotient or of a
    difference of logs."""
    repeat = x > 0
    log_ratio = np.log1p((T - t_x) / (alpha + t_x))
    # zero-repeat rows have no dropout mass; their b + x - 1 may be 0
    b_x = np.where(repeat, b + x - 1.0, 1.0)
    log_odds = np.where(repeat, np.log(a / b_x) + (r + x) * log_ratio, -np.inf)
    if not grad:
        return log_odds
    d_alpha = (r + x) * alpha / (alpha + T) - (r + x) * alpha / (alpha + t_x)
    return log_odds, np.stack([r * log_ratio, d_alpha, np.ones_like(x), -b / b_x])


def _bg_log_alive_or_dead(r, alpha, a, b, x, t_x, T, grad=False):
    """The BG/NBD log-likelihood less the terms of _bg_log_base: the log of
    the masses of a customer alive at T and of one who dropped out at t_x,
    -(r+x) log(alpha+T) + log(1 + odds). With grad, returns (value, d), d
    its (4, rows) gradient in (log r, log alpha, log a, log b)."""
    log_alive = -(r + x) * np.log(alpha + T)
    if not grad:
        return log_alive + np.logaddexp(0.0, _bg_log_odds(r, alpha, a, b, x, t_x, T))
    log_odds, d_log_odds = _bg_log_odds(r, alpha, a, b, x, t_x, T, grad=True)
    zero = np.zeros_like(x)
    d_log_alive = np.stack([-r * np.log(alpha + T), -(r + x) * alpha / (alpha + T), zero, zero])
    return log_alive + np.logaddexp(0.0, log_odds), d_log_alive + expit(log_odds) * d_log_odds


def bg_nbd_loglik(params: BGNBDParams, frequency, recency, age):
    """Individual log-likelihood of (x, t_x, T) under BG/NBD."""
    x, t_x, T = _as_arrays(frequency, recency, age)
    _validate_summary(x, t_x, T)
    r, alpha, a, b = params.r, params.alpha, params.a, params.b
    ll = _bg_log_base(r, alpha, a, b, x) + _bg_log_alive_or_dead(r, alpha, a, b, x, t_x, T)
    if not np.all(np.isfinite(ll)):
        raise NumericalError(f"non-finite BG/NBD log-likelihood at params={params}")
    return _scalar_like(ll, frequency, recency, age)


def _bg_expected_arrays(params, x, t_x, T):
    """BG/NBD conditional expected purchases in (T, T + h] as a per-customer
    factor, (a+b+x-1)/(a-1)/(1+odds), and a function of (x, T, h) giving the
    horizon factor 1 - P, one 2F1 call over all its cells.

    P = (1-z)^(r+x) 2F1(r+x, b+x; a+b+x-1; z) with z = h/(alpha+T+h) is
    summed in Euler's form, (1-z)^(a-1) 2F1(a+b-1-r, a-1; a+b+x-1; z), whose
    numerator parameters are the same for every cell. Its terms from the
    first on carry the factor a-1, so log 2F1 = log1p of their sum keeps its
    digits, and 1 - P = -expm1(log P) has no cancellation at short horizons
    or with a near 1. At heavy buyers' large c it also needs far fewer terms
    than the direct series."""
    r, alpha, a, b = params.r, params.alpha, params.a, params.b
    if abs(a - 1.0) < 1e-9:
        a = 1.0 + 1e-9  # the closed form has a removable singularity at a = 1
    per_customer = (a + b + x - 1.0) / (a - 1.0) * expit(-_bg_log_odds(r, alpha, a, b, x, t_x, T))

    def horizon_factor(x, T, h):
        base = alpha + T
        sign, log_f = log_hyp2f1(a + b - 1.0 - r, a - 1.0, a + b + x - 1.0, h / (base + h))
        # log P, with log(1-z) = -log1p(h/(alpha+T))
        log_p = log_f - (a - 1.0) * np.log1p(h / base)
        out = -np.expm1(log_p)
        # at a + b < 1 a zero-repeat customer's 2F1 can be negative
        negative = sign < 0.0
        if np.count_nonzero(negative):
            out[negative] = 1.0 + np.exp(log_p[negative])
        return out

    return per_customer, horizon_factor


# ---------------------------------------------------------------------------
# Shared model surface


def p_alive(params: ParetoNBDParams | BGNBDParams, frequency, recency, age):
    """Probability the customer is still active at the end of observation.

    Under BG/NBD a zero-repeat customer has had no dropout opportunity, so
    the probability is exactly 1.
    """
    x, t_x, T = _as_arrays(frequency, recency, age)
    _validate_summary(x, t_x, T)
    if isinstance(params, ParetoNBDParams):
        prob = _pareto_p_alive_arrays(params.r, params.alpha, params.s, params.beta, x, t_x, T)
    elif isinstance(params, BGNBDParams):
        prob = expit(-_bg_log_odds(params.r, params.alpha, params.a, params.b, x, t_x, T))
    else:
        raise DataError(f"p_alive is undefined for {type(params).__name__}")
    return _scalar_like(prob, frequency, recency, age)


# Cells of one (customer x horizon) block of expected transactions: the
# 2F1 series keeps several working copies of its cells, so an unblocked
# cohort-sized grid would multiply peak memory. A block of 12 periods holds
# 5,461 customers, enough for log_hyp2f1 to sum each customer's periods by
# row (special._row_series); a block of 180 holds 364, summed cell by cell
_GRID_CELLS = 2**16


def _expected_blocks(params, x, t_x, T, horizons):
    """Yield (rows, grid) over blocks of customers, where grid[i, k] is the
    conditional expected number of repeat purchases of customer rows[i] in
    (T, T + horizons[k]], clamped at 0.

    The per-customer factor is computed once over all customers; the horizon
    factor over each block's (customer x horizon) grid.
    """
    if isinstance(params, ParetoNBDParams):
        factors = _pareto_expected_arrays
    elif isinstance(params, BGNBDParams):
        factors = _bg_expected_arrays
    else:
        raise DataError(f"expected_transactions is undefined for {type(params).__name__}")
    per_customer, horizon_factor = factors(params, x, t_x, T)
    block = max(1, _GRID_CELLS // max(horizons.size, 1))
    for start in range(0, x.size, block):
        rows = slice(start, start + block)
        grid = per_customer[rows, None] * horizon_factor(x[rows, None], T[rows, None], horizons)
        if not _all(np.isfinite(grid)):
            raise NumericalError(f"non-finite expected transactions at params={params}")
        yield rows, np.maximum(grid, 0.0)


def expected_transactions(params: ParetoNBDParams | BGNBDParams, frequency, recency, age, horizon: float):
    """Conditional expected repeat purchases in (T, T + horizon]."""
    # a NaN fails every comparison
    if not (horizon >= 0 and math.isfinite(horizon)):
        raise DataError("horizon must be >= 0 and finite")
    x, t_x, T = _as_arrays(frequency, recency, age)
    _validate_summary(x, t_x, T)
    out = np.empty_like(x)
    for rows, grid in _expected_blocks(params, x, t_x, T, np.array([float(horizon)])):
        out[rows] = grid[:, 0]
    return _scalar_like(out, frequency, recency, age)


# ---------------------------------------------------------------------------
# Gamma-gamma spend model


def _gamma_gamma_loglik_arrays(p, q, g, x, m, log_beta):
    """Per-row log-likelihood, given log_beta = betaln(p * x, q) per row.

    betaln and log1p, not differences of gammaln and of logs: at large p
    those cancel and let fits run away to spurious optima.
    """
    px = p * x
    return q * np.log(g) - log_beta - np.log(m) - px * np.log1p(g / (x * m)) - q * np.log(g + x * m)


def _gamma_gamma_loglik_gradient(p, q, g, x, m, digamma_px, digamma_pxq):
    """(3, rows) gradient in (log p, log q, log gamma) of
    _gamma_gamma_loglik_arrays, given digamma(p * x) and digamma(p * x + q)."""
    px = p * x
    return np.stack([
        -px * (digamma_px - digamma_pxq) - px * np.log1p(g / (x * m)),
        q * np.log(g) - q * (digamma(q) - digamma_pxq) - q * np.log(g + x * m),
        q - (px + q) * g / (g + x * m),
    ])


def gamma_gamma_loglik(params: GammaGammaParams, frequency, monetary_value):
    """Log-likelihood of the mean observed spend of a repeat customer."""
    x, m = _as_arrays(frequency, monetary_value)
    if not ((x >= 1) & (x < np.inf) & (m > 0) & (m < np.inf)).all():
        raise DataError("gamma-gamma requires finite frequency >= 1 and monetary_value > 0")
    p, q, g = params.p, params.q, params.gamma
    ll = _gamma_gamma_loglik_arrays(p, q, g, x, m, betaln(p * x, q))
    if not np.all(np.isfinite(ll)):
        raise NumericalError(f"non-finite gamma-gamma log-likelihood at params={params}")
    return _scalar_like(ll, frequency, monetary_value)


def _expected_spend(params, x, m):
    """conditional_expected_value of equal-length arrays."""
    p, q, g = params.p, params.q, params.gamma
    if q <= 1.0:
        raise NumericalError("population mean spend requires q > 1")
    if not _all(np.isfinite(x) & np.isfinite(m)):
        raise DataError("conditional expected value requires finite frequency and monetary_value")
    population_mean = p * g / (q - 1.0)
    weight = p * x / (p * x + q - 1.0)
    return (1.0 - weight) * population_mean + weight * m


def conditional_expected_value(params: GammaGammaParams, frequency, monetary_value):
    """Expected per-transaction spend: shrinks the observed mean toward the
    population mean, with the weight on the observation growing with x.

    frequency = 0 rows get the population mean (no observed repeat spend).
    """
    x, m = _as_arrays(frequency, monetary_value)
    return _scalar_like(_expected_spend(params, x, m), frequency, monetary_value)


# ---------------------------------------------------------------------------
# Fitting


def _distinct_rows(*columns):
    """The distinct rows of equal-length columns, as (columns, counts,
    inverse) with columns[i][inverse] giving back the input.

    Cohort summaries repeat heavily (every zero-repeat customer observed
    for the same age is one row), so fits evaluate each distinct row once
    and weight it by its count.
    """
    # one lexsort, first column as the primary key: the row order of an
    # axis-0 unique, without its sort of void-viewed rows
    order = np.lexsort(columns[::-1])
    sorted_cols = [c[order] for c in columns]
    new_row = np.empty(order.size, dtype=bool)
    new_row[:1] = True
    new_row[1:] = np.any([c[1:] != c[:-1] for c in sorted_cols], axis=0)
    starts = np.flatnonzero(new_row)
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new_row) - 1
    counts = np.diff(np.append(starts, order.size))
    return tuple(c[starts] for c in sorted_cols), counts.astype(float), inverse


def _fit(loglik_fn, n_customers, x0, penalizer, restarts, seed, builder):
    """Maximize loglik_fn(params), which returns the cohort's total
    log-likelihood and its gradient in the log-parameters. The optimizer sees
    the penalized NLL per customer; FitResult.nll is the total."""
    # a NaN fails every comparison
    if not (penalizer >= 0 and math.isfinite(penalizer)):
        raise DataError(f"penalizer must be >= 0 and finite, got {penalizer}")

    def objective(theta):
        vec = np.exp(theta)
        with np.errstate(all="ignore"):
            try:
                total, grad = loglik_fn(vec)
            except (NumericalError, FloatingPointError):
                return np.inf, np.full_like(theta, np.nan)
        penalty = penalizer * vec**2
        return (-float(total) + float(np.sum(penalty))) / n_customers, (2.0 * penalty - grad) / n_customers

    res = minimize_multistart(objective, np.log(x0), restarts=restarts, seed=seed)
    params = builder([float(v) for v in np.exp(res.x)])
    return FitResult(
        params=params,
        nll=res.fun * n_customers,
        n_evaluations=res.n_evals,
        converged=res.converged,
        penalizer=penalizer,
        n_starts=res.n_starts,
        starts=res.starts,
    )


def fit_pareto_nbd(
    summaries: RFMSummaries | Sequence[RFMSummary],
    penalizer: float = 0.0,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    initial: ParetoNBDParams | None = None,
) -> FitResult:
    """Maximum-likelihood Pareto/NBD fit of a cohort of RFM summaries.

    Without `initial`, the fit starts at r = s = 1 and alpha = beta =
    1/mean_rate, with mean_rate = (mean x + 0.5) / (mean T + 1). At
    alpha = beta every 2F1 row of the likelihood has z = 0 and stops at its
    first term; a start with beta far from alpha sends the first steps
    through rows near and past z = 0.9, which cost the most.
    """
    if not summaries:
        raise DataError("no summaries to fit")
    x, t_x, T, _ = summary_arrays(summaries)
    _validate_summary(x, t_x, T)
    if np.all(x == 0):
        raise DataError("every customer has frequency 0: Pareto/NBD is not identifiable")
    if initial is not None:
        x0 = np.array([initial.r, initial.alpha, initial.s, initial.beta])
    else:
        mean_rate = (x.mean() + 0.5) / (T.mean() + 1.0)
        x0 = np.array([1.0, 1.0 / mean_rate, 1.0, 1.0 / mean_rate])

    (x, t_x, T), counts, _ = _distinct_rows(x, t_x, T)
    # the tail term depends on (x, t) alone: evaluate it once per distinct
    # (x, t_x) or (x, T) pair, in one call; (x, T) pairs repeat far more
    (tail_x, tail_t), _, tail_index = _distinct_rows(np.concatenate([x, x]), np.concatenate([t_x, T]))
    at_recency, at_age = tail_index[: x.size], tail_index[x.size :]
    x_values, at_x = np.unique(x, return_inverse=True)

    def loglik(vec):
        r, alpha, s, beta = vec
        tail, d_tail = _pareto_tail_term(r, alpha, s, beta, tail_x, tail_t, grad=True)
        term1, term2 = tail[at_recency], tail[at_age]
        ll, log_alive, log_dead = _pareto_loglik_terms(
            r, alpha, s, beta, x, T, term1, term2, gammaln(r + x_values)[at_x]
        )
        d_ll = _pareto_loglik_gradient(
            r, alpha, s, beta, x, T, term1, term2, d_tail[:, at_recency], d_tail[:, at_age],
            digamma(r + x_values)[at_x], log_alive, log_dead,
        )
        return counts @ ll, d_ll @ counts

    return _fit(loglik, len(summaries), x0, penalizer, restarts, seed, lambda v: ParetoNBDParams(*v))


def fit_bg_nbd(
    summaries: RFMSummaries | Sequence[RFMSummary],
    penalizer: float = 0.0,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    initial: BGNBDParams | None = None,
) -> FitResult:
    """Maximum-likelihood BG/NBD fit of a cohort of RFM summaries."""
    if not summaries:
        raise DataError("no summaries to fit")
    x, t_x, T, _ = summary_arrays(summaries)
    _validate_summary(x, t_x, T)
    if np.all(x == 0):
        raise DataError("every customer has frequency 0: dropout is not identifiable")
    if initial is not None:
        x0 = np.array([initial.r, initial.alpha, initial.a, initial.b])
    else:
        mean_rate = (x.mean() + 0.5) / (T.mean() + 1.0)
        x0 = np.array([1.0, 1.0 / mean_rate, 1.0, 2.0])

    (x, t_x, T), counts, _ = _distinct_rows(x, t_x, T)
    # a cohort has far fewer distinct x than distinct rows
    x_values, at_x = np.unique(x, return_inverse=True)

    def loglik(vec):
        r, alpha, a, b = vec
        rest, d_rest = _bg_log_alive_or_dead(r, alpha, a, b, x, t_x, T, grad=True)
        ll = _bg_log_base(r, alpha, a, b, x_values)[at_x] + rest
        d_ll = _bg_log_base_gradient(r, alpha, a, b, x_values)[:, at_x] + d_rest
        return counts @ ll, d_ll @ counts

    return _fit(loglik, len(summaries), x0, penalizer, restarts, seed, lambda v: BGNBDParams(*v))


def fit_gamma_gamma(
    summaries: RFMSummaries | Sequence[RFMSummary],
    penalizer: float = 0.0,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    initial: GammaGammaParams | None = None,
) -> FitResult:
    """Maximum-likelihood gamma-gamma fit over repeat customers.

    Every summary must have frequency > 0; filter beforehand, mirroring the
    returning-customers filter the spend model assumes.
    """
    if not summaries:
        raise DataError("no summaries to fit")
    x, _, _, m = summary_arrays(summaries)
    if not ((x > 0) & (x < np.inf)).all():
        raise DataError("gamma-gamma requires finite frequency > 0 for every row")
    if not ((m > 0) & (m < np.inf)).all():
        raise DataError("gamma-gamma requires finite, positive monetary_value")
    if initial is not None:
        x0 = np.array([initial.p, initial.q, initial.gamma])
    else:
        x0 = np.array([1.0, 2.0, max(m.mean(), 1e-6)])

    # spend is continuous and rows do not repeat, but betaln and digamma,
    # the costliest terms, depend on x alone
    x_values, at_x = np.unique(x, return_inverse=True)

    def loglik(vec):
        p, q, g = vec
        px = p * x_values
        ll = _gamma_gamma_loglik_arrays(p, q, g, x, m, betaln(px, q)[at_x])
        d_ll = _gamma_gamma_loglik_gradient(p, q, g, x, m, digamma(px)[at_x], digamma(px + q)[at_x])
        return np.sum(ll), d_ll.sum(axis=1)

    return _fit(loglik, x.size, x0, penalizer, restarts, seed, lambda v: GammaGammaParams(*v))


# ---------------------------------------------------------------------------
# CLV composition


def discounted_clv(
    purchase_params: ParetoNBDParams | BGNBDParams,
    spend_params: GammaGammaParams,
    summaries: RFMSummaries | Sequence[RFMSummary],
    horizon: float,
    discount_rate: float,
    period: float = 1.0,
):
    """Per-customer discounted CLV over `horizon` days.

    Expected incremental transactions per period times the conditional
    expected spend, discounted per period at `discount_rate`. The expected
    cumulative transactions at the ends of all periods k * period are one
    (customer x period) grid: the per-customer factor (p_alive and its 2F1
    calls under Pareto/NBD) is computed once, and the horizon factor (one
    2F1 call per block of customers under BG/NBD) once for all periods. A
    customer's periods share the 2F1's parameters, so a block of enough
    customers has each term ratio computed once per customer (see
    special._row_series), with the bits of a one-customer call.
    """
    # a NaN fails every comparison
    if not (horizon >= 0 and math.isfinite(horizon)):
        raise DataError("horizon must be >= 0 and finite")
    if not (discount_rate >= 0 and math.isfinite(discount_rate)):
        raise DataError("discount_rate must be >= 0 and finite")
    if not (period > 0 and math.isfinite(period)):
        raise DataError("period must be > 0 and finite")
    n_periods = horizon / period
    if abs(n_periods - round(n_periods)) > 1e-9:
        raise DataError("horizon must be a whole number of periods")
    k = np.arange(1, int(round(n_periods)) + 1, dtype=float)
    x, t_x, T, m = summary_arrays(summaries)
    _validate_summary(x, t_x, T)
    value = _expected_spend(spend_params, x, m)
    discount = (1.0 + discount_rate) ** -k
    clv = np.empty_like(x)
    for rows, cumulative in _expected_blocks(purchase_params, x, t_x, T, k * period):
        # each period's increment, in place: numpy reads an operand that
        # overlaps the output as it was before the write
        cumulative[:, 1:] -= cumulative[:, :-1]
        clv[rows] = (cumulative * discount).sum(axis=1)
    return clv * value


@dataclass
class LifetimeDuration:
    periods: float
    capped: bool


def expected_lifetime_duration(
    params: ParetoNBDParams | BGNBDParams,
    summary: RFMSummary,
    threshold: float,
    period: float = 1.0,
    max_periods: int = 100_000,
) -> LifetimeDuration:
    """Relationship length, in periods from first purchase, until the
    projected alive-probability first drops below `threshold`.

    The continuous alive-probability is projected forward (same purchase
    history, growing age) and dichotomized at the threshold; the resulting
    duration is what the discounted-retention formula takes as its horizon.
    If the probability never crosses within `max_periods` future periods
    the duration is capped and flagged.
    """
    if not 0.0 < threshold < 1.0:
        raise DataError("threshold must lie in (0, 1)")
    # a NaN fails every comparison
    if not (period > 0 and math.isfinite(period)):
        raise DataError("period must be > 0 and finite")
    x, t_x, T = summary.frequency, summary.recency, summary.age

    def alive(k):
        return p_alive(params, x, t_x, T + k * period)

    elapsed = T / period
    if alive(0) < threshold:
        return LifetimeDuration(periods=elapsed, capped=False)
    lo, hi = 0, 1
    while alive(hi) >= threshold:
        lo = hi
        hi *= 2
        if hi >= max_periods:
            if alive(max_periods) >= threshold:
                return LifetimeDuration(periods=elapsed + max_periods, capped=True)
            hi = max_periods
            break
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if alive(mid) < threshold:
            hi = mid
        else:
            lo = mid
    return LifetimeDuration(periods=elapsed + hi, capped=False)
