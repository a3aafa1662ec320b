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

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
from scipy.special import betaln, expit, gammaln

from .data import RFMSummary, summary_arrays
from .errors import DataError, NumericalError
from .fitting import DEFAULT_RESTARTS, MAX_EVALS, minimize_multistart
from .special import log_hyp2f1


def _require_positive(obj):
    for f in fields(obj):
        if not getattr(obj, f.name) > 0:
            raise DataError(f"{type(obj).__name__}.{f.name} must be > 0")


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


def _as_arrays(*values):
    arrs = [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
    return np.broadcast_arrays(*arrs)


def _validate_summary(x, t_x, T):
    if np.any(x < 0) or np.any(t_x < 0) or np.any(t_x > T):
        raise DataError("summaries must satisfy 0 <= recency <= age, frequency >= 0")


def _scalar_like(out, *inputs):
    if all(np.ndim(v) == 0 for v in inputs):
        return float(out[0])
    return out


def _log1mexp(delta):
    """log(1 - exp(delta)) for delta <= 0, -inf at delta = 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log1p(-np.exp(delta))
    return np.where(delta == 0.0, -np.inf, out)


# ---------------------------------------------------------------------------
# Pareto/NBD


def _pareto_tail_term(r, alpha, s, beta, x, t):
    """log of 2F1(r+s+x, b; r+s+x+1; |alpha-beta|/(base+t)) / (base+t)^(r+s+x)
    with (base, b) = (alpha, s+1) if alpha >= beta else (beta, r+x): up to
    constants, the likelihood mass of dying after time t."""
    rsx = r + s + x
    if alpha >= beta:
        base = alpha
        second = np.full_like(x, s + 1.0)
    else:
        base = beta
        second = r + x
    q = base + t
    _, log_f = log_hyp2f1(rsx, second, rsx + 1.0, abs(alpha - beta) / q)
    return log_f - rsx * np.log(q)


def _pareto_loglik_terms(r, alpha, s, beta, x, T, term1, term2, gammaln_rx):
    """Pareto/NBD log-likelihood from the tail terms at recency (term1) and
    at age (term2) and gammaln(r + x); returns (ll, log_alive, log_dead)."""
    # term1 >= term2 always (t_x <= T and the series is increasing in z)
    log_a0 = term1 + _log1mexp(np.minimum(term2 - term1, 0.0))
    log_base = gammaln_rx - gammaln(r) + r * np.log(alpha) + s * np.log(beta)
    log_alive = -(r + x) * np.log(alpha + T) - s * np.log(beta + T)
    log_dead = np.log(s) - np.log(r + s + x) + log_a0
    return log_base + np.logaddexp(log_alive, log_dead), log_alive, log_dead


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
    ll, log_alive, log_dead = _pareto_loglik_arrays(r, alpha, s, beta, x, t_x, T)
    return expit(-(log_dead - log_alive)), ll


def _pareto_expected_arrays(params, x, t_x, T):
    """Pareto/NBD conditional expected purchases in (T, T + h] as a
    per-customer factor, p_alive (r+x)(beta+T)/(alpha+T), and a function of
    (x, T, h) giving the horizon factor, the growth term, which has no 2F1."""
    r, alpha, s, beta = params.r, params.alpha, params.s, params.beta
    p_alive, _ = _pareto_p_alive_arrays(r, alpha, s, beta, x, t_x, T)

    def horizon_factor(x, T, h):
        rho = (beta + T) / (beta + T + h)
        if abs(s - 1.0) < 1e-8:
            return np.log(1.0 / rho)
        return (1.0 - rho ** (s - 1.0)) / (s - 1.0)

    return p_alive * (r + x) * (beta + T) / (alpha + T), horizon_factor


# ---------------------------------------------------------------------------
# BG/NBD


def _bg_log_base(r, alpha, a, b, x):
    """The BG/NBD log-likelihood terms that depend on x alone."""
    return (
        gammaln(r + x) - gammaln(r) + r * np.log(alpha)
        + gammaln(a + b) + gammaln(b + x) - gammaln(b) - gammaln(a + b + x)
    )


def _bg_log_alive_dead(r, alpha, a, b, x, t_x, T):
    """(log_alive, log_dead): the BG/NBD likelihood of the history for a
    customer still alive at T and for one who dropped out at t_x, less the
    terms of _bg_log_base."""
    log_alive = -(r + x) * np.log(alpha + T)
    repeat = x > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_dead = np.where(
            repeat,
            np.log(a) - np.log(np.where(repeat, b + x - 1.0, 1.0)) - (r + x) * np.log(alpha + t_x),
            -np.inf,
        )
    return log_alive, log_dead


def bg_nbd_loglik(params: BGNBDParams, frequency, recency, age):
    """Individual log-likelihood of (x, t_x, T) under BG/NBD."""
    x, t_x, T = _as_arrays(frequency, recency, age)
    _validate_summary(x, t_x, T)
    r, alpha, a, b = params.r, params.alpha, params.a, params.b
    ll = _bg_log_base(r, alpha, a, b, x) + np.logaddexp(*_bg_log_alive_dead(r, alpha, a, b, x, t_x, T))
    if not np.all(np.isfinite(ll)):
        raise NumericalError(f"non-finite BG/NBD log-likelihood at params={params}")
    return _scalar_like(ll, frequency, recency, age)


def _bg_expected_arrays(params, x, t_x, T):
    """BG/NBD conditional expected purchases in (T, T + h] as a per-customer
    factor, (a+b+x-1)/(a-1)/(1+odds), and a function of (x, T, h) giving the
    horizon factor, one 2F1 call over all its cells."""
    r, alpha, a, b = params.r, params.alpha, params.a, params.b
    if abs(a - 1.0) < 1e-9:
        a = 1.0 + 1e-9  # the closed form has a removable singularity at a = 1
    repeat = x > 0
    odds = np.where(
        repeat,
        a / np.where(repeat, b + x - 1.0, 1.0) * ((alpha + T) / (alpha + t_x)) ** (r + x),
        0.0,
    )

    def horizon_factor(x, T, h):
        sign, log_f = log_hyp2f1(r + x, b + x, a + b + x - 1.0, h / (alpha + T + h))
        # one exp of the summed logs: for heavy buyers over long horizons the
        # 2F1 overflows while the power term underflows
        return 1.0 - sign * np.exp(log_f - (r + x) * np.log1p(h / (alpha + T)))

    return (a + b + x - 1.0) / (a - 1.0) / (1.0 + odds), horizon_factor


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
        prob, _ = _pareto_p_alive_arrays(params.r, params.alpha, params.s, params.beta, x, t_x, T)
    elif isinstance(params, BGNBDParams):
        log_alive, log_dead = _bg_log_alive_dead(params.r, params.alpha, params.a, params.b, x, t_x, T)
        prob = np.where(x > 0, expit(-(log_dead - log_alive)), 1.0)
    else:
        raise DataError(f"p_alive is undefined for {type(params).__name__}")
    return _scalar_like(prob, frequency, recency, age)


# Cells of one (customer x horizon) block of expected transactions: the
# 2F1 series keeps several working copies of its rows, so an unblocked
# cohort-sized grid would multiply peak memory
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
        if not np.all(np.isfinite(grid)):
            raise NumericalError(f"non-finite expected transactions at params={params}")
        yield rows, np.maximum(grid, 0.0)


def expected_transactions(params: ParetoNBDParams | BGNBDParams, frequency, recency, age, horizon: float):
    """Conditional expected repeat purchases in (T, T + horizon]."""
    if horizon < 0:
        raise DataError("horizon must be >= 0")
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


def gamma_gamma_loglik(params: GammaGammaParams, frequency, monetary_value):
    """Log-likelihood of the mean observed spend of a repeat customer."""
    x, m = _as_arrays(frequency, monetary_value)
    if np.any(x < 1) or np.any(m <= 0):
        raise DataError("gamma-gamma requires frequency >= 1 and monetary_value > 0")
    p, q, g = params.p, params.q, params.gamma
    ll = _gamma_gamma_loglik_arrays(p, q, g, x, m, betaln(p * x, q))
    if not np.all(np.isfinite(ll)):
        raise NumericalError(f"non-finite gamma-gamma log-likelihood at params={params}")
    return _scalar_like(ll, frequency, monetary_value)


def conditional_expected_value(params: GammaGammaParams, frequency, monetary_value):
    """Expected per-transaction spend: shrinks the observed mean toward the
    population mean, with the weight on the observation growing with x.

    frequency = 0 rows get the population mean (no observed repeat spend).
    """
    p, q, g = params.p, params.q, params.gamma
    if q <= 1.0:
        raise NumericalError("population mean spend requires q > 1")
    x, m = _as_arrays(frequency, monetary_value)
    population_mean = p * g / (q - 1.0)
    weight = p * x / (p * x + q - 1.0)
    out = (1.0 - weight) * population_mean + weight * m
    return _scalar_like(out, frequency, monetary_value)


# ---------------------------------------------------------------------------
# Fitting


# Log-parameters beyond this are numerically meaningless for any of the
# models here and only feed overflow; the objective walls them off.
_LOG_PARAM_BOUND = 50.0


def _distinct_rows(*columns):
    """The distinct rows of equal-length columns, as (columns, counts,
    inverse) with columns[i][inverse] giving back the input.

    Cohort summaries repeat heavily (every zero-repeat customer observed
    for the same age is one row), so fits evaluate each distinct row once
    and weight it by its count.
    """
    rows, inverse, counts = np.unique(
        np.column_stack(columns), axis=0, return_inverse=True, return_counts=True
    )
    return tuple(rows.T), counts.astype(float), inverse.ravel()


def _fit(loglik_fn, x0, penalizer, restarts, seed, builder, max_evals=MAX_EVALS):
    """Maximize loglik_fn(params), the cohort's total log-likelihood."""
    if penalizer < 0:
        raise DataError("penalizer must be >= 0")

    def objective(theta):
        if np.any(np.abs(theta) > _LOG_PARAM_BOUND):
            return np.inf
        vec = np.exp(theta)
        with np.errstate(all="ignore"):
            try:
                total = float(loglik_fn(vec))
            except (NumericalError, FloatingPointError):
                return np.inf
        if not np.isfinite(total):
            return np.inf
        return -total + penalizer * float(np.sum(vec**2))

    res = minimize_multistart(objective, np.log(x0), restarts=restarts, seed=seed, max_evals=max_evals)
    params = builder([float(v) for v in np.exp(res.x)])
    return FitResult(
        params=params,
        nll=res.fun,
        n_evaluations=res.n_evals,
        converged=res.converged,
        penalizer=penalizer,
    )


def fit_pareto_nbd(
    summaries: Sequence[RFMSummary],
    penalizer: float = 0.0,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    initial: ParetoNBDParams | None = None,
) -> FitResult:
    """Maximum-likelihood Pareto/NBD fit of a cohort of RFM summaries."""
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
        x0 = np.array([1.0, 1.0 / mean_rate, 1.0, T.mean()])

    (x, t_x, T), counts, _ = _distinct_rows(x, t_x, T)
    # the tail term depends on (x, t) alone: evaluate it once per distinct
    # (x, t_x) or (x, T) pair, in one call; (x, T) pairs repeat far more
    (tail_x, tail_t), _, tail_index = _distinct_rows(np.concatenate([x, x]), np.concatenate([t_x, T]))
    at_recency, at_age = tail_index[: x.size], tail_index[x.size :]
    x_values, at_x = np.unique(x, return_inverse=True)

    def loglik(vec):
        r, alpha, s, beta = vec
        tail = _pareto_tail_term(r, alpha, s, beta, tail_x, tail_t)
        gammaln_rx = gammaln(r + x_values)[at_x]
        ll, _, _ = _pareto_loglik_terms(r, alpha, s, beta, x, T, tail[at_recency], tail[at_age], gammaln_rx)
        return counts @ ll

    return _fit(loglik, x0, penalizer, restarts, seed, lambda v: ParetoNBDParams(*v))


def fit_bg_nbd(
    summaries: Sequence[RFMSummary],
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
        log_base = _bg_log_base(r, alpha, a, b, x_values)[at_x]
        return counts @ (log_base + np.logaddexp(*_bg_log_alive_dead(r, alpha, a, b, x, t_x, T)))

    return _fit(loglik, x0, penalizer, restarts, seed, lambda v: BGNBDParams(*v))


def fit_gamma_gamma(
    summaries: Sequence[RFMSummary],
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
    x = np.array([s.frequency for s in summaries], dtype=float)
    m = np.array([s.monetary_value for s in summaries], dtype=float)
    if np.any(x == 0):
        raise DataError("gamma-gamma requires frequency > 0 for every row")
    if np.any(m <= 0):
        raise DataError("gamma-gamma requires positive monetary_value")
    if initial is not None:
        x0 = np.array([initial.p, initial.q, initial.gamma])
    else:
        x0 = np.array([1.0, 2.0, max(m.mean(), 1e-6)])

    # spend is continuous and rows do not repeat, but betaln, the costliest
    # term, depends on x alone
    x_values, at_x = np.unique(x, return_inverse=True)

    def loglik(vec):
        p, q, g = vec
        return np.sum(_gamma_gamma_loglik_arrays(p, q, g, x, m, betaln(p * x_values, q)[at_x]))

    return _fit(loglik, x0, penalizer, restarts, seed, lambda v: GammaGammaParams(*v))


# ---------------------------------------------------------------------------
# CLV composition


def discounted_clv(
    purchase_params: ParetoNBDParams | BGNBDParams,
    spend_params: GammaGammaParams,
    summaries: Sequence[RFMSummary],
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
    2F1 call per block of customers under BG/NBD) once for all periods.
    """
    if horizon < 0:
        raise DataError("horizon must be >= 0")
    if discount_rate < 0:
        raise DataError("discount_rate must be >= 0")
    if period <= 0:
        raise DataError("period must be > 0")
    n_periods = horizon / period
    if abs(n_periods - round(n_periods)) > 1e-9:
        raise DataError("horizon must be a whole number of periods")
    k = np.arange(1, int(round(n_periods)) + 1, dtype=float)
    x, t_x, T, m = summary_arrays(summaries)
    _validate_summary(x, t_x, T)
    value = np.atleast_1d(conditional_expected_value(spend_params, x, m))
    discount = (1.0 + discount_rate) ** -k
    clv = np.zeros_like(x)
    for rows, cumulative in _expected_blocks(purchase_params, x, t_x, T, k * period):
        clv[rows] = (np.diff(cumulative, axis=1, prepend=0.0) * discount).sum(axis=1)
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
    if period <= 0:
        raise DataError("period must be > 0")
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
