"""Shared maximum-likelihood optimizer: bounded L-BFGS-B over log-parameters.

Parameters are optimized as logs so positivity holds by construction, boxed
to +-LOG_PARAM_BOUND, beyond which they only feed overflow. Gradients are
finite differences. Callers scale the objective to O(1): unscaled, the first
projected step of a cohort-sized NLL jumps to a corner of the box. A
jittered restart runs only when a start fails: it did not report success,
met a non-finite value (a line search stalled on one can pass the tolerance
where it started), or ended with a log-parameter at a bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

MAX_EVALS = 10_000
DEFAULT_RESTARTS = 5
LOG_PARAM_BOUND = 50.0
_JITTER = 0.3
# tolerances on the O(1) objective; SciPy's defaults stop gamma-gamma fits
# up to 1e-10 relative short of the optimum
_FTOL = 1e-12
_GTOL = 1e-8


@dataclass
class MultistartResult:
    x: np.ndarray
    fun: float
    n_evals: int
    n_starts: int
    converged: bool


def minimize_multistart(
    objective,
    x0_log: np.ndarray,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> MultistartResult:
    """Minimize over log-parameters from x0_log, then from up to
    `restarts` - 1 jittered starts while every start so far has failed.

    Returns the first start that converged, else the lowest one.
    n_evals counts every objective call, finite-difference probes included.
    """
    rng = np.random.default_rng(seed)
    x0_log = np.asarray(x0_log, dtype=float)
    bounds = [(-LOG_PARAM_BOUND, LOG_PARAM_BOUND)] * x0_log.size
    n_evals = 0

    def counted(theta):
        nonlocal n_evals, met_non_finite
        n_evals += 1
        val = objective(theta)
        if np.isfinite(val):
            return val
        met_non_finite = True
        return np.inf

    best = None
    for k in range(restarts):
        start = x0_log if k == 0 else x0_log + rng.normal(0.0, _JITTER, x0_log.shape)
        met_non_finite = False
        # finite differences at a point valued inf take inf - inf
        with np.errstate(invalid="ignore"):
            res = minimize(
                counted,
                start,
                method="L-BFGS-B",
                bounds=bounds,
                options={"ftol": _FTOL, "gtol": _GTOL, "maxfun": MAX_EVALS, "maxiter": MAX_EVALS},
            )
        converged = bool(res.success and not met_non_finite and np.all(np.abs(res.x) < LOG_PARAM_BOUND))
        if converged or best is None or res.fun < best[0].fun:
            best = (res, converged)
        if converged:
            break
    res, converged = best
    return MultistartResult(
        x=np.asarray(res.x, dtype=float),
        fun=float(res.fun),
        n_evals=n_evals,
        n_starts=k + 1,
        converged=converged,
    )
