"""Shared maximum-likelihood optimizer: bounded L-BFGS-B over log-parameters.

Parameters are optimized as logs so positivity holds by construction, boxed
to +-LOG_PARAM_BOUND, beyond which they only feed overflow. The objective
returns its value and its exact gradient together, so each L-BFGS-B step
costs one evaluation. Callers scale the objective to O(1): unscaled, the
first projected step of a cohort-sized NLL jumps to a corner of the box. A
jittered restart runs only when a start fails: it did not report success,
met a non-finite value or gradient (a line search stalled on one can pass
the tolerance where it started), or ended with a log-parameter at a bound.
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
# up to 1e-10 relative short of the optimum, and at 1e-12 BG/NBD fits stop
# up to 4e-14 short
_FTOL = 1e-13
_GTOL = 1e-8


@dataclass
class StartRecord:
    """One L-BFGS-B start: its objective evaluations, the objective value
    it ended at, whether it converged, and the optimizer's message."""

    n_evals: int
    fun: float
    converged: bool
    message: str


@dataclass
class MultistartResult:
    x: np.ndarray
    fun: float
    converged: bool
    starts: list[StartRecord]

    @property
    def n_evals(self) -> int:
        """Objective calls over every start."""
        return sum(s.n_evals for s in self.starts)

    @property
    def n_starts(self) -> int:
        return len(self.starts)


def minimize_multistart(
    objective,
    x0_log: np.ndarray,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> MultistartResult:
    """Minimize objective(theta) -> (value, gradient) over log-parameters
    from x0_log, then from up to `restarts` - 1 jittered starts while every
    start so far has failed.

    Returns the first start that converged, else the lowest one.
    """
    rng = np.random.default_rng(seed)
    x0_log = np.asarray(x0_log, dtype=float)
    bounds = [(-LOG_PARAM_BOUND, LOG_PARAM_BOUND)] * x0_log.size

    def counted(theta):
        nonlocal n_evals, met_non_finite
        n_evals += 1
        val, grad = objective(theta)
        if np.isfinite(val) and np.all(np.isfinite(grad)):
            return val, grad
        met_non_finite = True
        return np.inf, np.full_like(theta, np.nan)

    best, starts = None, []
    for k in range(restarts):
        start = x0_log if k == 0 else x0_log + rng.normal(0.0, _JITTER, x0_log.shape)
        n_evals, met_non_finite = 0, False
        res = minimize(
            counted,
            start,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"ftol": _FTOL, "gtol": _GTOL, "maxfun": MAX_EVALS, "maxiter": MAX_EVALS},
        )
        converged = bool(res.success and not met_non_finite and np.all(np.abs(res.x) < LOG_PARAM_BOUND))
        starts.append(StartRecord(n_evals, float(res.fun), converged, str(res.message)))
        if converged or best is None or res.fun < best[0].fun:
            best = (res, converged)
        if converged:
            break
    res, converged = best
    return MultistartResult(x=np.asarray(res.x, dtype=float), fun=float(res.fun), converged=converged, starts=starts)
