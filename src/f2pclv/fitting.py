"""Shared maximum-likelihood optimizer: bounded limited-memory BFGS over
log-parameters.

Parameters are optimized as logs so positivity holds by construction, boxed
to +-LOG_PARAM_BOUND, beyond which they only feed overflow. The objective
returns its value and its exact gradient together, so each trial point of a
line search costs one evaluation. Callers scale the objective to O(1):
unscaled, the first steps of a cohort-sized NLL leap across the box.

Each start runs L-BFGS (Nocedal & Wright, Numerical Optimization, 2nd ed.,
algorithms 7.4, 3.5 and 3.6). The direction comes from the two-loop
recursion over the last _MEMORY steps, with the initial inverse Hessian
rescaled to s.y / y.y at every iteration, as L-BFGS-B does; the first step
is 1/|g| long. A strong-Wolfe line search brackets a step and zooms in on
it by safeguarded cubic interpolation, at most _MAX_ZOOM times. A step ends
where the first log-parameter reaches a bound, and a log-parameter at a
bound drops the components of the direction that point out of the box. A
start stops, by L-BFGS-B's rules, when the largest projected gradient
component is at most _GTOL or a step lowers the objective by at most _FTOL
relative. A line search that finds no lower point ends a start too: as
converged when its first trial step promised a decrease below that _FTOL
floor, where the objective's rounding hides any, else as failed, once a
steepest-descent retry with the memory cleared has failed as well.

A jittered restart runs only when a start fails: it did not stop by those
rules, met a non-finite value or gradient (a line search stalled on one can
pass the tolerance where it started), or ended with a log-parameter at a
bound.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

MAX_EVALS = 10_000
DEFAULT_RESTARTS = 5
LOG_PARAM_BOUND = 50.0
_JITTER = 0.3
# tolerances on the O(1) objective; the defaults of SciPy's L-BFGS-B stop
# gamma-gamma fits up to 1e-10 relative short of the optimum, and at 1e-12
# BG/NBD fits stop up to 4e-14 short
_FTOL = 1e-13
_GTOL = 1e-8
_MEMORY = 10
# sufficient decrease and curvature constants of the strong Wolfe conditions
_C1 = 1e-3
_C2 = 0.9
_MAX_BRACKET = 10
_MAX_ZOOM = 10


@dataclass
class StartRecord:
    """One optimizer start: its objective evaluations, the objective value
    it ended at, whether it converged, and the optimizer's stop reason."""

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

    def counted(theta):
        nonlocal n_evals, met_non_finite
        n_evals += 1
        val, grad = objective(theta)
        if np.isfinite(val) and np.all(np.isfinite(grad)):
            return float(val), np.asarray(grad, dtype=float)
        met_non_finite = True
        return math.inf, np.full_like(theta, np.nan)

    best, starts = None, []
    for k in range(restarts):
        start = x0_log if k == 0 else x0_log + rng.normal(0.0, _JITTER, x0_log.shape)
        n_evals, met_non_finite = 0, False
        x, fun, success, message = _lbfgs(counted, start)
        converged = success and not met_non_finite and bool(np.all(np.abs(x) < LOG_PARAM_BOUND))
        starts.append(StartRecord(n_evals, fun, converged, message))
        if converged or best is None or fun < best[1]:
            best = (x, fun, converged)
        if converged:
            break
    x, fun, converged = best
    return MultistartResult(x=x, fun=fun, converged=converged, starts=starts)


def _lbfgs(fun, x):
    """One L-BFGS start from x, clipped into the box. Returns (x, f,
    success, stop reason); fun must return (inf, nan gradient) for a point
    it cannot evaluate."""
    x = np.clip(x, -LOG_PARAM_BOUND, LOG_PARAM_BOUND)
    f, g = fun(x)
    n_evals = 1
    if not math.isfinite(f):
        return x, f, False, "non-finite objective at the start"
    pairs = deque(maxlen=_MEMORY)
    gamma = None
    while True:
        if _projected_gradient_max(x, g) <= _GTOL:
            return x, f, True, "projected gradient <= gtol"
        if n_evals >= MAX_EVALS:
            return x, f, False, "evaluation limit reached"
        d = _two_loop(g, pairs, 1.0 if gamma is None else gamma)
        d[((x >= LOG_PARAM_BOUND) & (d > 0)) | ((x <= -LOG_PARAM_BOUND) & (d < 0))] = 0.0
        slope = float(g @ d)
        if not slope < 0:
            if not pairs:
                return x, f, False, "no descent direction"
            # the memory gave no descent direction: start it afresh
            pairs.clear()
            continue
        step = 1.0 if gamma is not None else 1.0 / float(np.linalg.norm(g))
        point, used = _line_search(fun, x, f, slope, d, step)
        n_evals += used
        if point is None:
            if -slope * step <= _FTOL * max(abs(f), 1.0):
                return x, f, True, "no lower point within the rounding of f"
            if pairs:
                pairs.clear()
                continue
            return x, f, False, "line search found no lower point"
        x_old, f_old, g_old = x, f, g
        x, f, g = point
        if f_old - f <= _FTOL * max(abs(f_old), abs(f), 1.0):
            return x, f, True, "relative reduction of f <= ftol"
        s, y = x - x_old, g - g_old
        sy = float(s @ y)
        # skip a pair that would not keep the inverse Hessian positive definite
        if sy > np.finfo(float).eps * -float(g_old @ s):
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / float(y @ y)


def _projected_gradient_max(x, g):
    """The largest gradient component that can still move x within the box."""
    blocked = ((x >= LOG_PARAM_BOUND) & (g < 0)) | ((x <= -LOG_PARAM_BOUND) & (g > 0))
    return float(np.max(np.abs(np.where(blocked, 0.0, g))))


def _two_loop(g, pairs, gamma):
    """-H g for the L-BFGS inverse Hessian H of the stored (s, y, 1/s.y)
    pairs over the initial matrix gamma * I."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    r = gamma * q
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        r += (a - rho * float(y @ r)) * s
    return -r


def _line_search(fun, x, f0, slope, d, step):
    """Strong-Wolfe line search along d from x, whose directional derivative
    is slope < 0, first trying `step`, cut to the box. Returns ((x, f, g)
    at the accepted point, or None when no point lowered f, and the
    evaluations used)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        room = np.where(d > 0, (LOG_PARAM_BOUND - x) / d, np.where(d < 0, (-LOG_PARAM_BOUND - x) / d, np.inf))
    hit = int(np.argmin(room))
    step_max = float(room[hit])
    step = min(step, step_max)
    used = 0

    def phi(a):
        nonlocal used
        used += 1
        xa = x + a * d
        if a >= step_max:
            xa[hit] = math.copysign(LOG_PARAM_BOUND, d[hit])
        xa = np.clip(xa, -LOG_PARAM_BOUND, LOG_PARAM_BOUND)
        fa, ga = fun(xa)
        return _Trial(a, fa, float(ga @ d), (xa, fa, ga))

    def armijo(t):
        return math.isfinite(t.f) and t.f <= f0 + _C1 * t.a * slope

    prev = _Trial(0.0, f0, slope, None)
    for _ in range(_MAX_BRACKET):
        t = phi(step)
        if not armijo(t) or t.f >= prev.f:
            lo, hi = prev, t
            break
        if abs(t.slope) <= -_C2 * slope:
            return t.point, used
        if t.slope >= 0:
            lo, hi = t, prev
            break
        if step >= step_max:
            return t.point, used
        # extrapolate, as More and Thuente do, to 1.1 to 4 times the last move
        low, high = step + 1.1 * (step - prev.a), step + 4.0 * (step - prev.a)
        c = _cubic_minimizer(prev, t)
        step = min(high if c is None else min(max(c, low), high), step_max)
        prev = t
    else:
        return prev.point, used

    floor = _FTOL * max(abs(f0), 1.0)
    for _ in range(_MAX_ZOOM):
        width = hi.a - lo.a
        if -slope * abs(width) <= floor:
            # no step in the bracket can lower f by as much as the ftol
            # rule can see
            break
        a = _cubic_minimizer(lo, hi)
        if a is None or not min(lo.a, hi.a) + 0.1 * abs(width) <= a <= max(lo.a, hi.a) - 0.1 * abs(width):
            a = lo.a + 0.5 * width
        t = phi(a)
        if not armijo(t) or t.f >= lo.f:
            hi = t
            continue
        if abs(t.slope) <= -_C2 * slope:
            return t.point, used
        if t.slope * width >= 0:
            hi = lo
        lo = t
    return lo.point, used


@dataclass
class _Trial:
    """A line-search point: step a, value f, directional derivative slope,
    and (x, f, g) there (None at the search's origin)."""

    a: float
    f: float
    slope: float
    point: tuple | None


def _cubic_minimizer(u, v):
    """The minimizer of the cubic through the values and slopes at the
    steps of trials u and v, or None where it has none."""
    if not (math.isfinite(u.f) and math.isfinite(v.f)) or u.a == v.a:
        return None
    d1 = u.slope + v.slope - 3.0 * (u.f - v.f) / (u.a - v.a)
    rad = d1 * d1 - u.slope * v.slope
    if not rad >= 0:
        return None
    d2 = math.copysign(math.sqrt(rad), v.a - u.a)
    denom = v.slope - u.slope + 2.0 * d2
    if denom == 0:
        return None
    a = v.a - (v.a - u.a) * (v.slope + d2 - d1) / denom
    return a if math.isfinite(a) else None
