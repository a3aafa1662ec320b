"""Gauss hypergeometric function 2F1 for real arguments with z < 1.

The buy-till-you-die likelihoods evaluate 2F1 for every customer on every
optimizer step, with moderate parameters but arguments that can approach
the z = 1 singularity, so this is implemented as one vectorized power
series, summed in linear space and rescaled by powers of two when a sum
outgrows double range, together with the standard 1-z connection formula
near the singularity and Pfaff's transformation for negative z. Every row
of a call stops summing at its own convergence, so a row gets the same
value whatever other rows share the call.

The direct series needs about b*z/(1-z) terms, so a large b just below the
z = 0.9 switch can exhaust MAX_TERMS. The Pareto/NBD likelihood therefore
passes its 2F1(a, b; a+1; z) in Euler's form, 2F1(1, a+1-b; a+1; z) times
(1-z)^(1-b), whose term ratio never exceeds z, so those rows stop within
about 260 terms at SERIES_TOL whatever their parameters.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, gammasgn

from .errors import NumericalError

SERIES_TOL = 1e-12
MAX_TERMS = 10_000

# Above this the direct series converges too slowly; switch to the 1-z
# connection formula.
_Z_SWITCH = 0.9

# Machine-relative stop for sums whose magnitude dwarfs the absolute
# tolerance.
_REL_STOP = 1e-16

# A partial sum past _RESCALE (about 3e150) is multiplied by 2**-_STEP, which
# is exact. The sum is then above 2**100, where the absolute tolerance is
# below the rounding of the relative one, as in any sum this large. Sums are
# checked every 4 terms, so one overflows only if it grows by more than
# 2**400 (about 1e120) within 4 terms.
_RESCALE = 2.0**500
_STEP = 400


def _dither_nonpositive_integer(c):
    """Shift c off non-positive integers where the series would divide by 0."""
    near = (c <= 1e-9) & (np.abs(c - np.round(c)) < 1e-9)
    return np.where(near, c + 1e-9, c)


def _series(a, b, c, z, max_terms):
    """Direct power series as (log|sum|, sign).

    The sum runs in linear space; a row whose partial sum passes _RESCALE
    is scaled down by a power of two and the step counted, so sums beyond
    double range need no second path. Each row stops at its own
    convergence, so a row's value does not depend on the other rows in the
    call.
    """
    c = _dither_nonpositive_integer(c)
    total = np.ones_like(z)
    # a row's sum is total * 2**(_STEP * steps)
    steps = np.zeros_like(z)
    # the series state of the rows still summing
    rows = np.arange(z.size)
    term = total.copy()
    partial = total.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_terms):
            term = term * ((a + n) * (b + n)) / ((c + n) * (n + 1.0)) * z
            partial = partial + term
            # the convergence test costs as much as a term; amortize it
            if n % 4 != 3 and n != max_terms - 1:
                continue
            mag = np.abs(partial)
            big = mag > _RESCALE
            if big.any():
                for v in (partial, term, mag):
                    v[big] = np.ldexp(v[big], -_STEP)
                steps[rows[big]] += 1.0
            done = np.abs(term) < SERIES_TOL + _REL_STOP * mag
            n_done = np.count_nonzero(done)
            if n_done == 0:
                continue
            total[rows[done]] = partial[done]
            if n_done == rows.size:
                with np.errstate(divide="ignore"):
                    return np.log(np.abs(total)) + steps * (_STEP * np.log(2.0)), np.sign(total)
            keep = ~done
            rows, a, b, c, z, term, partial = (
                v[keep] for v in (rows, a, b, c, z, term, partial)
            )
    raise NumericalError(
        "2F1 series did not converge within %d terms (max |z| = %.6g)"
        % (max_terms, float(np.max(np.abs(z))))
    )


def _log_gamma_ratio(tops, bottoms):
    """(sign, log) of prod Gamma(tops) / prod Gamma(bottoms)."""
    log = np.zeros_like(tops[0])
    sign = np.ones_like(tops[0])
    for t in tops:
        log = log + gammaln(t)
        sign = sign * gammasgn(t)
    for u in bottoms:
        log = log - gammaln(u)
        sign = sign * gammasgn(u)
    return log, sign


def _connection_log(a, b, c, z, max_terms):
    """2F1 near z = 1 via the two-series connection formula in w = 1 - z.

    Requires c - a - b away from an integer; values within 1e-6 of one are
    dithered, costing up to ~1e-6 relative accuracy at those points.
    """
    d = c - a - b
    near_int = np.abs(d - np.round(d)) < 1e-6
    c = np.where(near_int, c + 2e-6, c)
    d = c - a - b
    w = 1.0 - z

    log_g1, sign_g1 = _log_gamma_ratio((c, d), (c - a, c - b))
    log_f1, sign_f1 = _series(a, b, a + b - c + 1.0, w, max_terms)
    log_t1 = log_g1 + log_f1
    sign_t1 = sign_g1 * sign_f1

    log_g2, sign_g2 = _log_gamma_ratio((c, -d), (a, b))
    log_f2, sign_f2 = _series(c - a, c - b, d + 1.0, w, max_terms)
    log_t2 = log_g2 + log_f2 + d * np.log(w)
    sign_t2 = sign_g2 * sign_f2

    hi = np.maximum(log_t1, log_t2)
    with np.errstate(invalid="ignore", divide="ignore"):
        total = sign_t1 * np.exp(log_t1 - hi) + sign_t2 * np.exp(log_t2 - hi)
        return hi + np.log(np.abs(total)), np.sign(total)


def log_hyp2f1(a, b, c, z, max_terms=MAX_TERMS):
    """(sign, log|2F1(a, b; c; z)|), vectorized over broadcast inputs.

    Supports real arguments with -0.9 <= z < 1; raises NumericalError if
    the series fails to converge and ValueError outside the domain.
    """
    scalar = all(np.ndim(v) == 0 for v in (a, b, c, z))
    a, b, c, z = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b, c, z))
    )
    a, b, c, z = (np.ascontiguousarray(v) for v in (a, b, c, z))
    if (z >= 1.0).any() or (z < -_Z_SWITCH).any():
        raise ValueError("2F1 evaluation requires -0.9 <= z < 1")

    log_scale = 0.0
    neg = z < 0.0
    if neg.any():
        # Pfaff: 2F1(a, b; c; z) = (1-z)^(-b) 2F1(c-a, b; c; z/(z-1)) maps
        # [-0.9, 0) into (0, 0.48), sparing the alternating series its
        # cancellation at large parameters
        log_scale = np.where(neg, -b * np.log1p(-z), 0.0)
        a = np.where(neg, c - a, a)
        z = np.where(neg, z / (z - 1.0), z)

    log_f = np.zeros_like(z)
    sign_f = np.ones_like(z)
    near = z > _Z_SWITCH
    idx = ~near
    if idx.any():
        log_f[idx], sign_f[idx] = _series(a[idx], b[idx], c[idx], z[idx], max_terms)
    if near.any():
        log_f[near], sign_f[near] = _connection_log(
            a[near], b[near], c[near], z[near], max_terms
        )
    log_f = log_f + log_scale
    if scalar:
        return float(sign_f[0]), float(log_f[0])
    return sign_f, log_f


def hyp2f1(a, b, c, z, max_terms=MAX_TERMS):
    """2F1(a, b; c; z) in linear space; overflows to +/-inf honestly."""
    sign, log_f = log_hyp2f1(a, b, c, z, max_terms=max_terms)
    with np.errstate(over="ignore"):
        return sign * np.exp(log_f)
