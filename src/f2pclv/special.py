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

The fits also need the derivative of log 2F1, which log_hyp2f1 returns in
forward mode when given tangents (da, db, dc, dz), one per input, each
with a leading axis of k directions. Term n of the series is t_n = prod_(j<n)
(a+j)(b+j) / ((c+j)(j+1)) z^n, so along a parameter p among a, b, c its
derivative is t_n times the running sum of 1/(p+j), negated for c, and
along z it is n t_n / z. The series carries these sums for the inputs that
have a tangent and sums each partial derivative beside the value, stopping
with it; once a row has converged they are contracted with the tangents.
Near z = 1 the connection formula carries the tangents through both series
in w = 1 - z, the digamma of its gamma ratios and its w^(c-a-b) factor.
Tangents need 0 <= z < 1. A call without tangents does none of this work.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma, gammaln, gammasgn

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


def _combine(*pairs):
    """The sum of coef * tangent over the (coef, tangent) pairs whose tangent
    is given; None, for a tangent that is identically 0, when none is."""
    given = [coef * t for coef, t in pairs if t is not None]
    return sum(given[1:], given[0]) if given else None


def _series(a, b, c, z, max_terms, tangents=None):
    """Direct power series as (log|sum|, sign, d log|sum|).

    The sum runs in linear space; a row whose partial sum passes _RESCALE
    is scaled down by a power of two and the step counted, so sums beyond
    double range need no second path. Each row stops at its own
    convergence, so a row's value does not depend on the other rows in the
    call.

    With tangents (da, db, dc, dz), each (k, rows) or None for an input
    held fixed, d log|sum| is (k, rows), else None. The partial derivatives
    along the inputs with a tangent are summed beside the value, as the
    module docstring describes; along z, n t_n / z is summed as (n+1) times
    term n+1 before its factor z.
    """
    c = _dither_nonpositive_integer(c)
    total = np.ones_like(z)
    # a row's sum is total * 2**(_STEP * steps)
    steps = np.zeros_like(z)
    # the series state of the rows still summing
    rows = np.arange(z.size)
    term = total.copy()
    partial = total.copy()
    state = None
    if tangents is not None:
        coords = [i for i, t in enumerate(tangents) if t is not None]
        poles = [i for i in coords if i < 3]
        m = len(poles)
        # per row: the poles, the running sums of their reciprocals, and the
        # partial derivatives of the sum (poles, then z), in one array so
        # that the rows still summing are taken from it at once
        state = np.zeros((2 * m + len(coords), z.size))
        state[:m] = [(a, b, c)[i] for i in poles]
        pole, recip_sum, dpartial = state[:m], state[m : 2 * m], state[2 * m :]
        dtotal = np.zeros((len(coords), z.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_terms):
            before_z = term * ((a + n) * (b + n)) / ((c + n) * (n + 1.0))
            term = before_z * z
            if state is not None:
                recip_sum += 1.0 / (pole + n)
                dpartial[:m] += recip_sum * term
                if m < len(coords):
                    dpartial[m] += (n + 1.0) * before_z
            partial = partial + term
            # the convergence test costs as much as a term; amortize it
            if n % 4 != 3 and n != max_terms - 1:
                continue
            mag = np.abs(partial)
            big = mag > _RESCALE
            if big.any():
                for v in (partial, term, mag):
                    v[big] = np.ldexp(v[big], -_STEP)
                if state is not None:
                    dpartial[:, big] = np.ldexp(dpartial[:, big], -_STEP)
                steps[rows[big]] += 1.0
            done = np.abs(term) < SERIES_TOL + _REL_STOP * mag
            n_done = np.count_nonzero(done)
            if n_done == 0:
                continue
            # positions, not masks: on thousands of rows taking by them is
            # about twice as fast
            finished = done.nonzero()[0]
            at = rows.take(finished)
            total[at] = partial.take(finished)
            if state is not None:
                dtotal[:, at] = dpartial.take(finished, axis=1) / partial.take(finished)
            if n_done == rows.size:
                with np.errstate(divide="ignore"):
                    log_f = np.log(np.abs(total)) + steps * (_STEP * np.log(2.0))
                if state is None:
                    return log_f, np.sign(total), None
                return log_f, np.sign(total), _combine(
                    *((-d if i == 2 else d, tangents[i]) for d, i in zip(dtotal, coords))
                )
            keep = (~done).nonzero()[0]
            rows, a, b, c, z, term, partial = (
                v.take(keep) for v in (rows, a, b, c, z, term, partial)
            )
            if state is not None:
                state = state.take(keep, axis=1)
                pole, recip_sum, dpartial = state[:m], state[m : 2 * m], state[2 * m :]
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


def _connection_log(a, b, c, z, max_terms, tangents=None):
    """2F1 near z = 1 via the two-series connection formula in w = 1 - z,
    as (log|2F1|, sign, d log|2F1|) with the tangents of _series.

    Requires c - a - b away from an integer; values within 1e-6 of one are
    dithered, costing up to ~1e-6 relative accuracy at those points.
    """
    d = c - a - b
    near_int = np.abs(d - np.round(d)) < 1e-6
    c = np.where(near_int, c + 2e-6, c)
    d = c - a - b
    w = 1.0 - z
    tangents1 = tangents2 = None
    if tangents is not None:
        da, db, dc, dz = tangents
        dd = _combine((1.0, dc), (-1.0, da), (-1.0, db))
        dca, dcb, dw = _combine((1.0, dc), (-1.0, da)), _combine((1.0, dc), (-1.0, db)), _combine((-1.0, dz))
        tangents1 = (da, db, _combine((1.0, da), (1.0, db), (-1.0, dc)), dw)
        tangents2 = (dca, dcb, dd, dw)

    log_g1, sign_g1 = _log_gamma_ratio((c, d), (c - a, c - b))
    log_f1, sign_f1, dlog_f1 = _series(a, b, a + b - c + 1.0, w, max_terms, tangents1)
    log_t1 = log_g1 + log_f1
    sign_t1 = sign_g1 * sign_f1

    log_g2, sign_g2 = _log_gamma_ratio((c, -d), (a, b))
    log_f2, sign_f2, dlog_f2 = _series(c - a, c - b, d + 1.0, w, max_terms, tangents2)
    log_t2 = log_g2 + log_f2 + d * np.log(w)
    sign_t2 = sign_g2 * sign_f2

    hi = np.maximum(log_t1, log_t2)
    with np.errstate(invalid="ignore", divide="ignore"):
        part1 = sign_t1 * np.exp(log_t1 - hi)
        part2 = sign_t2 * np.exp(log_t2 - hi)
        total = part1 + part2
        log_f, sign_f = hi + np.log(np.abs(total)), np.sign(total)
    if tangents is None:
        return log_f, sign_f, None
    psi_c = digamma(c)
    dlog_t1 = _combine(
        (1.0, dlog_f1), (psi_c, dc), (digamma(d), dd), (-digamma(c - a), dca), (-digamma(c - b), dcb)
    )
    dlog_t2 = _combine(
        (1.0, dlog_f2), (psi_c, dc), (np.log(w) - digamma(-d), dd), (-digamma(a), da), (-digamma(b), db),
        (d / w, dw),
    )
    return log_f, sign_f, (part1 * dlog_t1 + part2 * dlog_t2) / total


def log_hyp2f1(a, b, c, z, max_terms=MAX_TERMS, tangents=None):
    """(sign, log|2F1(a, b; c; z)|), vectorized over broadcast inputs.

    Supports real arguments with -0.9 <= z < 1; raises NumericalError if
    the series fails to converge and ValueError outside the domain.

    With tangents = (da, db, dc, dz), each of shape (k,) + the broadcast
    shape of the inputs, or None for an input held fixed, returns (sign,
    log|2F1|, dlog) instead, where dlog[j] is the derivative of log|2F1|
    along the j-th of the k directions; this needs 0 <= z < 1.
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
    if tangents is not None:
        if neg.any():
            raise ValueError("2F1 derivatives require 0 <= z < 1")
        k = next(np.shape(t)[0] for t in tangents if t is not None)
        shape = () if scalar else z.shape
        tangents = tuple(
            None if t is None else np.broadcast_to(t, (k,) + shape).reshape((k,) + z.shape) for t in tangents
        )
        dlog_f = np.zeros((k,) + z.shape)
    elif neg.any():
        # Pfaff: 2F1(a, b; c; z) = (1-z)^(-b) 2F1(c-a, b; c; z/(z-1)) maps
        # [-0.9, 0) into (0, 0.48), sparing the alternating series its
        # cancellation at large parameters
        log_scale = np.where(neg, -b * np.log1p(-z), 0.0)
        a = np.where(neg, c - a, a)
        z = np.where(neg, z / (z - 1.0), z)

    log_f = np.zeros_like(z)
    sign_f = np.ones_like(z)
    near = z > _Z_SWITCH
    for rows, evaluate in ((~near, _series), (near, _connection_log)):
        if rows.any():
            row_tangents = None if tangents is None else tuple(None if t is None else t[:, rows] for t in tangents)
            log_f[rows], sign_f[rows], d = evaluate(a[rows], b[rows], c[rows], z[rows], max_terms, row_tangents)
            if d is not None:
                dlog_f[:, rows] = d
    log_f = log_f + log_scale
    values = (float(sign_f[0]), float(log_f[0])) if scalar else (sign_f, log_f)
    if tangents is None:
        return values
    return values + (dlog_f[:, 0] if scalar else dlog_f,)
