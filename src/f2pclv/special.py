"""Gauss hypergeometric function 2F1 for real arguments with 0 <= z < 1.

The buy-till-you-die likelihoods evaluate 2F1 for every customer on every
optimizer step, with moderate parameters but arguments that can approach
the z = 1 singularity, so this is implemented as one vectorized power
series, summed in linear space and rescaled by powers of two when a sum
outgrows double range, together with the standard 1-z connection formula
near the singularity. The likelihoods never pass a negative z, and this
module rejects one.

The series sums its terms from the first, S = 2F1 - 1, and log 2F1 is
log1p(S), so a 2F1 near 1 is never rounded against its leading 1. A row
stops at a term below SERIES_TOL times min(1, |S|), relative to S where S is
small, and S is completed by the remainder of a geometric series in the
last term ratio: the BG/NBD horizon factor is 1 - P with P near 1 at short
horizons or with its a near 1, and needs S to relative accuracy. Past the
z = 0.9 switch, rows whose c is large against a and b still take the
series, which has shrunk below SERIES_TOL within _SHORT_TERMS terms there.

A parameter that holds one value for the whole call, such as a = 1 in every
Pareto/NBD call or both numerator parameters of the BG/NBD horizon factor,
stays a float: each pass adds n to it as a scalar, and only the inputs that
vary by row are carried from pass to pass and compacted as rows converge.
IEEE arithmetic rounds a float and an array element alike, so a row gets
the same bits either way.

Scoring one customer makes calls of one to a dozen rows, where the cost of
a term is the interpreter's, not the arithmetic's. So each pass over the
rows still summing adds a block of terms, up to _MAX_BLOCK and as many as
fit _BLOCK_CELLS cells; a block's term ratios come from whole-block
operations and its running terms and sums from one ufunc.accumulate, which
adds in the order of a term-by-term loop. Past about 150 rows, as in a fit
step or a batch, a block would be too narrow for the scan to pay, and a
pass adds one term. Convergence is checked at every 4th term, a block that
runs past a check whose sum needs rescaling is redone up to it, and every
row stops summing at its own convergence, so a row gets the same bits
whatever the width and whatever other rows share the call.

The cells of a (customer x period) grid share a, b and c along a row, and
so every term ratio but z. A call without tangents of at least
_ROW_MIN_ROWS rows whose a, b and c are the same along the last axis is
summed by row (_row_series): each term ratio is computed once per row, and
each cell is still summed to its own stop and completed by its own
remainder, operation for operation as the series above sums it, so every
cell has the same bits by either route. A call with one argument per row
or with tangents, such as a fit's or a single horizon's, and a call of
fewer rows, where the sweep's cost per term would be the interpreter's,
is summed cell by cell.

One dispatch routes each cell once, over chunks whose arrays stay in
cache: _CHUNK_ROWS cells, or whole rows of at most _ROW_CHUNK_CELLS cells
for a call summed by row. A cell past the switch whose direct series is
not short goes to the connection formula, and every other cell to the
series. Summed by row, a chunk's series cells go through the row sweep
first, and those it cannot sum as the series would go to the series cell
by cell: those whose sums would be rescaled, those of rows whose terms
change sign after the first, and those not stopped by max_terms. A call is
mostly fixed cost, so it takes no step its rows do not need. A call summed
cell by cell that is one chunk whose rows all lie below the switch goes
straight to the series, and a chunk whose rows all take one route goes
unsplit. The series tracks rows by position and keeps per-row results only
once a pass leaves some rows summing; a call whose rows all stop in its
first pass, as a one-customer request's do, finishes from that pass's
values as they are.

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
A call without tangents does none of this work.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma, gammaln, gammasgn

from .errors import NumericalError

SERIES_TOL = 1e-12
MAX_TERMS = 10_000

# Above this the direct series converges too slowly; switch to the 1-z
# connection formula, except on rows whose direct series has shrunk below
# SERIES_TOL by term _SHORT_TERMS (see _direct_is_short).
_Z_SWITCH = 0.9
_SHORT_TERMS = 64

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

# A pass of the series adds up to _MAX_BLOCK terms to each row still
# summing, as many as keep the block within _BLOCK_CELLS cells.
_BLOCK_CELLS = 2**10
_MAX_BLOCK = 64
_OFFSETS = np.arange(_MAX_BLOCK, dtype=float)[:, None]

# Rows are evaluated in chunks of at most this many. A chunk's arrays, 128
# kB each, stay in cache and in the allocator's reused memory; the arrays of
# a 200k-row call do neither, and whenever the allocator maps blocks that
# large afresh, each pass pages them in anew.
_CHUNK_ROWS = 2**14

# A call of at least _ROW_MIN_ROWS rows whose a, b and c are the same along
# its last axis is summed row by row (_row_series), in chunks of rows of at
# most _ROW_CHUNK_CELLS cells; below about 1,000-2,000 rows the interpreter's
# cost of a pass outweighs the ratios shared. Its rows are ordered by their
# term ratio at term _ORDER_TERM times their largest z, and its term ratios
# computed _RATIO_TERMS terms, one check's worth, at a time.
_ROW_MIN_ROWS = 2**11
_ROW_CHUNK_CELLS = 2**16
_ORDER_TERM = 16.0
_RATIO_TERMS = 4


def _dither_nonpositive_integer(c):
    """Shift c off non-positive integers where the series would divide by 0."""
    if not np.count_nonzero(c <= 1e-9):
        return c
    near = (c <= 1e-9) & (np.abs(c - np.round(c)) < 1e-9)
    return np.where(near, c + 1e-9, c)


def _combine(*pairs):
    """The sum of coef * tangent over the (coef, tangent) pairs whose tangent
    is given; None, for a tangent that is identically 0, when none is."""
    given = [coef * t for coef, t in pairs if t is not None]
    return sum(given[1:], given[0]) if given else None


def _scan(op, carry, steps, out):
    """out[j] = carry op steps[0] op ... op steps[j] along axis -2, in the
    order of a term-by-term loop; carry has length 1 on that axis and out
    may be steps."""
    if steps.shape[-2] == 1:
        op(carry, steps, out=out)
    else:
        op(carry, steps[..., :1, :], out=out[..., :1, :])
        if out is not steps:
            out[..., 1:, :] = steps[..., 1:, :]
        op.accumulate(out, axis=-2, out=out)


def _series(a, b, c, z, max_terms, tangents=None):
    """Direct power series as (log|2F1|, sign, d log|2F1|).

    The sum S of the terms from n = 1 runs in linear space, and log|2F1| is
    log1p(S), so a 2F1 near 1 keeps the digits of S; once a row has stopped,
    S is completed by a geometric estimate of the terms past its last one
    (see the module docstring). A row whose S passes
    _RESCALE is scaled down by a power of two and the step counted, so sums
    beyond double range need no second path. Each row stops at its own
    convergence, so a row's value does not depend on the other rows in the
    call.

    A parameter among a, b and c is an array with one value per row of z or
    a scalar held for the whole call; only the arrays, and a scalar with a
    tangent, are carried from pass to pass and compacted as rows converge.

    Each pass adds a block of up to _MAX_BLOCK terms to the rows still
    summing, as many as keep the block within _BLOCK_CELLS cells, or one
    term where that block would be too narrow for its rows (see below): a
    call with few rows pays the interpreter's per-pass cost once per block.
    Term n+1 is term n times ratio_n * z; the ratios of a block come from
    whole-block operations and its running terms and sums from one prefix
    scan (_scan). Every 4th term is a convergence check, so a row stops at
    the same term and with the same bits whatever the width. A block that
    runs past a check whose sum needs rescaling is redone up to that check,
    where the rescaling ends it.

    With tangents (da, db, dc, dz), each (k, rows) or None for an input
    held fixed, d log|2F1| is (k, rows), else None. The partial derivatives
    along the inputs with a tangent are summed beside the value, as the
    module docstring describes; along z, n t_n / z is summed as (n+1) times
    term n times ratio_n.

    Like _connection_log and _direct_is_short, it runs under log_hyp2f1's
    np.errstate.
    """
    c = _dither_nonpositive_integer(c)
    params = (a, b, c)
    coords = [] if tangents is None else [i for i, t in enumerate(tangents) if t is not None]
    # a parameter that varies by row, or has a tangent, is carried as one
    # value per row; any other stays a float, to which each pass adds n.
    # source[i] tells where a+n, b+n or c+n is found: (0, j) for row j of
    # the carried inputs' shift, (1, j) for the j-th fixed value plus n
    carried, fixed_values, source = [], [], []
    for i, p in enumerate(params):
        if getattr(p, "ndim", 0) or i in coords:
            source.append((0, len(carried)))
            carried.append(i)
        else:
            source.append((1, len(fixed_values)))
            fixed_values.append(float(p))
    z_all = z
    poles = [carried.index(i) for i in coords if i < 3]
    m, q = len(poles), len(coords)
    if poles and poles[-1] - poles[0] == m - 1:
        # a slice takes the shifted poles without a copy
        poles = slice(poles[0], poles[-1] + 1)
    # the rows still summing: their carried inputs and z, and what each
    # carries into the next block (its term, its sum, the running sums of the
    # poles' reciprocals and the partial derivatives of the sum, poles then
    # z), each in one array that one take compacts; rows, their positions in
    # the call, is None until a pass leaves some of them summing
    rows = None
    inputs = np.empty((len(carried) + 1, z.size))
    for j, i in enumerate(carried):
        inputs[j] = params[i]
    inputs[-1] = z
    # one value per row, as every later pass carries: an operand that
    # broadcasts costs a ufunc call about twice as much on few rows
    carry = np.zeros((2 + m + q, 1, z.size))
    # term 0 is 1; the sums start after it
    carry[0] = 1.0
    # a row's S is total * 2**(_STEP * steps); last holds its last checked
    # term and that term's ratio, without z, to the one before. These are
    # per row of the call, made when a pass first leaves rows summing (steps
    # when a sum is first rescaled); a call whose rows all stop in one pass
    # takes them from the block as they are
    total = steps = None
    n = 0
    while True:
        # the rows still summing changed
        size = z.size if rows is None else rows.size
        # accumulate runs one strided loop per column, so a block whose
        # terms are few for its rows would cost more than one term per
        # pass; for blocks of up to _BLOCK_CELLS cells it is the faster
        # from about 8 terms, where 4 * width**2 passes the row count
        full = min(_MAX_BLOCK, _BLOCK_CELLS // size)
        if 4 * full * full <= size:
            full = 1
        # one (1, rows) row per input, so that a block of one term needs
        # no broadcasting
        carried_inputs, z = inputs[:-1, None], inputs[-1:]
        term, partial, recip, dpartial = carry[0], carry[1], carry[2 : 2 + m], carry[2 + m :]
        redo = 0
        while n < max_terms:
            width = redo or min(full, max_terms - n)
            redo = 0
            # fresh arrays each pass, as a term-by-term loop makes them:
            # the allocator hands each pass the memory the last one freed,
            # where buffers kept for a call would be paged in anew by the
            # next call
            block = np.empty((2 + m + q, width, size))
            block_terms, block_sums, block_recip, block_dsums = block[0], block[1], block[2 : 2 + m], block[2 + m :]
            # n as a float: numpy converts an int operand more slowly
            k = _OFFSETS[:width] + float(n) if width > 1 else float(n)
            # a+n, b+n and c+n, which are also the poles
            shift = np.add(carried_inputs, k) if carried else None
            both = (shift, [v + k for v in fixed_values])
            shifts = [both[side][j] for side, j in source]
            ratio = np.multiply(shifts[2], k + 1.0)
            # in place where c, and so the ratio, has a value per row
            ratio = np.divide(np.multiply(shifts[0], shifts[1]), ratio, out=ratio if 2 in carried else None)
            np.multiply(ratio, z, out=block_terms)
            _scan(np.multiply, term, block_terms, block_terms)
            _scan(np.add, partial, block_terms, block_sums)
            if q:
                np.divide(1.0, shift[poles], out=block_recip)
                _scan(np.add, recip, block_recip, block_recip)
                np.multiply(block_recip, block_terms, out=block_dsums[:m])
                if m < q:
                    # along z: (n+1) times term n times ratio_n
                    dz = block_dsums[m]
                    np.multiply(term, ratio if width == 1 else ratio[:1], out=dz[:1])
                    if width > 1:
                        np.multiply(block_terms[:-1], ratio[1:], out=dz[1:])
                    dz *= k + 1.0
                _scan(np.add, dpartial, block_dsums, block_dsums)
            n += width
            # the convergence test costs as much as a term; amortize it
            first = (3 - n + width) % 4
            if first < width or n == max_terms:
                at = slice(first, width, 4)
                if n == max_terms and (width - 1 - first) % 4:
                    at = [*range(first, width, 4), width - 1]
                mag = np.abs(block_sums[at])
                big = mag > _RESCALE
                # count_nonzero: on few rows the cheapest reduction
                if np.count_nonzero(big):
                    # the block is redone up to its first check whose
                    # sum needs rescaling, which then ends it
                    end = np.arange(width)[at][big.any(axis=1).argmax()] + 1
                    if end < width:
                        n -= width
                        redo = end
                        continue
                    big = big[-1]
                    for v in (block_terms[-1], block_sums[-1], mag[-1]):
                        v[big] = np.ldexp(v[big], -_STEP)
                    block_dsums[:, -1, big] = np.ldexp(block_dsums[:, -1, big], -_STEP)
                    if steps is None:
                        steps = np.zeros(z_all.size)
                    steps[big if rows is None else rows[big]] += 1.0
                # SERIES_TOL relative to a sum S below 1: where 2F1 is
                # near 1 its callers need F - 1 to relative accuracy
                done = np.abs(block_terms[at]) <= SERIES_TOL * np.minimum(mag, 1.0) + _REL_STOP * mag
                hit = done.any(axis=0) if len(done) > 1 else done[0]
                n_hit = np.count_nonzero(hit)
                if n_hit:
                    break
            term, partial = block_terms[-1:], block_sums[-1:]
            recip, dpartial = block_recip[:, -1:], block_dsums[:, -1:]
        else:
            raise NumericalError(
                "2F1 series did not converge within %d terms (max |z| = %.6g)" % (max_terms, float(np.max(np.abs(z))))
            )
        # positions, not masks: on thousands of rows taking by them is
        # about twice as fast
        finished = hit.nonzero()[0]
        # argmax along the first axis runs once per column
        check = (done if n_hit == size else done[:, finished]).argmax(axis=0) if len(done) > 1 else 0
        # each finished row's last checked term, sum, reciprocal sums and
        # partial derivatives, in one take
        stopped = block[:, at][:, check, finished]
        done_sums = stopped[1]
        done_last = (
            stopped[0],
            ratio[at][check, finished if ratio.shape[-1] > 1 else 0] if isinstance(ratio, np.ndarray) else ratio,
        )
        # d log 2F1 = dS / (1 + S); a rescaled S is above 2**100, so adding 1
        # leaves it as it is
        done_d = stopped[2 + m :] / (done_sums + 1.0) if q else None
        if rows is None and n_hit == size:
            total, last, dtotal = done_sums, done_last, done_d
            break
        if total is None:
            total, *last = np.empty((3, z_all.size))
            dtotal = np.empty((q, z_all.size)) if q else None
        at_rows = finished if rows is None else rows.take(finished)
        total[at_rows] = done_sums
        last[0][at_rows], last[1][at_rows] = done_last
        if q:
            dtotal[:, at_rows] = done_d
        if n_hit == size:
            break
        keep = (~hit).nonzero()[0]
        rows = keep if rows is None else rows.take(keep)
        inputs = inputs.take(keep, axis=1)
        carry = block[:, -1:].take(keep, axis=2)
    log_f, sign = _completed_log(total, last[0], last[1] * z_all, steps)
    if tangents is None:
        return log_f, sign, None
    return log_f, sign, _combine(*((-d if i == 2 else d, tangents[i]) for d, i in zip(dtotal, coords)))


def _completed_log(total, t, rho, steps=None):
    """(log|2F1|, sign) from the sum S of a series' terms up to its last,
    t, whose ratio to the term before it is rho, with S scaled by 2**-_STEP
    per step counted; total is S, and is overwritten."""
    # S is completed by the remainder past t, estimated as a geometric
    # series in rho: t rho / (1 - rho). Where the ratio is not below 1 S
    # stays as summed: adding 0 would leave it as it is, as S is never -0
    np.add(total, t * rho / (1.0 - rho), out=total, where=np.abs(rho) < 1.0)
    log_f, sign = np.log1p(total), np.sign(total + 1.0)
    negative = total < -1.0
    if np.count_nonzero(negative):
        # a 2F1 below 0
        log_f[negative] = np.log(-1.0 - total[negative])
    if steps is not None:
        log_f += steps * (_STEP * np.log(2.0))
    return log_f, sign


def _direct_is_short(a, b, c, z):
    """Rows whose direct series stops within about _SHORT_TERMS terms: term
    n = _SHORT_TERMS is below SERIES_TOL times min(1, |term 1|), and the term
    ratio stays below 1 from n on.

    A c large against a and b, as in a heavy buyer's BG/NBD cell, makes the
    terms shrink fast whatever z; the connection formula would take gamma
    ratios of large arguments there, whose rounding costs digits.
    """
    n = float(_SHORT_TERMS)
    # log |term n| = log |(a)_n (b)_n / ((c)_n n!)| + n log z
    log_term = (
        gammaln(a + n) - gammaln(a) + gammaln(b + n) - gammaln(b)
        - gammaln(c + n) + gammaln(c) - gammaln(n + 1.0) + n * np.log(z)
    )
    log_first = np.minimum(np.log(np.abs(a * b / c * z)), 0.0)
    # the ratio minus 1 has the sign of z (j+a)(j+b) - (j+c)(j+1), a
    # parabola in j opening downwards whose vertex must lie before n
    ratio = z * (a + n) * (b + n) / ((c + n) * (n + 1.0))
    vertex = (z * (a + b) - c - 1.0) / (2.0 * (1.0 - z))
    return (log_term < np.log(SERIES_TOL) + log_first) & (np.abs(ratio) < 1.0) & (vertex <= n)


def _term_ratio(a, b, c, k):
    """(a+k)(b+k) / ((c+k)(k+1)), the ratio of term k+1 of the series to
    term k without z, rounded as _series rounds it."""
    return np.multiply(a + k, b + k) / np.multiply(c + k, k + 1.0)


def _row_series(a, b, c, z, max_terms):
    """The direct series of every cell of z, (rows, width), whose rows each
    hold one a, b and c, as (log|2F1|, sign, left): left marks the cells
    whose values are not given, those whose sums _series would rescale or
    that had not stopped by max_terms, and those of rows whose terms change
    sign after the first.

    A cell's terms, sums, stop and remainder are those _series gives it,
    operation for operation, so its bits are too; what the cells of a row
    share, the term ratio without z, is computed once per row and term. The
    cells are held as (width, rows), the rows ordered by their ratio at term
    _ORDER_TERM times their largest z, longest series first, so that the
    rows still summing stay a prefix of that order. Each pass adds one term
    to the cells of that prefix, past the leading columns whose cells have
    all stopped. The terms and sums are summed as magnitudes: a row's first
    ratio is taken as its absolute value, which flips the sign of every term
    and sum of its cells exactly. Every 4th term, and the last allowed, is a
    check where a cell whose term meets _series' stop rule keeps that term
    and its ratio to the one before, and has its z set to 0, so that its
    later terms are 0 and its sum stays as it was.
    """
    rows, width = z.shape
    c = _dither_nonpositive_integer(c)
    # contiguous (width, rows): a pass broadcasts each row's ratio along the
    # last axis
    z = np.ascontiguousarray(z.T)
    order = np.argsort(-np.abs(_term_ratio(a, b, c, _ORDER_TERM) * z.max(axis=0)))
    params = [(v[order], True) if np.ndim(v) else (float(v), False) for v in (a, b, c)]
    z = z.take(order, axis=1)
    term, total, ratio, scratch, bound, last_term, last_ratio = np.empty((7, width, rows))
    term.fill(1.0)
    for v in (total, last_term, last_ratio):
        v.fill(0.0)
    summing, left, stops = np.zeros((3, width, rows), dtype=bool)
    summing[:] = True
    sign = 1.0
    # the cells still summing lie in columns [lead, width) of rows [0, size)
    lead, size, n = 0, rows, 0
    while size and n < max_terms:
        # the ratios of the terms up to the next check
        k = _OFFSETS[: min(_RATIO_TERMS, max_terms - n)] + float(n)
        steps = _term_ratio(*[v[:size] if per_row else v for v, per_row in params], k)
        if steps.shape[1] != size:
            steps = np.broadcast_to(steps, (k.size, size))
        if n == 0:
            sign = np.sign(steps[0])
            steps = steps.copy()
            steps[0] = np.abs(steps[0])
        later = steps[1:] if n == 0 else steps
        if later.size and later.min() < 0.0:
            # the magnitudes would not be the terms': leave these rows
            changed = np.flatnonzero(later.min(axis=0) < 0.0)
            left[:, changed] = True
            term[:, changed] = 0.0
        cells = (slice(lead, width), slice(0, size))
        z_rows, t, s, r = z[cells], term[cells], total[cells], ratio[cells]
        for step in steps:
            np.multiply(step[:size], z_rows, out=r)
            np.multiply(t, r, out=t)
            np.add(s, t, out=s)
            n += 1
            if n % 4 and n < max_terms:
                continue
            largest = s.max()
            if not largest <= _RESCALE:
                # sums _series would rescale, or that overflowed: leave them,
                # and stop them here
                over = ~(s <= _RESCALE)
                left[cells] |= over
                for v in (t, s, z_rows):
                    np.copyto(v, 0.0, where=over)
                largest = s.max()
            tmp, stop = scratch[cells], bound[cells]
            # min(|S|, 1) is |S| itself while no |S| passes 1
            np.multiply(np.minimum(s, 1.0, out=stop) if largest > 1.0 else s, SERIES_TOL, out=stop)
            np.multiply(s, _REL_STOP, out=tmp)
            stop += tmp
            done = np.less_equal(t, stop, out=stops[cells])
            # the cells stopping at this check, which were summing at the
            # last; a stopped cell's terms are 0 from here, as its z is
            now = np.logical_and(done, summing[cells], out=done)
            np.copyto(last_term[cells], t, where=now)
            np.copyto(last_ratio[cells], r, where=now)
            np.copyto(z_rows, 0.0, where=now)
            still = np.logical_xor(summing[cells], now, out=summing[cells])
            rows_left = np.flatnonzero(still.any(axis=0))
            if not rows_left.size:
                size = 0
                break
            size = rows_left[-1] + 1
            lead += int(np.argmax(still[:, :size].any(axis=1)))
            cells = (slice(lead, width), slice(0, size))
            z_rows, t, s, r = z[cells], term[cells], total[cells], ratio[cells]
    # the signed sum, never -0, and last term
    np.multiply(total, sign, out=total)
    total += 0.0
    log_f, sign = _completed_log(total, np.multiply(last_term, sign, out=last_term), last_ratio)
    back = np.empty_like(order)
    back[order] = np.arange(rows)
    return log_f.T[back], sign.T[back], (summing | left).T[back]


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


def _dispatch(a, b, c, z, max_terms, tangents, all_below, width):
    """(log|2F1|, sign, d log|2F1|) of each cell of flat z, each routed once
    as the module docstring describes. With width, z holds rows of width
    cells whose a, b and c are floats or one value per row, summed by row;
    else a, b and c are floats or one value per cell, and all_below says
    that no z passes the switch."""
    if not width and 0 < z.size <= _CHUNK_ROWS and all_below:
        # one chunk whose rows all take the series: no split, no scatter
        return _series(a, b, c, z, max_terms, tangents)
    log_f, sign_f = np.empty_like(z), np.empty_like(z)
    dlog_f = None if tangents is None else np.empty((next(t for t in tangents if t is not None).shape[0], z.size))
    per_chunk = max(1, _ROW_CHUNK_CELLS // width) * width if width else _CHUNK_ROWS

    def params(at):
        return [v if isinstance(v, float) else v[at] for v in (a, b, c)]

    for start in range(0, z.size, per_chunk):
        chunk = slice(start, start + per_chunk)
        near = z[chunk] > _Z_SWITCH
        if np.count_nonzero(near):
            at = start + np.flatnonzero(near)
            near[at - start] = ~_direct_is_short(*params(at // width if width else at), z[at])
        n_near = np.count_nonzero(near)
        if not width and n_near in (0, near.size):
            # every row on one side of the switch: no split
            parts = [(chunk, _connection_log if n_near else _series)]
        else:
            series = ~near
            if width:
                # the cells the connection formula takes are swept as if z
                # were 0: their z would slow the rest
                swept = np.where(near, 0.0, z[chunk]) if n_near else z[chunk]
                rows = slice(start // width, chunk.stop // width)
                summed = _row_series(*params(rows), swept.reshape(-1, width), max_terms)
                log_f[chunk], sign_f[chunk], left = (v.reshape(-1) for v in summed)
                series &= left
            parts = [(start + np.flatnonzero(series), _series), (start + np.flatnonzero(near), _connection_log)]
        for cells, evaluate in parts:
            if isinstance(cells, np.ndarray) and not cells.size:
                continue
            cell_tangents = None if tangents is None else tuple(None if t is None else t[:, cells] for t in tangents)
            values = evaluate(*params(cells // width if width else cells), z[cells], max_terms, cell_tangents)
            log_f[cells], sign_f[cells] = values[:2]
            if values[2] is not None:
                dlog_f[:, cells] = values[2]
    return log_f, sign_f, dlog_f


def log_hyp2f1(a, b, c, z, max_terms=MAX_TERMS, tangents=None):
    """(sign, log|2F1(a, b; c; z)|), vectorized over broadcast inputs.

    Supports real arguments with 0 <= z < 1; raises NumericalError if the
    series fails to converge and ValueError outside the domain.

    With tangents = (da, db, dc, dz), each of shape (k,) + the broadcast
    shape of the inputs, or None for an input held fixed, returns (sign,
    log|2F1|, dlog) instead, where dlog[j] is the derivative of log|2F1|
    along the j-th of the k directions.
    """
    a, b, c, z = (np.asarray(v, dtype=float) for v in (a, b, c, z))
    scalar = not (a.ndim or b.ndim or c.ndim or z.ndim)
    # rows below the switch, which the series takes, and failing that the
    # rows in the domain; a comparison with NaN is false, so NaN is in neither
    below = np.count_nonzero((z >= 0.0) & (z <= _Z_SWITCH))
    if below < z.size and np.count_nonzero((z >= 0.0) & (z < 1.0)) < z.size:
        raise ValueError("2F1 evaluation requires 0 <= z < 1")
    shape = np.broadcast(a, b, c, z).shape
    # cells along the last axis whose a, b and c are the same share their
    # rows' term ratios (see _row_series)
    row_width = (
        shape[-1]
        if tangents is None and len(shape) and shape[-1] > 1 and math.prod(shape[:-1]) >= _ROW_MIN_ROWS
        and all(v.ndim == 0 or v.shape[-1] == 1 for v in (a, b, c))
        else 0
    )
    # an input of the broadcast shape, contiguous, is used as given; a
    # parameter holding one value for the whole call, or for each row, stays
    # a scalar or one value per row
    z = (z if z.shape == shape and z.flags.c_contiguous else np.full(shape, z)).reshape(-1)
    param_shape = shape[:-1] + (1,) if row_width else shape
    a, b, c = (
        v.item() if v.size == 1
        else (v if v.shape == param_shape and v.flags.c_contiguous else np.full(param_shape, v)).reshape(-1)
        for v in (a, b, c)
    )
    if tangents is not None:
        k = next(np.shape(t)[0] for t in tangents if t is not None)
        tangents = tuple(
            None if t is None else np.broadcast_to(t, (k,) + shape).reshape(k, -1)
            for t in tangents
        )

    # the series and the connection formula overflow, divide by zero and
    # take logs of 0 on rows whose results stand as IEEE arithmetic gives them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_f, sign_f, dlog_f = _dispatch(a, b, c, z, max_terms, tangents, below == z.size, row_width)
    values = (float(sign_f[0]), float(log_f[0])) if scalar else (sign_f.reshape(shape), log_f.reshape(shape))
    if tangents is None:
        return values
    return values + (dlog_f[:, 0] if scalar else dlog_f.reshape((k,) + shape),)
