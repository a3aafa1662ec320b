"""2F1 series implementation checked against scipy and mpmath oracles."""

import mpmath
import numpy as np
import pytest
import scipy.special

from f2pclv import special
from f2pclv.errors import NumericalError
from f2pclv.special import _CHUNK_ROWS, MAX_TERMS, log_hyp2f1


def hyp2f1(a, b, c, z, **kwargs):
    """2F1 in linear space, from log_hyp2f1."""
    sign, log_f = log_hyp2f1(a, b, c, z, **kwargs)
    return sign * np.exp(log_f)


def test_matches_scipy_on_moderate_arguments():
    rng = np.random.default_rng(0)
    a = rng.uniform(0.1, 30, 300)
    b = rng.uniform(0.1, 30, 300)
    c = a + rng.uniform(0.2, 5, 300)
    z = rng.uniform(0.0, 0.89, 300)
    mine = hyp2f1(a, b, c, z)
    ref = scipy.special.hyp2f1(a, b, c, z)
    assert np.max(np.abs(mine - ref) / np.abs(ref)) < 1e-11


def test_matches_scipy_near_the_singularity():
    rng = np.random.default_rng(1)
    a = rng.uniform(0.1, 5, 200)
    b = rng.uniform(0.1, 5, 200)
    c = a + b + rng.uniform(0.15, 1.85, 200)
    z = rng.uniform(0.9001, 0.9995, 200)
    mine = hyp2f1(a, b, c, z)
    ref = scipy.special.hyp2f1(a, b, c, z)
    assert np.max(np.abs(mine - ref) / np.abs(ref)) < 1e-8


def test_matches_scipy_near_one_with_negative_exponent():
    rng = np.random.default_rng(2)
    a = rng.uniform(1, 10, 200)
    b = rng.uniform(1, 10, 200)
    c = a + b - rng.uniform(0.15, 3.4, 200)
    c = np.where(np.abs((c - a - b) - np.round(c - a - b)) < 0.05, c + 0.07, c)
    z = rng.uniform(0.9001, 0.999, 200)
    mine = hyp2f1(a, b, c, z)
    ref = scipy.special.hyp2f1(a, b, c, z)
    assert np.max(np.abs(mine - ref) / np.abs(ref)) < 1e-8


def test_negative_c_parameter():
    for z in (0.3, 0.97):
        mine = hyp2f1(1.3, 2.7, -0.4, z)
        ref = scipy.special.hyp2f1(1.3, 2.7, -0.4, z)
        assert mine == pytest.approx(ref, rel=1e-8)


def test_log_space_matches_mpmath_for_large_parameters():
    cases = [
        (600.5, 1.6, 601.5, 0.4),
        (1000.2, 800.3, 1001.2, 0.17),
        (50.0, 900.7, 51.0, 0.6),
        (1203.1, 1202.6, 1204.1, 0.08),
    ]
    for a, b, c, z in cases:
        sign, log_f = log_hyp2f1(a, b, c, z)
        ref = float(mpmath.log(mpmath.hyp2f1(a, b, c, z)))
        assert sign == 1.0
        assert log_f == pytest.approx(ref, rel=1e-9)


def test_rows_converge_independently_of_each_other():
    # each row stops summing at its own convergence, so mixing rows that
    # take a few terms with rows that take hundreds changes no row's value
    rng = np.random.default_rng(4)
    a = rng.uniform(0.5, 60.0, 45)
    b = rng.uniform(0.1, 20.0, 45)
    z = np.concatenate([
        rng.uniform(0.0, 0.05, 15),  # a handful of terms
        rng.uniform(0.6, 0.9, 15),  # hundreds of terms
        rng.uniform(0.9, 0.999, 15),  # connection formula
    ])
    # sums beyond double range, which the series rescales as it goes
    a = np.concatenate([a, rng.uniform(20.0, 60.0, 10)])
    b = np.concatenate([b, rng.uniform(700.0, 900.0, 10)])
    c = a + 1.0
    z = np.concatenate([z, rng.uniform(0.55, 0.7, 10)])
    sign, log_f = log_hyp2f1(a, b, c, z)
    assert log_f[-10:].max() > np.log(np.finfo(float).max)
    for i in range(z.size):
        assert log_hyp2f1(a[i], b[i], c[i], z[i]) == (sign[i], log_f[i])
        ref = mpmath.hyp2f1(float(a[i]), float(b[i]), float(c[i]), float(z[i]))
        assert sign[i] == 1.0
        assert log_f[i] == pytest.approx(float(mpmath.log(ref)), rel=1e-8, abs=1e-12)


def _assert_width_independent(a, b, c, z, max_terms=MAX_TERMS, with_tangents=False):
    """Each row gives the same bits alone, among the given rows, and among
    20,500 rows across the boundary of two chunks of a call: a pass adds
    min(64, 1024 // rows) terms, so a row alone is summed 64 terms a pass
    (or up to max_terms), among 40 rows 25 and among thousands one."""
    rng = np.random.default_rng(11)
    n = z.size
    before, after = _CHUNK_ROWS - n // 2, 4096
    n_fill = before + after
    # filler rows that converge within a few terms, on both sides of the
    # z = 0.9 switch, so that both series of the connection formula run
    # with many rows too
    fill = [rng.uniform(0.5, 3.0, n_fill), rng.uniform(0.5, 3.0, n_fill), rng.uniform(4.0, 6.0, n_fill),
            np.where(np.arange(n_fill) % 2, rng.uniform(0.0, 0.2, n_fill), rng.uniform(0.9001, 0.95, n_fill))]
    tangents = rng.normal(size=(4, 2, n + n_fill)) if with_tangents else None

    def evaluate(rows, head=0, tail=0):
        args = [np.concatenate([f[:head], v[rows], f[head : head + tail]]) for f, v in zip(fill, (a, b, c, z))]
        kwargs = {}
        if with_tangents:
            columns = np.r_[n : n + head, rows, n + head : n + head + tail]
            kwargs["tangents"] = tuple(t[:, columns] for t in tangents)
        values = log_hyp2f1(*args, max_terms=max_terms, **kwargs)
        return [np.atleast_1d(v)[..., head : head + rows.size] for v in values]

    together = evaluate(np.arange(n))
    among_many = evaluate(np.arange(n), before, after)
    alone = [evaluate(np.arange(i, i + 1)) for i in range(n)]
    for i, values in enumerate(alone):
        for v, t, m in zip(values, together, among_many):
            assert np.array_equal(v, t[..., i : i + 1]) and np.array_equal(v, m[..., i : i + 1])
    return together


@pytest.mark.parametrize("with_tangents", [False, True], ids=["value", "tangents"])
def test_row_values_do_not_depend_on_block_width(with_tangents):
    rng = np.random.default_rng(7)
    a = np.concatenate([rng.uniform(0.5, 8.0, 28), rng.uniform(20.0, 60.0, 12)])
    b = np.concatenate([rng.uniform(0.5, 8.0, 28), rng.uniform(700.0, 900.0, 12)])
    c = np.concatenate([a[:28] + b[:28] + rng.uniform(0.15, 1.85, 28), a[28:] + 1.0])
    z = np.concatenate([
        rng.uniform(0.0, 0.9, 16),  # the direct series
        rng.uniform(0.9001, 0.999, 12),  # the connection formula
        rng.uniform(0.55, 0.7, 12),  # sums past 2**500, rescaled as they go
    ])
    log_f = _assert_width_independent(a, b, c, z, with_tangents=with_tangents)[1]
    assert log_f[28:].min() > 500 * np.log(2.0)


@pytest.mark.parametrize("with_tangents", [False, True], ids=["value", "tangents"])
def test_row_converging_on_its_last_allowed_term_does_not_depend_on_block_width(with_tangents):
    # 2F1(1.5, 2.5; 4.5; 0.53) converges at term 39: its last allowed term,
    # checked though 39 is not a multiple of 4
    with pytest.raises(NumericalError):
        log_hyp2f1(1.5, 2.5, 4.5, 0.53, max_terms=38)
    rng = np.random.default_rng(8)
    a = np.r_[1.5, rng.uniform(0.5, 3.0, 39)]
    b = np.r_[2.5, rng.uniform(0.5, 3.0, 39)]
    c = np.r_[4.5, rng.uniform(4.0, 6.0, 39)]
    z = np.r_[0.53, rng.uniform(0.0, 0.2, 39)]
    _assert_width_independent(a, b, c, z, max_terms=39, with_tangents=with_tangents)


@pytest.mark.parametrize("n_rows", [40, 20_500])
@pytest.mark.parametrize("with_tangents", [False, True], ids=["value", "tangents"])
@pytest.mark.parametrize("constant", ["a", "c", "ab"])
def test_call_constant_parameter_as_scalar_gives_the_same_bits(constant, with_tangents, n_rows):
    # a parameter holding one value for the whole call is added to n as a
    # float instead of carried as rows; IEEE arithmetic rounds the two alike
    rng = np.random.default_rng(13)
    z = np.concatenate([
        rng.uniform(0.0, 0.9, 16),  # the direct series
        rng.uniform(0.9001, 0.999, 12),  # the connection formula, or the
        rng.uniform(0.55, 0.7, 12),  # direct series past 2**500, rescaled
    ])
    if constant == "a":  # as in every Pareto/NBD call
        a = 1.0
        b = np.concatenate([rng.uniform(0.5, 8.0, 28), rng.uniform(700.0, 900.0, 12)])
        c = np.concatenate([b[:28] + rng.uniform(1.15, 2.85, 28), rng.uniform(2.0, 4.0, 12)])
    elif constant == "c":
        a = np.concatenate([rng.uniform(0.5, 3.0, 28), rng.uniform(20.0, 60.0, 12)])
        b = np.concatenate([rng.uniform(0.5, 3.0, 28), rng.uniform(700.0, 900.0, 12)])
        c = 7.3
    else:  # as in the BG/NBD horizon factor, whose sums stay in range
        a, b = 0.9, -0.2
        # small c, and past z = 0.9 heavy buyers' large c, which keep the
        # direct series
        c = np.concatenate([rng.uniform(0.3, 5.0, 34), rng.uniform(300.0, 3000.0, 6)])
        z = np.where(np.arange(40) >= 34, rng.uniform(0.9001, 0.99, 40), z)
    # filler rows on both sides of the chunk boundary, so that the 40 rows
    # straddle it
    before = _CHUNK_ROWS - 20 if n_rows > 40 else 0
    fill = n_rows - 40

    def rows(v, low, high):
        if np.ndim(v) == 0:
            return v
        filler = rng.uniform(low, high, fill)
        return np.concatenate([filler[:before], v, filler[before:]])

    a, b, c = rows(a, 0.5, 3.0), rows(b, 0.5, 3.0), rows(c, 4.0, 6.0)
    z = rows(z, 0.0, 0.2)
    expanded = [np.full(n_rows, v) if np.ndim(v) == 0 else v for v in (a, b, c)]
    assert sum(np.ndim(v) == 0 for v in (a, b, c)) == len(constant)
    kwargs = {}
    if with_tangents:
        # every input but a has a tangent, as in a Pareto/NBD fit; a
        # constant c or b is carried with its tangent
        kwargs["tangents"] = (None, *rng.normal(size=(3, 2, n_rows)))
    scalar = log_hyp2f1(a, b, c, z, **kwargs)
    full = log_hyp2f1(*expanded, z, **kwargs)
    for s, f in zip(scalar, full):
        assert np.array_equal(s, f)
    if constant != "ab":
        assert full[1].max() > 500 * np.log(2.0)


def test_euler_identity_c_equals_b():
    # 2F1(a, b; b; z) = (1 - z)^(-a)
    rng = np.random.default_rng(3)
    a = rng.uniform(0.2, 8, 50)
    b = rng.uniform(0.2, 8, 50)
    z = rng.uniform(0, 0.85, 50)
    assert np.allclose(hyp2f1(a, b, b, z), (1 - z) ** (-a), rtol=1e-11)


def test_trivial_values():
    assert hyp2f1(1.5, 2.5, 3.5, 0.0) == 1.0
    sign, log_f = log_hyp2f1(1.5, 2.5, 3.5, 0.0)
    assert (sign, log_f) == (1.0, 0.0)


def test_domain_errors():
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 2.0, -0.95)
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 2.0, -0.5)
    with pytest.raises(ValueError):
        log_hyp2f1(1.0, 2.0, 3.0, [0.5, np.nan])


def test_nonconvergence_raises_with_diagnostic():
    with pytest.raises(NumericalError, match="terms"):
        # huge parameters at moderate z cannot converge in so few terms
        log_hyp2f1(800.0, 700.0, 2.0, 0.7, max_terms=5)


def test_scalar_interface_returns_floats():
    out = hyp2f1(1.2, 2.3, 3.1, 0.4)
    assert isinstance(out, float)
    sign, log_f = log_hyp2f1(1.2, 2.3, 3.1, 0.4)
    assert isinstance(sign, float) and isinstance(log_f, float)


def test_one_customer_shapes_equal_their_rows_in_a_chunked_call():
    # the calls of a one-customer BG/NBD request, (a, b) = (a+b-1-r, a-1) at
    # (r, a, b) = (0.4, 0.8, 2.5): c as a (1, 1) array and z of shape (1, 1)
    # or (1, 12), and all inputs scalar; the same rows straddle the chunk
    # boundary of a 20,500-row call, among rows on both sides of z = 0.9
    a, b, c = 1.9, -0.2, 5.3
    horizons = 7.0 * np.arange(1, 13)
    z = horizons / (208.0 + horizons)
    rng = np.random.default_rng(4)
    n, at = 20_500, _CHUNK_ROWS - 6
    c_rows, z_rows = rng.uniform(0.5, 300.0, n), rng.uniform(0.0, 0.99, n)
    c_rows[at : at + 12], z_rows[at : at + 12] = c, z
    sign, log_f = log_hyp2f1(a, b, c_rows, z_rows)
    for width in (1, 12):
        one = log_hyp2f1(a, b, np.array([[c]]), z[None, :width])
        assert one[0].shape == one[1].shape == (1, width)
        assert np.array_equal(one[0][0], sign[at : at + width])
        assert np.array_equal(one[1][0], log_f[at : at + width])
    scalar = log_hyp2f1(a, b, c, float(z[0]))
    assert [type(v) for v in scalar] == [float, float]
    assert scalar == (sign[at], log_f[at])
    # no periods: no rows
    assert [v.shape for v in log_hyp2f1(a, b, np.array([[c]]), np.empty((1, 0)))] == [(1, 0), (1, 0)]


def test_tangents_match_mpmath_directional_derivatives():
    # two random directions through the direct series and, past z = 0.9,
    # the connection formula; b is held fixed, which a None tangent says
    rng = np.random.default_rng(5)
    n = 40
    a = rng.uniform(0.1, 8.0, n)
    b = rng.uniform(0.1, 8.0, n)
    c = a + b + rng.uniform(0.15, 1.85, n)
    z = np.concatenate([rng.uniform(0.0, 0.9, n // 2), rng.uniform(0.9001, 0.999, n // 2)])
    da, dc, dz = rng.normal(size=(3, 2, n))
    sign, log_f, dlog = log_hyp2f1(a, b, c, z, tangents=(da, None, dc, dz))
    assert np.array_equal((sign, log_f), log_hyp2f1(a, b, c, z))
    assert dlog.shape == (2, n)
    with mpmath.workdps(30):
        for i in range(n):
            for j in range(2):
                ref = mpmath.diff(
                    lambda h: mpmath.log(mpmath.hyp2f1(a[i] + h * da[j, i], b[i], c[i] + h * dc[j, i], z[i] + h * dz[j, i])),
                    0,
                )
                assert dlog[j, i] == pytest.approx(float(ref), rel=1e-8, abs=1e-10)


def test_tangents_require_nonnegative_z():
    with pytest.raises(ValueError):
        log_hyp2f1(1.0, 2.0, 3.0, -0.5, tangents=(None, None, None, np.ones(1)))


def _shared_parameter_rows(kind, rows=300, width=12):
    """(a, b, c, z) of a call whose a, b and c are one value per row and
    whose rows hold width arguments each, as the BG/NBD horizon factor makes
    them: a+b-1-r and a-1 for the whole call and a+b+x-1 per customer."""
    rng = np.random.default_rng(17)
    x = rng.poisson(rng.gamma(0.5, 6.0, rows)).astype(float)
    T = rng.uniform(30.0, 365.0, rows)
    horizons = 7.0 * np.arange(1, width + 1)
    r, alpha, a, b = 0.4, 8.0, 0.8, 2.5
    if kind == "sign_changing":  # a+b-1-r < -1: the terms change sign
        r, alpha, a, b = 2.5, 4.0, 0.3, 1.1
    elif kind == "negative_f":  # a+b < 1: zero-repeat customers' 2F1 < 0
        r, alpha, a, b = 0.4, 8.0, 0.3, 0.5
        x[::3] = 0.0
    elif kind == "crossing":  # later periods past z = 0.9, small and large c
        alpha = 2.0
        T[::2] = rng.uniform(1.0, 5.0, T[::2].size)
        x[::4] = 300.0
    z = horizons / (alpha + T[:, None] + horizons)
    # zero horizons: sums of 0, which stay +0 whatever the sign of the terms
    z[::5, 0] = 0.0
    a_row, b_row, c_row = a + b - 1.0 - r, a - 1.0, (a + b + x - 1.0)[:, None]
    if kind == "rescaled":  # sums past 2**500, one b per row
        a_row, b_row = 40.0, rng.uniform(700.0, 900.0, (rows, 1))
        c_row, z = np.full((rows, 1), 41.0), rng.uniform(0.4, 0.7, (rows, width))
    return a_row, b_row, c_row, z


@pytest.mark.parametrize("kind", ["bg", "sign_changing", "negative_f", "crossing", "rescaled"])
def test_rows_sharing_parameters_give_each_cell_its_flat_bits(kind, monkeypatch):
    # summed by row, a cell takes the terms, stop and remainder the flat
    # call gives it, alone or among any rows and in chunks of any size
    a, b, c, z = _shared_parameter_rows(kind)
    per_cell = [np.broadcast_to(v, z.shape).ravel() for v in (a, b, c)]
    flat = log_hyp2f1(*per_cell, z.ravel())
    if kind == "rescaled":
        assert flat[1].max() > 500 * np.log(2.0)
    if kind == "crossing":
        assert (z > 0.9).any()
    summed = []
    monkeypatch.setattr(special, "_row_series", _counting(special._row_series, summed))
    monkeypatch.setattr(special, "_ROW_MIN_ROWS", 2)
    for chunk_cells, ratio_terms in [(2**16, 4), (12, 4), (100, 1), (1000, 7)]:
        monkeypatch.setattr(special, "_ROW_CHUNK_CELLS", chunk_cells)
        monkeypatch.setattr(special, "_RATIO_TERMS", ratio_terms)
        for rows in (slice(None), slice(0, 1), slice(5, 7)):
            values = log_hyp2f1(*(v[rows] if np.ndim(v) else v for v in (a, b, c)), z[rows])
            for got, want in zip(values, flat):
                assert _same_bits(got, want.reshape(z.shape)[rows])
    assert len(summed) > 10


def _same_bits(x, y):
    """Equal float64 arrays, bit for bit: -0.0 differs from 0.0."""
    return x.shape == y.shape and np.array_equal(np.ascontiguousarray(x).view(np.uint64), np.ascontiguousarray(y).view(np.uint64))


def _counting(function, calls):
    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)
    return counted


def test_batch_of_shared_parameter_rows_equals_one_row_calls():
    # more rows than one chunk holds, at the default thresholds; each row
    # alone is below _ROW_MIN_ROWS and takes the flat route
    rows = special._ROW_CHUNK_CELLS // 12 + special._ROW_MIN_ROWS
    a, b, c, z = _shared_parameter_rows("bg", rows=rows)
    batch = log_hyp2f1(a, b, c, z)
    for i in range(0, rows, 97):
        one = log_hyp2f1(a, b, c[i : i + 1], z[i : i + 1])
        assert _same_bits(one[0][0], batch[0][i]) and _same_bits(one[1][0], batch[1][i])


@pytest.mark.parametrize("with_tangents", [False, True], ids=["value", "tangents"])
def test_one_column_call_equals_its_rows_passed_flat(with_tangents):
    # a call with one argument per row takes the flat route, however many
    # rows it has
    n = 2 * special._ROW_MIN_ROWS
    rng = np.random.default_rng(19)
    a, b = 1.9, -0.2
    c, z = rng.uniform(2.3, 300.0, n), rng.uniform(0.0, 0.95, n)
    tangents = (None, None, *rng.normal(size=(2, 3, n))) if with_tangents else None
    column = log_hyp2f1(
        a, b, c[:, None], z[:, None],
        tangents=None if tangents is None else (None, None, *(t[..., None] for t in tangents[2:])),
    )
    flat = log_hyp2f1(a, b, c, z, tangents=tangents)
    assert len(column) == len(flat) == (3 if with_tangents else 2)
    for got, want in zip(column, flat):
        assert _same_bits(got[..., 0], want)
