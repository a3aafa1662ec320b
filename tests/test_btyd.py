"""Buy-till-you-die likelihoods and fits against generative oracles.

The closed forms are validated three independent ways: total probability
mass over a discretized outcome space sums to 1, Monte-Carlo frequencies
from the assumption-level simulator match pointwise, and maximum
likelihood recovers the generating parameters.
"""

import dataclasses
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import digamma, gammaln

from f2pclv import btyd, special
from f2pclv.btyd import (
    BGNBDParams,
    GammaGammaParams,
    ParetoNBDParams,
    bg_nbd_loglik,
    conditional_expected_value,
    discounted_clv,
    expected_lifetime_duration,
    expected_transactions,
    fit_bg_nbd,
    fit_gamma_gamma,
    fit_pareto_nbd,
    gamma_gamma_loglik,
    p_alive,
    pareto_nbd_loglik,
)
from f2pclv.cohort import BasicCLVConfig, basic_clv
from f2pclv.data import rfm_summary, split_calibration_holdout, summaries_from_arrays, summary_arrays
from f2pclv.errors import DataError, NumericalError
from f2pclv.simulate import SimConfig, simulate_bg_nbd_cohort, simulate_pareto_nbd_cohort
from f2pclv.special import log_hyp2f1


def _total_probability(loglik, params, T, x_max=60, grid=1501):
    """Total mass of (x, t_x) outcomes under an ordered-arrival likelihood.

    The closed forms are densities of the ordered purchase-time vector, so
    integrating out the x-1 interior arrival times contributes the simplex
    volume t_x^(x-1) / (x-1)!.
    """
    total = float(np.exp(loglik(params, 0, 0.0, T)))
    t = np.linspace(0.0, T, grid)
    for x in range(1, x_max + 1):
        ll = loglik(params, np.full_like(t, float(x)), t, np.full_like(t, T))
        integrand = np.exp(ll + (x - 1) * np.log(np.where(t > 0, t, 1.0)) - gammaln(x))
        integrand[0] = 0.0 if x > 1 else float(np.exp(ll[0]))
        total += float(simpson(integrand, x=t))
    return total


class TestLikelihoodNormalization:
    def test_pareto_nbd_mass_sums_to_one(self):
        params = ParetoNBDParams(1.2, 2.0, 1.1, 5.0)
        total = _total_probability(pareto_nbd_loglik, params, T=3.0)
        assert total == pytest.approx(1.0, abs=1e-5)

    def test_bg_nbd_mass_sums_to_one(self):
        params = BGNBDParams(1.1, 1.8, 0.9, 2.2)
        total = _total_probability(bg_nbd_loglik, params, T=3.0)
        assert total == pytest.approx(1.0, abs=1e-5)


@pytest.fixture(scope="module")
def pareto_million():
    config = SimConfig(
        n_customers=1_000_000,
        observation_days=30.0,
        purchase_model=ParetoNBDParams(0.8, 6.0, 0.7, 9.0),
        seed=100,
        build_log=False,
    )
    _, truth = simulate_pareto_nbd_cohort(config)
    return config, truth


class TestLikelihoodMonteCarlo:
    def test_zero_repeat_probability(self, pareto_million):
        config, truth = pareto_million
        p0 = float(np.exp(pareto_nbd_loglik(config.purchase_model, 0, 0.0, 30.0)))
        observed = float(np.mean(truth.frequency == 0))
        se = np.sqrt(p0 * (1 - p0) / len(truth.frequency))
        assert abs(observed - p0) < 3 * se

    @pytest.mark.parametrize("x,lo,hi", [(1, 0.0, 10.0), (1, 10.0, 30.0), (2, 5.0, 20.0), (3, 15.0, 30.0)])
    def test_joint_frequency_recency_cells(self, pareto_million, x, lo, hi):
        config, truth = pareto_million
        t = np.linspace(lo, hi, 801)
        ll = pareto_nbd_loglik(config.purchase_model, np.full_like(t, float(x)), t, np.full_like(t, 30.0))
        with np.errstate(divide="ignore"):
            log_simplex = (x - 1) * np.where(t > 0, np.log(np.where(t > 0, t, 1.0)), 0.0)
        prob = float(simpson(np.exp(ll + log_simplex - gammaln(x)), x=t))
        mask = (truth.frequency == x) & (truth.recency > lo) & (truth.recency <= hi)
        observed = float(np.mean(mask))
        se = np.sqrt(prob * (1 - prob) / len(truth.frequency))
        assert abs(observed - prob) < 3 * se, (x, lo, hi, observed, prob)

    def test_p_alive_is_calibrated(self, pareto_million):
        # E[alive | history] equals the model probability, so the mean
        # predicted p_alive over any history cell must match the observed
        # alive fraction.
        config, truth = pareto_million
        for x, lo, hi in [(0, -1.0, 0.0), (1, 0.0, 15.0), (2, 10.0, 25.0), (4, 20.0, 30.0)]:
            mask = (truth.frequency == x) & (truth.recency > lo) & (truth.recency <= hi)
            n = int(mask.sum())
            assert n > 500
            predicted = np.atleast_1d(
                p_alive(config.purchase_model, truth.frequency[mask], truth.recency[mask], truth.age[mask])
            )
            observed = float(np.mean(truth.alive[mask]))
            se = float(np.sqrt(np.sum(predicted * (1 - predicted))) / n)
            assert abs(observed - predicted.mean()) < 3 * se + 1e-4, (x, lo, hi)

    def test_bg_p_alive_is_calibrated(self):
        config = SimConfig(
            n_customers=400_000,
            observation_days=30.0,
            purchase_model=BGNBDParams(0.9, 5.0, 1.1, 2.4),
            seed=101,
            build_log=False,
        )
        _, truth = simulate_bg_nbd_cohort(config)
        for x, lo, hi in [(1, 0.0, 15.0), (2, 10.0, 25.0), (3, 15.0, 30.0)]:
            mask = (truth.frequency == x) & (truth.recency > lo) & (truth.recency <= hi)
            n = int(mask.sum())
            assert n > 500
            predicted = np.atleast_1d(
                p_alive(config.purchase_model, truth.frequency[mask], truth.recency[mask], truth.age[mask])
            )
            observed = float(np.mean(truth.alive[mask]))
            se = float(np.sqrt(np.sum(predicted * (1 - predicted))) / n)
            assert abs(observed - predicted.mean()) < 3 * se + 1e-4, (x, lo, hi)


class TestLikelihoodProperties:
    def test_finite_over_stress_grid(self):
        pareto = ParetoNBDParams(0.5, 10.0, 0.6, 12.0)
        bg = BGNBDParams(0.4, 8.0, 0.8, 2.5)
        for x in (0, 1, 10, 100, 1000):
            for T in (1.0, 30.0, 365.0, 10_000.0):
                for frac in (0.0, 0.5, 1.0):
                    t_x = 0.0 if x == 0 else frac * T
                    for params, ll in ((pareto, pareto_nbd_loglik), (bg, bg_nbd_loglik)):
                        value = ll(params, x, t_x, T)
                        assert np.isfinite(value), (params, x, t_x, T)
                        prob = p_alive(params, x, t_x, T)
                        assert 0.0 <= prob <= 1.0

    def test_outcome_mass_decreasing_in_x_beyond_mode(self):
        # the closed form is the density of the ordered arrival vector; the
        # probability of the outcome adds the simplex volume
        # t_x^(x-1)/(x-1)!, and that mass must die out in x
        params = ParetoNBDParams(0.5, 10.0, 0.6, 12.0)
        xs = np.arange(1, 80)
        ll = pareto_nbd_loglik(params, xs, np.full_like(xs, 10.0, dtype=float), np.full_like(xs, 30.0, dtype=float))
        mass = ll + (xs - 1) * np.log(10.0) - gammaln(xs)
        assert np.all(np.isfinite(mass))
        mode = int(np.argmax(mass))
        assert mode < 20
        assert np.all(np.diff(mass[mode:]) < 0)

    def test_p_alive_decreases_with_age(self):
        for params in (ParetoNBDParams(0.5, 10.0, 0.6, 12.0), BGNBDParams(0.4, 8.0, 0.8, 2.5)):
            ages = np.linspace(20.0, 400.0, 40)
            probs = np.atleast_1d(p_alive(params, np.full_like(ages, 3.0), np.full_like(ages, 18.0), ages))
            assert np.all(np.diff(probs) < 0)

    def test_bg_zero_frequency_alive_probability_is_exactly_one(self):
        params = BGNBDParams(0.4, 8.0, 0.8, 2.5)
        for T in (1.0, 52.0, 365.0):
            assert p_alive(params, 0, 0.0, T) == 1.0

    def test_bg_heavy_buyer_p_alive_matches_mpmath(self):
        # 1 / (1 + odds) with odds = a/(b+x-1) ((alpha+T)/(alpha+t_x))^(r+x):
        # at x in the thousands the exponent multiplies any rounding of the
        # ratio's log, so the ratio must be taken by log1p of its excess
        r, alpha, a, b = 0.4, 8.0, 0.8, 2.5
        rng = np.random.default_rng(0)
        x = rng.integers(1, 5000, 3000).astype(float)
        T = rng.uniform(30.0, 730.0, x.size)
        t_x = np.maximum(T - 10.0 ** rng.uniform(-3, 2, x.size), 0.0)
        got = p_alive(BGNBDParams(r, alpha, a, b), x, t_x, T)
        reference = np.empty(x.size)
        with mpmath.workdps(40):
            for i in range(x.size):
                X = mpmath.mpf(x[i])
                odds = a / (b + X - 1) * ((alpha + mpmath.mpf(T[i])) / (alpha + mpmath.mpf(t_x[i]))) ** (r + X)
                reference[i] = float(1 / (1 + odds))
        kept = reference >= 1e-6
        assert kept.sum() > 2000
        assert np.max(np.abs(got[kept] / reference[kept] - 1.0)) <= 1e-13


def _mp_pareto_terms(r, alpha, s, beta, x, t_x, T):
    """(log-likelihood, p_alive) of one Pareto/NBD row, as mpmath numbers at
    the working precision."""
    base, b = (alpha, s + 1) if alpha >= beta else (beta, r + x)

    def tail(t):
        q = base + t
        return mpmath.hyp2f1(r + s + x, b, r + s + x + 1, abs(alpha - beta) / q) / q ** (r + s + x)

    alive = 1 / ((alpha + T) ** (r + x) * (beta + T) ** s)
    dead = s / (r + s + x) * (tail(t_x) - tail(T))
    log_base = mpmath.loggamma(r + x) - mpmath.loggamma(r) + r * mpmath.log(alpha) + s * mpmath.log(beta)
    return log_base + mpmath.log(alive + dead), alive / (alive + dead)


def _mp_pareto(params, x, t_x, T):
    """(log-likelihood, p_alive) of one Pareto/NBD row in 40-digit mpmath."""
    with mpmath.workdps(40):
        values = (params.r, params.alpha, params.s, params.beta, x, t_x, T)
        ll, alive = _mp_pareto_terms(*(mpmath.mpf(v) for v in values))
        return float(ll), float(alive)


class TestParetoHypergeometric:
    """The Pareto/NBD 2F1(a, b; a+1; z), a = r+s+x, b = s+1 or r+x, is summed
    in Euler's form; heavy buyers make b large."""

    # alpha < beta, so b = r+x; z = 19/21.2 = 0.896 at the recency
    WHALE = ParetoNBDParams(0.5, 1.0, 0.6, 20.0)

    @pytest.mark.parametrize("params", [ParetoNBDParams(0.5, 10.0, 1e15, 1e18), ParetoNBDParams(0.5, 1e18, 1e15, 10.0)])
    def test_argument_rounding_to_one_is_a_numerical_error(self, params):
        # 1 - z = (10 + t) / (1e18 + t) rounds away; a fit's line search can
        # step there along the flat s, beta -> inf ray of a cohort
        with pytest.raises(NumericalError, match="rounds to 1"):
            pareto_nbd_loglik(params, [0, 3], [0.0, 5.0], [20.0, 20.0])

    @pytest.mark.parametrize(
        "x,T", [(900, 400.0), (4000, 400.0), (900, 1.25), (4000, 1.21)]
    )
    def test_whale_rows_match_mpmath(self, x, T):
        ll_ref, alive_ref = _mp_pareto(self.WHALE, x, 1.2, T)
        assert pareto_nbd_loglik(self.WHALE, x, 1.2, T) == pytest.approx(ll_ref, rel=1e-12)
        got = p_alive(self.WHALE, x, 1.2, T)
        assert np.isfinite(got)
        assert got == pytest.approx(alive_ref, rel=1e-10, abs=0.0)

    def test_cohort_with_whales_fits_from_its_first_start(self):
        truth = ParetoNBDParams(0.5, 10.0, 0.6, 12.0)
        _, sim = simulate_pareto_nbd_cohort(SimConfig(2000, 730.0, truth, seed=5, build_log=False))
        x = np.concatenate([sim.frequency, [1500, 2500, 4000]]).astype(float)
        t_x = np.concatenate([sim.recency, [700.0, 720.0, 729.0]])
        T = np.concatenate([sim.age, [730.0] * 3])
        fit = fit_pareto_nbd(summaries_from_arrays(x, t_x, T, np.zeros_like(x)))
        assert fit.converged and fit.n_starts == 1
        assert np.isfinite(fit.nll)
        assert fit.nll == pytest.approx(-float(np.sum(pareto_nbd_loglik(fit.params, x, t_x, T))), rel=1e-9)

    def test_accuracy_contract_against_mpmath(self):
        # the family the library passes: r, s in [0.03, 10], x in [0, 1200],
        # z in [0, 0.9] crowded just below the switch to the connection
        # formula. With base + t = 1 the tail term is log F itself.
        rng = np.random.default_rng(0)
        worst = 0.0
        for i in range(300):
            r, s = np.exp(rng.uniform(np.log(0.03), np.log(10.0), 2))
            x = float(rng.integers(0, 1201) if i % 3 else rng.integers(0, 30))
            z = 0.9 - 10.0 ** rng.uniform(-8, -1) if i % 2 else rng.uniform(0.0, 0.9)
            for alpha, beta in ((1.0, 1.0 - z), (1.0 - z, 1.0)):
                z_row = abs(alpha - beta)
                a = r + s + x
                b = s + 1.0 if alpha >= beta else r + x
                assert b < a + 1.0
                got = btyd._pareto_tail_term(r, alpha, s, beta, np.array([x]), np.array([0.0]))[0]
                with mpmath.workdps(40):
                    ref = float(mpmath.log(mpmath.hyp2f1(a, b, a + 1, mpmath.mpf(z_row))))
                worst = max(worst, abs(got - ref))
        assert worst <= 1e-11


def _mp_log_gradient(loglik, params, row):
    """Gradient of loglik(*params, *row) in the log-parameters, by 30-digit
    mpmath differentiation."""
    with mpmath.workdps(30):
        theta = [mpmath.log(mpmath.mpf(v)) for v in params]
        row = [mpmath.mpf(v) for v in row]

        def along(j):
            return lambda h: loglik(*(mpmath.exp(t + h if i == j else t) for i, t in enumerate(theta)), *row)

        return np.array([float(mpmath.diff(along(j), 0)) for j in range(len(theta))])


def _mp_bg_loglik(r, alpha, a, b, x, t_x, T):
    log_base = (
        mpmath.loggamma(r + x) - mpmath.loggamma(r) + r * mpmath.log(alpha)
        + mpmath.loggamma(a + b) + mpmath.loggamma(b + x) - mpmath.loggamma(b) - mpmath.loggamma(a + b + x)
    )
    dead = a / (b + x - 1) / (alpha + t_x) ** (r + x) if x > 0 else 0
    return log_base + mpmath.log((alpha + T) ** -(r + x) + dead)


def _mp_gamma_gamma_loglik(p, q, g, x, m):
    # density of the mean of x gamma(p, nu) spends, nu ~ gamma(q, g)
    return (
        -mpmath.log(mpmath.beta(p * x, q)) + q * mpmath.log(g) + (p * x - 1) * mpmath.log(m)
        + p * x * mpmath.log(x) - (p * x + q) * mpmath.log(g + m * x)
    )


class TestLogLikelihoodGradients:
    """The fits' exact gradients in the log-parameters, row by row, against
    30-digit mpmath derivatives at random parameters."""

    RTOL = 1e-8

    BETA_OVER_ALPHA = {
        "alpha<beta": 1.0 + 1e-6, "alpha>beta": 1.0 - 1e-6, "alpha=beta": 1.0, "alpha<<beta": 25.0, "alpha>>beta": 0.04,
    }

    def _check(self, got, loglik, params, rows):
        for i, row in enumerate(rows):
            ref = _mp_log_gradient(loglik, params, row)
            np.testing.assert_allclose(got[:, i], ref, rtol=self.RTOL, atol=self.RTOL, err_msg=f"row {row}")

    @pytest.mark.parametrize("side", list(BETA_OVER_ALPHA))
    def test_pareto_nbd(self, side):
        rng = np.random.default_rng(list(self.BETA_OVER_ALPHA).index(side))
        r, s = np.exp(rng.uniform(np.log(0.05), np.log(5.0), 2))
        alpha = float(np.exp(rng.uniform(np.log(2.0), np.log(20.0))))
        beta = alpha * self.BETA_OVER_ALPHA[side]
        # zero-repeat, repeat, a row of the last purchase right after the
        # first, and a whale
        rows = [(0.0, 0.0, 300.0), (3.0, 40.0, 200.0), (2.0, 0.01, 30.0), (float(rng.integers(1000, 4001)), 650.0, 730.0)]
        x, t_x, T = (np.array(v) for v in zip(*rows))
        if side in ("alpha<<beta", "alpha>>beta"):
            # the rows at t_x = 0 and 0.01 go through the connection formula
            assert np.all(abs(alpha - beta) / (max(alpha, beta) + t_x[[0, 2]]) > 0.9)
        term1, d_term1 = btyd._pareto_tail_term(r, alpha, s, beta, x, t_x, grad=True)
        term2, d_term2 = btyd._pareto_tail_term(r, alpha, s, beta, x, T, grad=True)
        _, log_alive, log_dead = btyd._pareto_loglik_terms(r, alpha, s, beta, x, T, term1, term2, gammaln(r + x))
        got = btyd._pareto_loglik_gradient(
            r, alpha, s, beta, x, T, term1, term2, d_term1, d_term2, digamma(r + x), log_alive, log_dead
        )
        self._check(got, lambda *v: _mp_pareto_terms(*v)[0], (r, alpha, s, beta), rows)

    def test_bg_nbd(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            r, alpha, a, b = np.exp(rng.uniform(np.log([0.1, 1.0, 0.2, 0.5]), np.log([3.0, 30.0, 3.0, 5.0])))
            rows = [(0.0, 0.0, 200.0), (1.0, 5.0, 100.0), (6.0, 150.0, 365.0), (float(rng.integers(1000, 4001)), 360.0, 365.0)]
            x, t_x, T = (np.array(v) for v in zip(*rows))
            _, d_rest = btyd._bg_log_alive_or_dead(r, alpha, a, b, x, t_x, T, grad=True)
            got = btyd._bg_log_base_gradient(r, alpha, a, b, x) + d_rest
            self._check(got, _mp_bg_loglik, (r, alpha, a, b), rows)

    def test_gamma_gamma(self):
        rng = np.random.default_rng(6)
        for _ in range(3):
            p, q, g = np.exp(rng.uniform(np.log([0.5, 1.5, 1.0]), np.log([20.0, 10.0, 50.0])))
            rows = [(1.0, 3.5), (4.0, 20.0), (37.0, 0.8), (float(rng.integers(1000, 4001)), 12.0)]
            x, m = (np.array(v) for v in zip(*rows))
            got = btyd._gamma_gamma_loglik_gradient(p, q, g, x, m, digamma(p * x), digamma(p * x + q))
            self._check(got, _mp_gamma_gamma_loglik, (p, q, g), rows)

    @pytest.mark.parametrize(
        "fit, simulate, truth",
        [
            (fit_pareto_nbd, simulate_pareto_nbd_cohort, ParetoNBDParams(0.5, 10.0, 0.6, 12.0)),
            (fit_bg_nbd, simulate_bg_nbd_cohort, BGNBDParams(0.4, 8.0, 0.8, 2.5)),
            (fit_gamma_gamma, simulate_pareto_nbd_cohort, ParetoNBDParams(0.5, 10.0, 0.6, 12.0)),
        ],
        ids=["pareto_nbd", "bg_nbd", "gamma_gamma"],
    )
    def test_penalized_objective_gradient(self, monkeypatch, fit, simulate, truth):
        # the objective the optimizer sees: distinct rows weighted by their
        # counts, per customer, with the penalizer
        summaries = simulate(SimConfig(500, 365.0, truth, seed=3, build_log=False))[1].summaries()
        if fit is fit_gamma_gamma:
            summaries = [s for s in summaries if s.frequency > 0]

        class Captured(Exception):
            pass

        def capture(objective, x0_log, **kwargs):
            raise Captured(objective, x0_log)

        monkeypatch.setattr(btyd, "minimize_multistart", capture)
        with pytest.raises(Captured) as captured:
            fit(summaries, penalizer=0.3)
        objective, theta = captured.value.args
        rng = np.random.default_rng(7)
        for _ in range(3):
            point = theta + rng.normal(0.0, 0.3, theta.size)
            _, grad = objective(point)
            h = 1e-6
            central = [(objective(point + h * e)[0] - objective(point - h * e)[0]) / (2 * h) for e in np.eye(theta.size)]
            np.testing.assert_allclose(grad, central, rtol=1e-6, atol=1e-7)


class TestExpectedTransactions:
    @pytest.mark.parametrize(
        "params", [ParetoNBDParams(0.5, 10.0, 0.6, 12.0), BGNBDParams(0.4, 8.0, 0.8, 2.5)]
    )
    def test_zero_horizon(self, params):
        assert expected_transactions(params, 3, 20.0, 30.0, 0.0) == 0.0

    @pytest.mark.parametrize(
        "params", [ParetoNBDParams(0.5, 10.0, 0.6, 12.0), BGNBDParams(0.4, 8.0, 0.8, 2.5)]
    )
    def test_monotone_and_concave_in_horizon(self, params):
        taus = np.linspace(0.0, 400.0, 60)
        values = np.array([expected_transactions(params, 3, 20.0, 30.0, float(t)) for t in taus])
        assert np.all(np.diff(values) >= -1e-12)
        assert np.all(np.diff(values, 2) <= 1e-9)

    @pytest.mark.parametrize(
        "params", [ParetoNBDParams(0.5, 10.0, 0.6, 12.0), BGNBDParams(0.4, 8.0, 0.8, 2.5)]
    )
    def test_incremental_additivity(self, params):
        total = expected_transactions(params, 2, 15.0, 40.0, 90.0)
        partial = sum(
            expected_transactions(params, 2, 15.0, 40.0, float(k + 1) * 30.0)
            - expected_transactions(params, 2, 15.0, 40.0, float(k) * 30.0)
            for k in range(3)
        )
        assert partial == pytest.approx(total, abs=1e-6)

    @pytest.mark.parametrize("x,horizon", [(300, 3650.0), (3000, 36500.0), (3, 90.0)])
    def test_bg_heavy_buyer_long_horizon_matches_mpmath(self, x, horizon):
        # at the first two the 2F1 passes double range while the power term
        # that multiplies it underflows
        r, alpha, a, b = 0.4, 8.0, 0.8, 2.5
        t_x, T = 364.0, 365.0
        with mpmath.workdps(40):
            X = mpmath.mpf(x)
            odds = a / (b + X - 1) * (mpmath.mpf(alpha + T) / (alpha + t_x)) ** (r + X)
            growth = 1 - (mpmath.mpf(alpha + T) / (alpha + T + horizon)) ** (r + X) * mpmath.hyp2f1(
                r + X, b + X, a + b + X - 1, mpmath.mpf(horizon) / (alpha + T + horizon)
            )
            reference = float((a + b + X - 1) / (a - 1) * growth / (1 + odds))
        got = expected_transactions(BGNBDParams(r, alpha, a, b), x, t_x, T, horizon)
        assert got == pytest.approx(reference, rel=1e-9)

    # a < 1 and a > 1, with a + b - 1 - r of either sign; at a + b < 1 a
    # zero-repeat customer's 2F1 turns negative as z grows
    BG_FAR = [(0.4, 8.0, 0.8, 2.5), (0.25, 4.0, 0.3, 1.2), (1.3, 20.0, 1.6, 3.0), (0.9, 6.0, 3.5, 9.0), (0.4, 8.0, 0.3, 0.5)]
    BG_NEAR_ONE = [(0.4, 8.0, 1.0 + d, 2.5) for d in (1e-7, -1e-7, 1e-6, -1e-6, 1e-5, 1e-3, -1e-3)]
    # (x, t_x, T): zero-repeat customers, light and heavy buyers
    BG_ROWS = [(0, 0.0, 30.0), (0, 0.0, 365.0), (1, 10.0, 30.0), (4, 200.0, 365.0), (30, 300.0, 365.0),
               (300, 364.0, 365.0), (3000, 364.0, 365.0)]
    # from 1 day to 100 years, so z runs from 0.0025 to 0.99
    BG_HORIZONS = [1.0, 7.0, 90.0, 365.0, 3650.0, 36500.0]

    @staticmethod
    def _mp_bg_expected(r, alpha, a, b, x, t_x, T, h):
        """BG/NBD conditional expected purchases in (T, T + h] in the direct
        form of the closed form, in 40-digit mpmath."""
        with mpmath.workdps(40):
            r, alpha, a, b, x, t_x, T, h = (mpmath.mpf(v) for v in (r, alpha, a, b, x, t_x, T, h))
            growth = 1 - ((alpha + T) / (alpha + T + h)) ** (r + x) * mpmath.hyp2f1(
                r + x, b + x, a + b + x - 1, h / (alpha + T + h)
            )
            odds = a / (b + x - 1) * ((alpha + T) / (alpha + t_x)) ** (r + x) if x > 0 else 0
            return (a + b + x - 1) / (a - 1) * growth / (1 + odds)

    def _bg_errors(self, params_list):
        """Relative errors of expected_transactions against mpmath over the
        cases, with whether each cell's 2F1 is summed by the direct series."""
        errors, direct = [], []
        for params in params_list:
            r, alpha, a, b = params
            for x, t_x, T in self.BG_ROWS:
                for h in self.BG_HORIZONS:
                    value = expected_transactions(BGNBDParams(*params), x, t_x, T, h)
                    reference = self._mp_bg_expected(r, alpha, a, b, x, t_x, T, h)
                    errors.append(float(abs((value - reference) / reference)))
                    z = h / (alpha + T + h)
                    direct.append(z <= special._Z_SWITCH or bool(special._direct_is_short(a + b - 1 - r, a - 1, a + b + x - 1, z)))
        return np.array(errors), np.array(direct)

    def test_bg_horizon_family_matches_mpmath(self):
        # 210 cases: 1-day horizons, zero-repeat customers, heavy buyers up
        # to x = 3000 at z up to 0.99
        errors, _ = self._bg_errors(self.BG_FAR)
        assert errors.size == 210
        assert errors.max() <= 1e-13

    def test_bg_horizon_family_near_a_equal_one_matches_mpmath(self):
        # 294 cases with 1e-7 <= |a - 1| <= 1e-3, where the closed form's
        # factors (a+b+x-1)/(a-1) and 1 - P are both near their a = 1 limits
        errors, direct = self._bg_errors(self.BG_NEAR_ONE)
        assert errors.size == 294
        assert errors[direct].max() <= 1e-12
        # past z = 0.9 at small x the connection formula gives 2F1 - 1 only
        # to about 1e-16 absolute, so 1 - P ~ 1e-7 keeps fewer digits
        assert (~direct).any()
        assert errors[~direct].max() <= 1e-8

    def test_bg_discounted_clv_matches_mpmath(self):
        _, spend = TestCLVComposition()._models()
        n_periods, period = 12, 7.0
        worst = 0.0
        for params in self.BG_FAR + self.BG_NEAR_ONE[::3]:
            x, t_x, T = (np.array(v, dtype=float) for v in zip(*self.BG_ROWS))
            m = np.where(x > 0, 20.0, 0.0)
            got = discounted_clv(BGNBDParams(*params), spend, summaries_from_arrays(x, t_x, T, m), n_periods * period, 0.01, period)
            value = np.atleast_1d(conditional_expected_value(spend, x, m))
            for i in range(x.size):
                cumulative = [self._mp_bg_expected(*params, x[i], t_x[i], T[i], k * period) for k in range(n_periods + 1)]
                reference = sum((cumulative[k] - cumulative[k - 1]) / mpmath.mpf(1.01) ** k for k in range(1, n_periods + 1))
                reference *= value[i]
                worst = max(worst, float(abs((got[i] - reference) / reference)))
        assert worst <= 1e-13

    # rows of a (customer x period) grid, whose periods share a, b and c:
    # a > 1 and a < 1, a + b < 1, a + b - 1 - r < -1 (terms that change
    # sign) and a within 1e-3 and 1e-7 of 1; (x, t_x, T) zero-repeat
    # customers, light and heavy buyers, and at T = 5 rows whose later
    # periods pass z = 0.9
    BG_ROW_FAMILIES = [(0.4, 8.0, 0.8, 2.5), (0.25, 2.0, 0.3, 1.2), (0.4, 8.0, 0.3, 0.5), (2.5, 2.0, 0.3, 1.1)]
    BG_ROW_NEAR_ONE = [(0.4, 8.0, 1.0 + d, 2.5) for d in (1e-3, -1e-3, 1e-7, -1e-7)]
    BG_GRID_ROWS = [(0, 0.0, 30.0), (0, 0.0, 365.0), (1, 10.0, 30.0), (4, 200.0, 365.0), (30, 300.0, 365.0),
                    (3000, 364.0, 365.0)]
    BG_CROSSING_ROWS = [(0, 0.0, 5.0), (300, 4.5, 5.0)]

    @pytest.mark.parametrize("periods,period", [(12, 7.0), (180, 1.0)])
    def test_bg_horizon_rows_match_mpmath(self, monkeypatch, periods, period):
        # the horizon factor 1 - P of calls summed by row (see
        # special._row_series). The reference is 1 - (1 + h/(alpha+T))^-B
        # 2F1(A, B; C; z) at the floats A = a+b-1-r, B = a-1, C = a+b+x-1 and
        # z the factor passes: near a = 1, 1 - P is of order B, so the
        # rounding of those floats alone moves it by eps / |a - 1| relative.
        # Near a = 1 only rows below the switch, where the connection
        # formula would keep fewer digits (ROADMAP item 8)
        summed = []
        row_series = special._row_series

        def counted(*args):
            summed.append(args[3].size)
            return row_series(*args)

        monkeypatch.setattr(special, "_row_series", counted)
        monkeypatch.setattr(special, "_ROW_MIN_ROWS", 2)
        horizons = period * np.arange(1, periods + 1)
        # every 5th daily period against mpmath, all of them in the call
        checked = range(0, periods, 1 if periods < 20 else 5)
        worst, crossed = 0.0, False
        for params in self.BG_ROW_FAMILIES + self.BG_ROW_NEAR_ONE:
            rows = self.BG_GRID_ROWS + ([] if params in self.BG_ROW_NEAR_ONE else self.BG_CROSSING_ROWS)
            x, t_x, T = (np.array(v, dtype=float) for v in zip(*rows))
            _, horizon_factor = btyd._bg_expected_arrays(BGNBDParams(*params), x, t_x, T)
            got = horizon_factor(x[:, None], T[:, None], horizons)
            r, alpha, a, b = params
            A, B = a + b - 1.0 - r, a - 1.0
            with mpmath.workdps(40):
                for i in range(x.size):
                    base = alpha + T[i]
                    for k in checked:
                        z = horizons[k] / (base + horizons[k])
                        crossed |= bool(z > special._Z_SWITCH)
                        log_p = mpmath.log(mpmath.hyp2f1(A, B, a + b + x[i] - 1.0, z)) - B * mpmath.log1p(
                            mpmath.mpf(horizons[k]) / base
                        )
                        reference = -mpmath.expm1(log_p)
                        worst = max(worst, float(abs((got[i, k] - reference) / reference)))
        assert summed and crossed
        assert worst <= 1e-13

    @pytest.mark.parametrize("s", [0.6, 1.0, 2.5])
    @pytest.mark.parametrize("horizon", [1e-4, 0.01, 1.0, 365.0])
    def test_pareto_horizon_factor_matches_mpmath(self, s, horizon):
        # (1 - rho^(s-1)) / (s-1), rho = (beta+T)/(beta+T+h); at short
        # horizons 1 - rho^(s-1) cancels unless written with expm1/log1p
        beta, T = 12.0, 700.0
        params = ParetoNBDParams(0.5, 10.0, s, beta)
        _, horizon_factor = btyd._pareto_expected_arrays(params, np.array([2.0]), np.array([300.0]), np.array([T]))
        got = float(horizon_factor(2.0, T, horizon))
        with mpmath.workdps(40):
            log_growth = mpmath.log1p(mpmath.mpf(horizon) / (beta + T))
            if s == 1.0:
                reference = float(log_growth)
            else:
                reference = float(-mpmath.expm1(-(mpmath.mpf(s) - 1) * log_growth) / (mpmath.mpf(s) - 1))
        assert got == pytest.approx(reference, rel=1e-14, abs=0.0)

    def test_pareto_s_near_one_limit(self):
        near = ParetoNBDParams(0.5, 10.0, 1.0 + 1e-12, 12.0)
        off = ParetoNBDParams(0.5, 10.0, 1.001, 12.0)
        v_near = expected_transactions(near, 2, 10.0, 30.0, 60.0)
        v_off = expected_transactions(off, 2, 10.0, 30.0, 60.0)
        assert np.isfinite(v_near)
        assert v_near == pytest.approx(v_off, rel=0.01)

    def test_cohort_holdout_calibration_pareto(self):
        calibration_days, holdout_days = 26 * 7.0, 39 * 7.0
        config = SimConfig(
            n_customers=10_000,
            observation_days=calibration_days + holdout_days,
            purchase_model=ParetoNBDParams(0.5, 10.0, 0.6, 12.0),
            seed=77,
        )
        log, _ = simulate_pareto_nbd_cohort(config)
        calibration, holdout = split_calibration_holdout(log, calibration_days)
        summaries = rfm_summary(calibration, calibration_days)
        fit = fit_pareto_nbd(summaries, seed=1)
        x, t_x, T, _ = (np.array(v) for v in zip(*[(s.frequency, s.recency, s.age, s.monetary_value) for s in summaries]))
        predicted = float(np.sum(expected_transactions(fit.params, x, t_x, T, holdout_days)))
        actual = len(holdout.records)
        assert predicted == pytest.approx(actual, rel=0.05)


class TestGammaGamma:
    def _simulate_paying(self, n=10_000, p=6.0, q=4.0, g=15.0, seed=0):
        rng = np.random.default_rng(seed)
        x = 1 + rng.poisson(2.0, n)
        nu = rng.gamma(shape=q, scale=1.0 / g, size=n)
        m = np.array([rng.gamma(shape=p, scale=1.0 / nu[i], size=x[i]).mean() for i in range(n)])
        return x, m

    def test_parameter_recovery(self):
        x, m = self._simulate_paying()
        summaries = summaries_from_arrays(x, np.ones_like(m), np.ones_like(m), m)
        fit = fit_gamma_gamma(summaries, seed=2)
        for got, want in ((fit.params.p, 6.0), (fit.params.q, 4.0), (fit.params.gamma, 15.0)):
            assert abs(got - want) / want < 0.15, fit.params

    def test_loglik_matches_direct_formula(self):
        params = GammaGammaParams(6.0, 4.0, 15.0)
        ll = gamma_gamma_loglik(params, 4, 22.0)
        direct = (
            gammaln(6.0 * 4 + 4.0) - gammaln(6.0 * 4) - gammaln(4.0)
            + 4.0 * np.log(15.0) + (6.0 * 4 - 1) * np.log(22.0)
            + 6.0 * 4 * np.log(4.0) - (6.0 * 4 + 4.0) * np.log(15.0 + 4 * 22.0)
        )
        assert ll == pytest.approx(direct, abs=1e-12)

    def test_restart_seed_does_not_run_away(self):
        # at large p, differences of gammaln and of logs cancel to spurious
        # log-likelihoods far above the truth's; seed 8's restarts reach there
        _, truth = simulate_pareto_nbd_cohort(SimConfig(
            20_000, 730.0, ParetoNBDParams(0.5, 10, 0.6, 12), GammaGammaParams(6, 4, 15),
            seed=102, build_log=False,
        ))
        repeaters = [s for s in truth.summaries() if s.frequency > 0][:5000]
        fit = fit_gamma_gamma(repeaters, seed=8)
        assert fit.params.p < 100, fit.params
        assert fit.nll == pytest.approx(fit_gamma_gamma(repeaters, seed=0).nll, rel=1e-6)

    def test_conditional_value_shrinks_between_bounds(self):
        params = GammaGammaParams(6.0, 4.0, 15.0)
        population = 6.0 * 15.0 / 3.0
        for x, m in [(1, 10.0), (3, 50.0), (8, 18.0)]:
            value = conditional_expected_value(params, x, m)
            lo, hi = sorted((population, m))
            assert lo < value < hi

    def test_conditional_value_approaches_observation(self):
        params = GammaGammaParams(6.0, 4.0, 15.0)
        value = conditional_expected_value(params, 10_000, 42.0)
        assert value == pytest.approx(42.0, rel=0.01)

    def test_zero_frequency_rows_rejected(self):
        summaries = summaries_from_arrays([0, 2], [0.0, 3.0], [10.0, 10.0], [0.0, 5.0])
        with pytest.raises(DataError):
            fit_gamma_gamma(summaries)


class TestNonFiniteSummaries:
    """NaN and infinite summaries are data errors at every entry point."""

    PURCHASE = [ParetoNBDParams(0.5, 10.0, 0.6, 12.0), BGNBDParams(0.4, 8.0, 0.8, 2.5)]
    SPEND = GammaGammaParams(6.0, 4.0, 15.0)
    NAN, INF = float("nan"), float("inf")
    BAD_ROWS = [
        (NAN, 1.0, 10.0), (2.0, NAN, 10.0), (2.0, 1.0, NAN),
        (INF, 1.0, 10.0), (2.0, 1.0, INF), (2.0, INF, INF), (2.0, 1.0, -INF),
    ]

    @pytest.mark.parametrize("params", PURCHASE, ids=["pareto_nbd", "bg_nbd"])
    @pytest.mark.parametrize("row", BAD_ROWS)
    def test_purchase_entry_points(self, params, row):
        x, t_x, T = row
        loglik = pareto_nbd_loglik if isinstance(params, ParetoNBDParams) else bg_nbd_loglik
        fit = fit_pareto_nbd if isinstance(params, ParetoNBDParams) else fit_bg_nbd
        cohort = summaries_from_arrays([x, 3, 0], [t_x, 5.0, 0.0], [T, 20.0, 20.0], [4.0, 6.0, 0.0])
        calls = [
            lambda: loglik(params, x, t_x, T),
            lambda: p_alive(params, x, t_x, T),
            lambda: expected_transactions(params, x, t_x, T, 30.0),
            lambda: expected_transactions(params, [1.0, x], [1.0, t_x], [5.0, T], 30.0),
            lambda: discounted_clv(params, self.SPEND, cohort, 84.0, 0.01, period=7.0),
            lambda: fit(cohort),
        ]
        for call in calls:
            with pytest.raises(DataError, match="finite"):
                call()

    @pytest.mark.parametrize("x, m", [(NAN, 5.0), (INF, 5.0), (3.0, NAN), (3.0, INF)])
    def test_spend_entry_points(self, x, m):
        cohort = summaries_from_arrays([x, 3], [1.0, 1.0], [2.0, 2.0], [m, 6.0])
        for call in (
            lambda: gamma_gamma_loglik(self.SPEND, x, m),
            lambda: conditional_expected_value(self.SPEND, x, m),
            lambda: conditional_expected_value(self.SPEND, [0.0, x], [0.0, m]),
            lambda: fit_gamma_gamma(cohort),
        ):
            with pytest.raises(DataError, match="finite"):
                call()


class TestNonFiniteArguments:
    """NaN and infinite scoring arguments are data errors naming the argument."""

    SPEND = GammaGammaParams(6.0, 4.0, 15.0)

    @pytest.mark.parametrize("params", TestNonFiniteSummaries.PURCHASE, ids=["pareto_nbd", "bg_nbd"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
    def test_scoring_entry_points(self, params, value):
        summaries = summaries_from_arrays([3], [5.0], [20.0], [6.0])
        calls = {
            "horizon": [
                lambda: expected_transactions(params, 3, 5.0, 20.0, value),
                lambda: expected_transactions(params, [3.0, 0.0], [5.0, 0.0], [20.0, 20.0], value),
                lambda: discounted_clv(params, self.SPEND, summaries, value, 0.01, period=7.0),
            ],
            "discount_rate": [lambda: discounted_clv(params, self.SPEND, summaries, 84.0, value, period=7.0)],
            "period": [
                lambda: discounted_clv(params, self.SPEND, summaries, 84.0, 0.01, period=value),
                lambda: expected_lifetime_duration(params, summaries[0], threshold=0.5, period=value),
            ],
        }
        for name, entry_points in calls.items():
            for call in entry_points:
                with pytest.raises(DataError, match=f"{name} must be .* and finite"):
                    call()

    @pytest.mark.parametrize("fit", [fit_pareto_nbd, fit_bg_nbd, fit_gamma_gamma], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1.0], ids=["nan", "inf", "-inf", "-1"])
    def test_fit_penalizer(self, fit, value):
        cohort = summaries_from_arrays([3, 1, 2], [5.0, 2.0, 9.0], [20.0] * 3, [6.0, 4.0, 5.0])
        with pytest.raises(DataError, match=f"penalizer must be >= 0 and finite, got {value}"):
            fit(cohort, penalizer=value)

    @pytest.mark.parametrize(
        "params",
        [ParetoNBDParams(0.5, 10.0, 0.6, 12.0), BGNBDParams(0.4, 8.0, 0.8, 2.5), GammaGammaParams(6.0, 4.0, 15.0)],
        ids=lambda p: type(p).__name__,
    )
    @pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")], ids=["inf", "-inf", "nan"])
    def test_every_model_parameter(self, params, value):
        for field in dataclasses.fields(params):
            with pytest.raises(DataError, match=f"{type(params).__name__}.{field.name} must be > 0 and finite, got {value}"):
                dataclasses.replace(params, **{field.name: value})


class TestFitting:
    def test_pareto_recovery_single_seed(self):
        config = SimConfig(
            n_customers=10_000,
            observation_days=365.0,
            purchase_model=ParetoNBDParams(0.5, 10.0, 0.6, 12.0),
            seed=42,
            build_log=False,
        )
        _, truth = simulate_pareto_nbd_cohort(config)
        fit = fit_pareto_nbd(truth.summaries(), seed=1)
        got = (fit.params.r, fit.params.alpha, fit.params.s, fit.params.beta)
        for g, w in zip(got, (0.5, 10.0, 0.6, 12.0)):
            assert abs(g - w) / w < 0.15, got

    def test_default_start_reaches_the_optimum(self):
        # unscaled, a cohort-sized NLL sends the first projected step to a
        # corner of the box and the fit "converges" where it started
        truth = ParetoNBDParams(0.5, 10.0, 0.6, 12.0)
        _, sim = simulate_pareto_nbd_cohort(SimConfig(5000, 730.0, truth, seed=48, build_log=False))
        summaries = sim.summaries()
        fit = fit_pareto_nbd(summaries)
        x, t_x, T, _ = summary_arrays(summaries)
        truth_nll = -float(np.sum(pareto_nbd_loglik(truth, x, t_x, T)))
        assert fit.converged
        assert fit.nll <= truth_nll
        for got, want in ((fit.params.r, 0.5), (fit.params.alpha, 10.0), (fit.params.s, 0.6), (fit.params.beta, 12.0)):
            assert abs(got - want) / want < 0.5, fit.params

    def test_start_ending_at_the_optimum_is_not_restarted(self):
        # a line search that stalls at the optimum ends its start in
        # ABNORMAL_TERMINATION_IN_LNSRCH, which counts as a failed start; on
        # this cohort a noisy gradient did that and a jittered restart ran
        truth = ParetoNBDParams(0.5, 10.0, 0.6, 12.0)
        seed = int(np.random.SeedSequence([11, 1, 1]).generate_state(1)[0])
        config = SimConfig(5000, 730.0, truth, GammaGammaParams(6.0, 4.0, 15.0), seed=seed, build_log=False)
        fit = fit_pareto_nbd(simulate_pareto_nbd_cohort(config)[1].summaries())
        assert fit.converged and fit.n_starts == 1

    def test_bg_recovery_single_seed_and_runtime_ordering(self):
        config = SimConfig(
            n_customers=10_000,
            observation_days=365.0,
            purchase_model=BGNBDParams(0.4, 8.0, 0.8, 2.5),
            seed=43,
            build_log=False,
        )
        _, truth = simulate_bg_nbd_cohort(config)
        summaries = truth.summaries()
        t0 = time.perf_counter()
        fit = fit_bg_nbd(summaries, seed=1)
        bg_seconds = time.perf_counter() - t0
        got = (fit.params.r, fit.params.alpha, fit.params.a, fit.params.b)
        for g, w in zip(got, (0.4, 8.0, 0.8, 2.5)):
            assert abs(g - w) / w < 0.15, got
        t0 = time.perf_counter()
        fit_pareto_nbd(summaries, seed=1)
        pareto_seconds = time.perf_counter() - t0
        # the hypergeometric term makes the Pareto/NBD fit the slower one
        assert bg_seconds < pareto_seconds

    def test_fitted_nll_not_worse_than_initialization(self):
        config = SimConfig(
            n_customers=2000,
            observation_days=180.0,
            purchase_model=BGNBDParams(0.4, 8.0, 0.8, 2.5),
            seed=44,
            build_log=False,
        )
        _, truth = simulate_bg_nbd_cohort(config)
        summaries = truth.summaries()
        fit = fit_bg_nbd(summaries, seed=1)
        x, t_x, T, _ = (np.array(v) for v in zip(*[(s.frequency, s.recency, s.age, s.monetary_value) for s in summaries]))
        init = BGNBDParams(1.0, (T.mean() + 1.0) / (x.mean() + 0.5), 1.0, 2.0)
        init_nll = -float(np.sum(bg_nbd_loglik(init, x, t_x, T)))
        assert fit.nll <= init_nll + 1e-9

    @pytest.mark.parametrize(
        "fit, loglik, simulate, truth",
        [
            (fit_pareto_nbd, pareto_nbd_loglik, simulate_pareto_nbd_cohort, ParetoNBDParams(0.5, 10.0, 0.6, 12.0)),
            (fit_bg_nbd, bg_nbd_loglik, simulate_bg_nbd_cohort, BGNBDParams(0.4, 8.0, 0.8, 2.5)),
        ],
        ids=["pareto_nbd", "bg_nbd"],
    )
    def test_nll_counts_every_customer_when_rows_repeat(self, fit, loglik, simulate, truth):
        # fits evaluate each distinct (x, t_x, T) row once, weighted by its
        # count; the reported nll must still be the whole cohort's
        parts = [
            simulate(SimConfig(n_customers=1000, observation_days=days, purchase_model=truth, seed=47, build_log=False))[1]
            for days in (120.0, 180.0)
        ]
        x = np.concatenate([p.frequency for p in parts]).astype(float)
        # whole-day recencies, as a day-granular log gives
        t_x = np.floor(np.concatenate([p.recency for p in parts]))
        T = np.concatenate([p.age for p in parts])
        assert len(np.unique(np.column_stack([x, t_x, T]), axis=0)) < x.size / 2
        result = fit(summaries_from_arrays(x, t_x, T, np.zeros_like(x)), seed=1)
        nll = -float(np.sum(loglik(result.params, x, t_x, T)))
        assert result.nll == pytest.approx(nll, rel=1e-9)

    def test_stronger_penalizer_shrinks_parameter_norm(self):
        # by the standard exchange argument, increasing the penalty weight
        # cannot increase the parameter norm at the optimum
        config = SimConfig(
            n_customers=2000,
            observation_days=180.0,
            purchase_model=BGNBDParams(0.4, 8.0, 0.8, 2.5),
            seed=45,
            build_log=False,
        )
        _, truth = simulate_bg_nbd_cohort(config)
        summaries = truth.summaries()
        norms = []
        for pen in (0.05, 0.1):
            fit = fit_bg_nbd(summaries, penalizer=pen, seed=1)
            p = fit.params
            norms.append(p.r**2 + p.alpha**2 + p.a**2 + p.b**2)
        assert norms[1] <= norms[0] + 1e-6

    def test_non_identifiable_cohorts_rejected(self):
        flat = summaries_from_arrays([0, 0, 0], [0.0] * 3, [30.0] * 3, [0.0] * 3)
        with pytest.raises(DataError):
            fit_pareto_nbd(flat)
        with pytest.raises(DataError):
            fit_bg_nbd(flat)
        with pytest.raises(DataError):
            fit_bg_nbd([])

    def test_warm_start_keeps_nll(self):
        config = SimConfig(
            n_customers=2000,
            observation_days=180.0,
            purchase_model=BGNBDParams(0.4, 8.0, 0.8, 2.5),
            seed=46,
            build_log=False,
        )
        _, truth = simulate_bg_nbd_cohort(config)
        summaries = truth.summaries()
        first = fit_bg_nbd(summaries, seed=1)
        again = fit_bg_nbd(summaries, seed=1, restarts=1, initial=first.params)
        assert again.nll == pytest.approx(first.nll, abs=1e-6)

    @pytest.mark.parametrize("shape", ["cohort", "tail_pairs", "all_distinct"])
    def test_distinct_rows_equal_an_axis_0_unique(self, shape):
        rng = np.random.default_rng(7)
        x = rng.poisson(0.4, 3000).astype(float)
        T = np.full(x.size, 730.0)
        # zero-repeat rows share (0, 0, T); the rest have whole-day recencies
        t_x = np.where(x > 0, np.floor(rng.uniform(0.0, 730.0, x.size)), 0.0)
        columns = {
            "cohort": (x, t_x, T),
            "tail_pairs": (np.concatenate([x, x]), np.concatenate([t_x, T])),
            "all_distinct": (rng.random(3000), rng.random(3000), rng.random(3000)),
        }[shape]
        rows, inverse, counts = np.unique(
            np.column_stack(columns), axis=0, return_inverse=True, return_counts=True
        )
        got_columns, got_counts, got_inverse = btyd._distinct_rows(*columns)
        got = (*got_columns, got_counts, got_inverse)
        want = (*rows.T, counts.astype(float), inverse.ravel())
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize(
        "truth",
        [ParetoNBDParams(0.6, 8.0, 1.0, 80.0), ParetoNBDParams(1.5, 20.0, 0.4, 20.0), ParetoNBDParams(0.8, 50.0, 0.5, 5.0)],
        ids=["alpha<<beta", "alpha=beta", "alpha>>beta"],
    )
    @pytest.mark.parametrize("days, spread", [(365.0, 0.0), (200.0, 150.0)], ids=["no_spread", "spread"])
    def test_default_start_reaches_the_optimum_of_the_mean_age_start(self, truth, days, spread):
        # the default start has alpha = beta; a start at beta = mean age,
        # far from alpha, takes a costlier path and must reach one optimum
        config = SimConfig(2000, days, truth, start_spread_days=spread, seed=49, build_log=False)
        summaries = simulate_pareto_nbd_cohort(config)[1].summaries()
        x, _, T, _ = summary_arrays(summaries)
        mean_rate = (x.mean() + 0.5) / (T.mean() + 1.0)
        default = fit_pareto_nbd(summaries)
        old = fit_pareto_nbd(summaries, initial=ParetoNBDParams(1.0, 1.0 / mean_rate, 1.0, T.mean()))
        assert default.converged and old.converged
        assert default.nll == pytest.approx(old.nll, rel=1e-10)


class TestCLVComposition:
    def _models(self):
        return BGNBDParams(0.4, 8.0, 0.8, 2.5), GammaGammaParams(6.0, 4.0, 15.0)

    def _summaries(self):
        return summaries_from_arrays(
            [0, 1, 4, 9], [0.0, 10.0, 25.0, 29.0], [30.0, 30.0, 30.0, 30.0], [0.0, 12.0, 25.0, 40.0]
        )

    def test_reference_shape_runs(self):
        purchase, spend = self._models()
        clv = discounted_clv(purchase, spend, self._summaries(), horizon=180.0, discount_rate=0.01)
        assert clv.shape == (4,)
        assert np.all(np.isfinite(clv)) and np.all(clv >= 0)

    def test_zero_discount_equals_composition(self):
        purchase, spend = self._models()
        summaries = self._summaries()
        clv = discounted_clv(purchase, spend, summaries, horizon=180.0, discount_rate=0.0)
        x, t_x, T, m = (np.array(v) for v in zip(*[(s.frequency, s.recency, s.age, s.monetary_value) for s in summaries]))
        expected = np.atleast_1d(expected_transactions(purchase, x, t_x, T, 180.0))
        value = np.atleast_1d(conditional_expected_value(spend, x, m))
        assert np.allclose(clv, expected * value, atol=1e-9)

    def test_strictly_decreasing_in_discount_rate(self):
        purchase, spend = self._models()
        summaries = self._summaries()[1:]  # positive expected transactions
        values = [
            discounted_clv(purchase, spend, summaries, 180.0, d).sum()
            for d in (0.0, 0.005, 0.01, 0.05, 0.2)
        ]
        assert np.all(np.diff(values) < 0)

    def test_horizon_must_be_whole_periods(self):
        purchase, spend = self._models()
        with pytest.raises(DataError):
            discounted_clv(purchase, spend, self._summaries(), 10.5, 0.01, period=7.0)

    def test_negative_horizon_raises(self):
        purchase, spend = self._models()
        with pytest.raises(DataError, match="horizon must be >= 0"):
            discounted_clv(purchase, spend, self._summaries(), -14.0, 0.01, period=7.0)

    def test_invalid_summary_raises_at_any_horizon(self):
        purchase, spend = self._models()
        bad = summaries_from_arrays([2], [40.0], [30.0], [10.0])  # recency beyond age
        for horizon in (0.0, 84.0):
            with pytest.raises(DataError, match="summaries must satisfy"):
                discounted_clv(purchase, spend, bad, horizon, 0.01, period=7.0)

    # both families at parameters with a far from 1 and s far from 1
    FAMILIES = [ParetoNBDParams(0.5, 10.0, 0.6, 12.0), BGNBDParams(0.4, 8.0, 0.8, 2.5)]

    def _cohort(self, n, seed=3):
        rng = np.random.default_rng(seed)
        T = rng.uniform(30.0, 365.0, n)
        x = rng.poisson(rng.gamma(0.5, 0.1, n) * T).astype(float)
        t_x = np.where(x > 0, T * rng.uniform(0.0, 1.0, n), 0.0)
        m = np.where(x > 0, rng.gamma(6.0, 3.0, n), 0.0)
        return summaries_from_arrays(x, t_x, T, m)

    @pytest.mark.parametrize("purchase", FAMILIES, ids=["pareto_nbd", "bg_nbd"])
    @pytest.mark.parametrize("n_periods,period", [(12, 7.0), (180, 1.0)])
    def test_equals_period_loop_of_expected_transactions(self, purchase, n_periods, period):
        _, spend = self._models()
        summaries = self._cohort(400)
        x, t_x, T, m = summary_arrays(summaries)
        value = conditional_expected_value(spend, x, m)
        reference = np.zeros_like(x)
        previous = np.zeros_like(x)
        for k in range(1, n_periods + 1):
            cumulative = expected_transactions(purchase, x, t_x, T, k * period)
            reference += (cumulative - previous) * value / 1.01**k
            previous = cumulative
        clv = discounted_clv(purchase, spend, summaries, n_periods * period, 0.01, period)
        assert np.all(reference > 0)
        np.testing.assert_allclose(clv, reference, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("purchase", FAMILIES, ids=["pareto_nbd", "bg_nbd"])
    def test_one_customer_call_equals_batch(self, purchase):
        _, spend = self._models()
        n_periods = 180
        # more customers than one block of the (customer x period) grid holds
        summaries = self._cohort(2 * btyd._GRID_CELLS // n_periods + 7)
        batch = discounted_clv(purchase, spend, summaries, float(n_periods), 0.01)
        online = [discounted_clv(purchase, spend, [s], float(n_periods), 0.01)[0] for s in summaries]
        assert np.array_equal(online, batch)

    @pytest.mark.parametrize("purchase", FAMILIES, ids=["pareto_nbd", "bg_nbd"])
    def test_one_customer_scores_equal_batch(self, purchase):
        # enough customers that the batch's 2F1 rows are summed one term per
        # pass, while a one-customer call sums blocks of many terms
        x, t_x, T, _ = summary_arrays(self._cohort(1200))
        batch = p_alive(purchase, x, t_x, T), expected_transactions(purchase, x, t_x, T, 90.0)
        for i in range(x.size):
            online = (
                p_alive(purchase, x[i], t_x[i], T[i]),
                expected_transactions(purchase, x[i], t_x[i], T[i], 90.0),
            )
            assert online == (batch[0][i], batch[1][i])

    @pytest.mark.parametrize("purchase", FAMILIES, ids=["pareto_nbd", "bg_nbd"])
    def test_one_customer_request_equals_batch(self, purchase):
        # a request as a service makes it: an RFMSummary row, whose frequency
        # is an int, its fields as Python numbers, and CLV over 12 weekly
        # periods of a one-summary list
        _, spend = self._models()
        summaries = self._cohort(300)
        x, t_x, T, _ = summary_arrays(summaries)
        batch = (
            p_alive(purchase, x, t_x, T),
            expected_transactions(purchase, x, t_x, T, 90.0),
            discounted_clv(purchase, spend, summaries, 84.0, 0.01, 7.0),
        )
        for i in range(len(summaries)):
            s = summaries[i]
            assert type(s.frequency) is int
            online = (
                p_alive(purchase, s.frequency, s.recency, s.age),
                expected_transactions(purchase, s.frequency, s.recency, s.age, 90.0),
                discounted_clv(purchase, spend, [s], 84.0, 0.01, 7.0)[0],
            )
            assert [type(v) for v in online[:2]] == [float, float]
            assert online == tuple(b[i] for b in batch)

    def test_one_customer_requests_equal_a_batch_summed_by_row(self):
        # a batch of at least special._ROW_MIN_ROWS customers sums the grid
        # of each block by row; a one-customer request takes the flat route
        _, spend = self._models()
        purchase = self.FAMILIES[1]
        summaries = self._cohort(special._ROW_MIN_ROWS + 50, seed=5)
        batch = discounted_clv(purchase, spend, summaries, 84.0, 0.01, 7.0)
        for i in range(0, len(summaries), 41):
            assert discounted_clv(purchase, spend, [summaries[i]], 84.0, 0.01, 7.0)[0] == batch[i]

    def _count_2f1_calls(self, monkeypatch, *args, **kwargs):
        calls = []

        def counting(*a, **kw):
            calls.append(1)
            return log_hyp2f1(*a, **kw)

        monkeypatch.setattr(btyd, "log_hyp2f1", counting)
        discounted_clv(*args, **kwargs)
        return len(calls)

    def test_pareto_2f1_calls_do_not_grow_with_periods(self, monkeypatch):
        _, spend = self._models()
        purchase, summaries = self.FAMILIES[0], self._cohort(400)
        twelve = self._count_2f1_calls(monkeypatch, purchase, spend, summaries, 84.0, 0.01, period=7.0)
        many = self._count_2f1_calls(monkeypatch, purchase, spend, summaries, 180.0, 0.01, period=1.0)
        assert twelve == many > 0

    def test_one_customer_bg_makes_one_2f1_call(self, monkeypatch):
        _, spend = self._models()
        summary = self._summaries()[2:3]
        assert self._count_2f1_calls(monkeypatch, self.FAMILIES[1], spend, summary, 84.0, 0.01, period=7.0) == 1


class TestLifetimeDuration:
    def test_threshold_above_current_alive_probability(self):
        params = BGNBDParams(0.4, 8.0, 0.8, 2.5)
        summary = summaries_from_arrays([3], [10.0], [40.0], [5.0])[0]
        current = p_alive(params, 3, 10.0, 40.0)
        duration = expected_lifetime_duration(params, summary, threshold=min(0.99, current + 0.05))
        assert duration.periods == 40.0
        assert not duration.capped

    def test_monotone_in_threshold(self):
        params = ParetoNBDParams(0.5, 10.0, 0.6, 12.0)
        summary = summaries_from_arrays([5], [25.0], [30.0], [8.0])[0]
        durations = [
            expected_lifetime_duration(params, summary, threshold=t).periods
            for t in (0.8, 0.5, 0.2, 0.05)
        ]
        assert np.all(np.diff(durations) >= 0)

    def test_cap_flag(self):
        params = BGNBDParams(0.4, 8.0, 0.8, 2.5)
        summary = summaries_from_arrays([0], [0.0], [10.0], [0.0])[0]
        # x = 0 keeps the BG alive probability at 1 forever
        duration = expected_lifetime_duration(params, summary, threshold=0.5, max_periods=1000)
        assert duration.capped
        assert duration.periods == 10.0 + 1000

    def test_feeds_discounted_retention_formula(self):
        params = ParetoNBDParams(0.5, 10.0, 0.6, 12.0)
        summary = summaries_from_arrays([4], [20.0], [30.0], [9.0])[0]
        duration = expected_lifetime_duration(params, summary, threshold=0.3, period=7.0)
        assert not duration.capped
        config = BasicCLVConfig(
            gross_margin=9.0,
            promotion_cost=1.0,
            n_periods=int(np.ceil(duration.periods)),
            retention=0.9,
            discount_rate=0.01,
        )
        value = basic_clv(config)
        assert np.isfinite(value) and value > 0
