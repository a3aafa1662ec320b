"""Buy-till-you-die likelihoods and fits against generative oracles.

The closed forms are validated three independent ways: total probability
mass over a discretized outcome space sums to 1, Monte-Carlo frequencies
from the assumption-level simulator match pointwise, and maximum
likelihood recovers the generating parameters.
"""

import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import gammaln

from f2pclv import btyd
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
from f2pclv.errors import DataError
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
