"""Cohort-average CLV formulas: discounted retention, curves, Kaplan-Meier."""

import mpmath
import numpy as np
import pytest

from f2pclv.cohort import (
    BasicCLVConfig,
    MonetizationCurve,
    RetentionCurve,
    basic_clv,
    fit_monetization_curve,
    fit_retention_curve,
    kaplan_meier,
    monetization_clv,
    retention_clv,
)
from f2pclv.data import cumulative_revenue_fractions
from f2pclv.errors import DataError, NumericalError
from f2pclv.simulate import SimConfig, simulate_pareto_nbd_cohort
from f2pclv.btyd import GammaGammaParams, ParetoNBDParams


def _config(gc, m, n, r, d):
    return BasicCLVConfig(gross_margin=gc, promotion_cost=m, n_periods=n, retention=r, discount_rate=d)


def _cashflow_oracle(gc, m, n, r, d):
    """Period-by-period evaluation with mid-period promotion discounting."""
    total = 0.0
    for i in range(0, n + 1):
        total += gc * r**i / (1 + d) ** i
    for i in range(1, n + 1):
        total -= m * r ** (i - 1) / (1 + d) ** (i - 0.5)
    return total


def _closed_form(gc, m, n, r, d):
    rho = r / (1 + d)
    revenue = gc * (n + 1) if rho == 1.0 else gc * (1 - rho ** (n + 1)) / (1 - rho)
    if rho == 1.0:
        promo = m * n / np.sqrt(1 + d)
    else:
        promo = m * (1 - rho**n) / ((1 - rho) * np.sqrt(1 + d))
    return revenue - promo


class TestBasicCLV:
    def test_no_attrition_no_discount(self):
        assert basic_clv(_config(100.0, 0.0, 4, 1.0, 0.0)) == 500.0

    def test_direct_evaluation(self):
        assert basic_clv(_config(100.0, 0.0, 2, 0.5, 0.0)) == pytest.approx(175.0, abs=1e-12)

    def test_with_promotion_against_cashflow_oracle(self):
        value = basic_clv(_config(100.0, 20.0, 3, 0.8, 0.1))
        assert value == pytest.approx(_cashflow_oracle(100.0, 20.0, 3, 0.8, 0.1), abs=1e-12)
        assert value == pytest.approx(221.07, abs=0.01)

    def test_matches_closed_form_geometric_series(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            gc = rng.uniform(1, 500)
            m = rng.uniform(0, 100)
            n = int(rng.integers(0, 60))
            r = rng.uniform(0, 1)
            d = rng.uniform(0, 0.5)
            assert basic_clv(_config(gc, m, n, r, d)) == pytest.approx(
                _closed_form(gc, m, n, r, d), abs=1e-10, rel=1e-10
            )

    def test_monotonicities(self):
        base = _config(100.0, 10.0, 5, 0.8, 0.1)
        assert basic_clv(_config(100.0, 10.0, 5, 0.8, 0.2)) < basic_clv(base)
        assert basic_clv(_config(100.0, 20.0, 5, 0.8, 0.1)) < basic_clv(base)
        assert basic_clv(_config(120.0, 10.0, 5, 0.8, 0.1)) > basic_clv(base)
        assert basic_clv(_config(100.0, 10.0, 5, 0.9, 0.1)) > basic_clv(base)
        assert basic_clv(_config(100.0, 0.0, 6, 0.8, 0.1)) > basic_clv(_config(100.0, 0.0, 5, 0.8, 0.1))

    def test_invalid_config(self):
        with pytest.raises(DataError):
            _config(1.0, 0.0, 5, 1.2, 0.0)
        with pytest.raises(DataError):
            _config(1.0, 0.0, -1, 0.5, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["gross_margin", "promotion_cost", "discount_rate"])
    def test_non_finite_money_and_rate_are_rejected(self, name, value):
        values = {"gross_margin": 1.0, "promotion_cost": 0.0, "n_periods": 5, "retention": 0.5, "discount_rate": 0.1}
        with pytest.raises(DataError, match=f"{name} must be finite, got {value}"):
            BasicCLVConfig(**{**values, name: value})


class TestRetentionCurveFit:
    def test_exponential_self_consistency(self):
        days = np.arange(0, 30)
        points = [(float(i), float(np.exp(-0.1 * i))) for i in days]
        curve = fit_retention_curve(points, "exponential")
        assert curve.k == pytest.approx(0.1, abs=1e-6)
        assert curve.rss < 1e-12

    def test_power_law_self_consistency(self):
        days = np.arange(0, 30)
        points = [(float(i), float((1 + i) ** -0.7)) for i in days]
        curve = fit_retention_curve(points, "power_law")
        assert curve.k == pytest.approx(0.7, abs=1e-6)

    @pytest.mark.parametrize("family", ["power_law", "exponential"])
    def test_noisy_fit_is_the_stationary_point_of_the_rss(self, family):
        rng = np.random.default_rng(5)
        days = np.arange(0.0, 60.0)
        truth = RetentionCurve(family, 0.6 if family == "power_law" else 0.05).ret(days)
        points = list(zip(days, np.clip(truth + rng.normal(0.0, 0.02, days.size), 0.0, 1.0)))
        k = fit_retention_curve(points, family).k

        def slope(k):
            total = 0
            for day, frac in points:
                day, frac = mpmath.mpf(day), mpmath.mpf(frac)
                log_ret = -k * (mpmath.log1p(day) if family == "power_law" else day)
                total += (mpmath.exp(log_ret) - frac) * mpmath.exp(log_ret) * log_ret / k
            return total

        with mpmath.workdps(40):
            k_star = mpmath.findroot(slope, mpmath.mpf(k))
        # to the resolution of the rss in doubles, flat at its minimum
        assert k == pytest.approx(float(k_star), rel=1e-7)

    def test_no_decay(self):
        points = [(float(i), 1.0) for i in range(10)]
        assert fit_retention_curve(points, "exponential").k == 0.0

    def test_model_mismatch_raises_rss(self):
        points = [(float(i), float((1 + i) ** -0.9)) for i in range(40)]
        exp_fit = fit_retention_curve(points, "exponential")
        pow_fit = fit_retention_curve(points, "power_law")
        assert exp_fit.rss > pow_fit.rss

    def test_all_zero_fractions_rejected(self):
        with pytest.raises(DataError):
            fit_retention_curve([(0.0, 0.0), (1.0, 0.0)], "exponential")


class TestKaplanMeier:
    def test_hand_product_limit(self):
        curve = kaplan_meier([(1.0, False), (2.0, False)])
        assert curve.ret(1.0) == pytest.approx(0.5)
        assert curve.ret(2.0) == pytest.approx(0.0)
        assert curve.ret(0.5) == 1.0

    def test_all_censored(self):
        curve = kaplan_meier([(1.0, True), (5.0, True), (9.0, True)])
        assert np.all(curve.ret(np.linspace(0, 10, 50)) == 1.0)

    def test_censoring_mix(self):
        # risk set 4 at t=1 (1 death -> 3/4); censor at t=2; risk set 2 at
        # t=3 (1 death -> 3/8)
        curve = kaplan_meier([(1.0, False), (2.0, True), (3.0, False), (4.0, True)])
        assert curve.ret(1.5) == pytest.approx(0.75)
        assert curve.ret(3.5) == pytest.approx(0.375)

    def test_no_censoring_equals_empirical_survival(self):
        rng = np.random.default_rng(11)
        lengths = rng.exponential(10.0, 200).round(1)
        curve = kaplan_meier([(float(t), False) for t in lengths])
        for t in np.linspace(0, 40, 81):
            empirical = float(np.mean(lengths > t))
            assert curve.ret(t) == pytest.approx(empirical, abs=1e-12)

    def test_monotone_step_function(self):
        rng = np.random.default_rng(12)
        durations = [(float(t), bool(c)) for t, c in zip(rng.exponential(5, 100), rng.integers(0, 2, 100))]
        curve = kaplan_meier(durations)
        values = curve.ret(np.linspace(0, 30, 200))
        assert np.all(np.diff(values) <= 1e-15)
        assert np.all((values >= 0) & (values <= 1))

    def test_empty_input(self):
        with pytest.raises(DataError):
            kaplan_meier([])


class TestRetentionCLV:
    def test_constant_retention(self):
        curve = fit_retention_curve([(0.0, 1.0), (1.0, 1.0)], "exponential")
        assert retention_clv(0.1, curve, 30) == pytest.approx(3.1, abs=1e-12)

    def test_single_day_step(self):
        curve = kaplan_meier([(0.5, False)])  # dies before day 1
        assert retention_clv(0.5, curve, 10) == pytest.approx(0.5)

    def test_power_law_direct_sum(self):
        points = [(float(i), float((1 + i) ** -1.0)) for i in range(40)]
        curve = fit_retention_curve(points, "power_law")
        assert retention_clv(1.0, curve, 3) == pytest.approx(25.0 / 12.0, abs=1e-6)

    def test_monotone_in_horizon(self):
        curve = fit_retention_curve([(float(i), float(np.exp(-0.2 * i))) for i in range(20)], "exponential")
        values = [retention_clv(0.3, curve, n) for n in range(0, 40, 3)]
        assert np.all(np.diff(values) >= 0)

    @pytest.mark.parametrize(
        "arpdau, n_days, message",
        [(float("nan"), 30, "arpdau"), (float("inf"), 30, "arpdau"), (1.0, float("inf"), "n_days"), (1.0, -1, "n_days")],
    )
    def test_non_finite_or_negative_input_is_a_data_error(self, arpdau, n_days, message):
        curve = fit_retention_curve([(0.0, 1.0), (1.0, 1.0)], "exponential")
        with pytest.raises(DataError, match=f"{message} must be >= 0 and finite"):
            retention_clv(arpdau, curve, n_days)


class TestMonetization:
    def test_interpolation_identity_at_knots(self):
        points = [(1.0, 0.2), (5.0, 0.5), (10.0, 1.0)]
        curve = fit_monetization_curve(points)
        for d, f in points:
            assert curve.mon(d) == pytest.approx(f, abs=1e-15)

    def test_single_terminal_point(self):
        curve = fit_monetization_curve([(30.0, 1.0)])
        assert curve.mon(30.0) == 1.0
        assert curve.mon(100.0) == 1.0

    def test_decreasing_input_rejected(self):
        with pytest.raises(DataError):
            fit_monetization_curve([(1.0, 0.5), (2.0, 0.4), (3.0, 1.0)])

    def test_final_fraction_must_be_one(self):
        with pytest.raises(DataError):
            fit_monetization_curve([(1.0, 0.5), (2.0, 0.9)])

    def test_projection(self):
        curve = fit_monetization_curve([(5.0, 0.5), (10.0, 1.0)])
        assert monetization_clv(50.0, curve, 5.0) == pytest.approx(100.0)
        assert monetization_clv(0.0, curve, 5.0) == 0.0  # zero-spend limitation
        assert monetization_clv(42.0, curve, 10.0) == pytest.approx(42.0)

    def test_projection_never_below_revenue(self):
        curve = fit_monetization_curve([(2.0, 0.25), (8.0, 1.0)])
        for day in (2.0, 4.0, 8.0, 20.0):
            assert monetization_clv(10.0, curve, day) >= 10.0

    def test_division_guard(self):
        curve = MonetizationCurve(knot_days=[0.0, 10.0], knot_fractions=[1e-12, 1.0])
        with pytest.raises(NumericalError):
            monetization_clv(5.0, curve, 0.0)

    @pytest.mark.parametrize("day", [float("nan"), float("inf")])
    def test_non_finite_day_is_a_data_error(self, day):
        curve = fit_monetization_curve([(2.0, 0.25), (8.0, 1.0)])
        with pytest.raises(DataError, match=f"n_days must be finite, got {day}"):
            monetization_clv(10.0, curve, day)

    def test_simulated_cohort_curve_matches_empirical(self):
        config = SimConfig(
            n_customers=2500,
            observation_days=120.0,
            purchase_model=ParetoNBDParams(1.2, 4.0, 0.7, 30.0),
            spend_model=GammaGammaParams(6.0, 4.0, 15.0),
            seed=13,
        )
        log, _ = simulate_pareto_nbd_cohort(config)
        points = cumulative_revenue_fractions(log, 120)
        curve = fit_monetization_curve(points)
        for day, frac in points[::10]:
            assert curve.mon(day) == pytest.approx(frac, rel=0.01)
