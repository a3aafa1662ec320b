"""Generative cohort simulator checked against analytic identities."""

import re

import numpy as np
import pytest
from scipy.stats import ks_2samp

from f2pclv.btyd import BGNBDParams, GammaGammaParams, ParetoNBDParams
from f2pclv.errors import DataError
from f2pclv.markov import RewardVector, StateSpace, TransitionMatrix, learn_transition_matrix
from f2pclv.simulate import (
    SimConfig,
    _sorted_segment_uniforms,
    simulate_bg_nbd_cohort,
    simulate_markov_cohort,
    simulate_pareto_nbd_cohort,
)


def _pareto_config(**kw):
    base = dict(
        n_customers=1000,
        observation_days=90.0,
        purchase_model=ParetoNBDParams(0.5, 10.0, 0.6, 12.0),
        spend_model=GammaGammaParams(6.0, 4.0, 15.0),
        seed=0,
    )
    base.update(kw)
    return SimConfig(**base)


class TestSimConfig:
    @pytest.mark.parametrize("name", ["observation_days", "start_spread_days", "sessions_per_day", "rounds_per_session"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_values_are_rejected(self, name, value):
        with pytest.raises(DataError, match=f"{name} must be finite, got {value}"):
            _pareto_config(**{name: value})

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n_customers": 0}, "n_customers must be >= 1"),
            ({"observation_days": 0.0}, "observation_days must be > 0"),
            ({"conversion_rate": float("nan")}, "conversion_rate must lie in (0, 1]"),
        ],
    )
    def test_range_rules_keep_their_messages(self, change, message):
        with pytest.raises(DataError, match=re.escape(message)):
            _pareto_config(**change)


class TestParetoNBDCohort:
    def test_immediate_deaths_give_zero_repeats(self):
        # huge death-rate shape with beta fixed: lifetimes collapse to ~0
        config = _pareto_config(
            purchase_model=ParetoNBDParams(0.5, 10.0, 5000.0, 12.0), n_customers=4000
        )
        _, truth = simulate_pareto_nbd_cohort(config)
        assert np.mean(truth.frequency == 0) > 0.99

    def test_poisson_gamma_mean_identity_without_deaths(self):
        # beta huge makes mu ~ 0: mean repeats approaches (r / alpha) * T
        config = _pareto_config(
            purchase_model=ParetoNBDParams(0.5, 10.0, 0.6, 1e9),
            n_customers=100_000,
            observation_days=200.0,
            spend_model=None,
            build_log=False,
        )
        _, truth = simulate_pareto_nbd_cohort(config)
        expected = 0.5 / 10.0 * 200.0
        assert truth.frequency.mean() == pytest.approx(expected, rel=0.02)

    def test_mean_repeats_with_deaths_matches_analytic(self):
        # E[x] = E[lambda] * E[min(death, T)] with the Pareto-II survival integral
        r, alpha, s, beta, T = 0.5, 10.0, 1.7, 40.0, 120.0
        config = _pareto_config(
            purchase_model=ParetoNBDParams(r, alpha, s, beta),
            n_customers=100_000,
            observation_days=T,
            spend_model=None,
            build_log=False,
        )
        _, truth = simulate_pareto_nbd_cohort(config)
        e_alive = beta / (s - 1) * (1 - (beta / (beta + T)) ** (s - 1))
        assert truth.frequency.mean() == pytest.approx(r / alpha * e_alive, rel=0.02)

    def test_mean_spend_matches_gamma_gamma_population_mean(self):
        config = _pareto_config(n_customers=100_000, build_log=False)
        _, truth = simulate_pareto_nbd_cohort(config)
        payers = truth.frequency > 0
        mean_spend = np.average(truth.monetary_value[payers], weights=truth.frequency[payers])
        assert mean_spend == pytest.approx(6.0 * 15.0 / (4.0 - 1.0), rel=0.02)

    def test_zero_repeat_fraction_matches_model(self):
        from f2pclv.btyd import pareto_nbd_loglik

        config = _pareto_config(n_customers=100_000, build_log=False, seed=14)
        _, truth = simulate_pareto_nbd_cohort(config)
        analytic = float(np.exp(pareto_nbd_loglik(config.purchase_model, 0, 0.0, 90.0)))
        assert np.mean(truth.frequency == 0) == pytest.approx(analytic, rel=0.02)

    def test_conversion_rate_controls_payer_share(self):
        config = _pareto_config(
            n_customers=20_000, conversion_rate=0.08, sessions_per_day=0.3, seed=15
        )
        log, truth = simulate_pareto_nbd_cohort(config)
        assert truth.converted.mean() == pytest.approx(0.08, abs=0.01)
        payers = {r.customer_id for r in log.records}
        converted_ids = {
            truth.customer_ids[i] for i in np.flatnonzero(truth.converted)
        }
        assert payers == converted_ids
        # non-converts still show up in the event stream
        event_ids = {e.customer_id for e in log.events}
        assert len(event_ids) > len(payers) * 5
        # the RFM oracle covers exactly the converted customers
        assert len(truth.summaries()) == len(converted_ids)

    def test_no_purchase_after_death(self):
        config = _pareto_config(n_customers=3000, seed=3)
        log, truth = simulate_pareto_nbd_cohort(config)
        deadline = {
            truth.customer_ids[i]: min(truth.death_time[i], truth.age[i])
            for i in range(len(truth.customer_ids))
        }
        first = {}
        for rec in log.records:
            first.setdefault(rec.customer_id, rec.timestamp)
        for rec in log.records:
            rel = rec.timestamp - first[rec.customer_id]
            assert rel <= deadline[rec.customer_id] + 1e-9

    def test_alive_flag_consistency(self):
        _, truth = simulate_pareto_nbd_cohort(_pareto_config(seed=4))
        assert np.array_equal(truth.alive, truth.death_time > truth.age)

    def test_seed_determinism(self):
        log1, t1 = simulate_pareto_nbd_cohort(_pareto_config(seed=9))
        log2, t2 = simulate_pareto_nbd_cohort(_pareto_config(seed=9))
        assert list(log1.records) == list(log2.records)
        assert list(log1.events) == list(log2.events)
        assert np.array_equal(t1.lam, t2.lam)
        log3, _ = simulate_pareto_nbd_cohort(_pareto_config(seed=10))
        assert list(log3.records) != list(log1.records)


class TestBGNBDCohort:
    def test_no_dropout_limit_matches_pure_nbd(self):
        # a -> 0 makes the dropout probability ~0; counts must match the
        # no-death Poisson-gamma distributionally
        bg = SimConfig(
            n_customers=100_000,
            observation_days=100.0,
            purchase_model=BGNBDParams(0.4, 8.0, 1e-9, 1.0),
            seed=21,
            build_log=False,
        )
        _, bg_truth = simulate_bg_nbd_cohort(bg)
        pure = SimConfig(
            n_customers=100_000,
            observation_days=100.0,
            purchase_model=ParetoNBDParams(0.4, 8.0, 0.6, 1e12),
            seed=22,
            build_log=False,
        )
        _, nbd_truth = simulate_pareto_nbd_cohort(pure)
        stat = ks_2samp(bg_truth.frequency, nbd_truth.frequency).statistic
        assert stat < 0.01

    def test_degenerate_dropout_caps_repeats_at_one(self):
        # Beta(a, b) with a huge and b tiny is numerically the constant 1:
        # the first repeat purchase always kills, so x <= 1 under the
        # convention that dropout follows each repeat purchase.
        config = SimConfig(
            n_customers=20_000,
            observation_days=200.0,
            purchase_model=BGNBDParams(2.0, 2.0, 1e15, 1e-4),
            seed=23,
            build_log=False,
        )
        _, truth = simulate_bg_nbd_cohort(config)
        assert truth.frequency.max() <= 1
        assert truth.frequency.max() == 1  # plenty of customers reach one repeat

    def test_death_recorded_at_killing_purchase(self):
        config = SimConfig(
            n_customers=5000,
            observation_days=120.0,
            purchase_model=BGNBDParams(1.0, 5.0, 2.0, 3.0),
            seed=24,
            build_log=False,
        )
        _, truth = simulate_bg_nbd_cohort(config)
        dead = ~truth.alive
        assert dead.any() and truth.alive.any()
        # the killing purchase is the last observed one
        assert np.allclose(truth.death_time[dead], truth.recency[dead])
        assert np.all(np.isinf(truth.death_time[truth.alive]))

    def test_seed_determinism(self):
        config = SimConfig(
            n_customers=500,
            observation_days=60.0,
            purchase_model=BGNBDParams(0.4, 8.0, 0.8, 2.5),
            spend_model=GammaGammaParams(6.0, 4.0, 15.0),
            sessions_per_day=0.3,
            seed=25,
        )
        log1, _ = simulate_bg_nbd_cohort(config)
        log2, _ = simulate_bg_nbd_cohort(config)
        assert list(log1.records) == list(log2.records)
        assert list(log1.events) == list(log2.events)


@pytest.mark.parametrize(
    "counts",
    [
        np.random.default_rng(2).poisson(np.repeat([0.5, 4.0, 60.0], 200)),
        np.array([], dtype=np.intp),
        np.zeros(3, dtype=np.intp),
    ],
    ids=["mixed_lengths", "empty", "all_zero"],
)
def test_sorted_segment_uniforms_equal_a_lexsort_of_the_draws(counts):
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    u, cust = _sorted_segment_uniforms(rng, counts)
    raw = ref_rng.random(int(counts.sum()))
    ref_cust = np.repeat(np.arange(len(counts)), counts)
    assert u.tobytes() == raw[np.lexsort((raw, ref_cust))].tobytes()
    assert np.array_equal(cust, ref_cust)
    # the generator is left where one draw of every uniform leaves it
    assert rng.random() == ref_rng.random()


class TestMarkovCohort:
    def _space(self):
        return StateSpace.recency_cells(2)  # r1, r2, churn

    def test_identity_chain_constant_trajectories(self):
        space = self._space()
        p = TransitionMatrix(space=space, matrix=np.eye(3))
        states, _ = simulate_markov_cohort(p, None, 50, 20, seed=1, start_state=1)
        assert np.all(states == 1)

    def test_transition_recovery(self):
        space = self._space()
        gen = TransitionMatrix(
            space=space,
            matrix=np.array([[0.6, 0.35, 0.05], [0.5, 0.3, 0.2], [0.0, 0.0, 1.0]]),
        )
        states, _ = simulate_markov_cohort(gen, None, 40_000, 6, seed=2)
        learned = learn_transition_matrix(list(states), space)
        assert np.max(np.abs(learned.matrix - gen.matrix)) < 0.02

    def test_absorbing_churn_retains_mass(self):
        space = self._space()
        gen = TransitionMatrix(
            space=space,
            matrix=np.array([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5], [0.0, 0.0, 1.0]]),
        )
        states, _ = simulate_markov_cohort(gen, None, 2000, 10, seed=3)
        churned = states == space.churn_index
        # once churned, always churned
        assert np.all(churned[:, :-1] <= churned[:, 1:])

    def test_rewards_and_noise(self):
        space = self._space()
        p = TransitionMatrix(space=space, matrix=np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1]]))
        r = RewardVector(space=space, values=np.array([7.0, 3.0, 0.0]))
        _, cash = simulate_markov_cohort(p, r, 300, 15, seed=4, start_state=0, reward_sigma=0.5)
        assert cash.mean() == pytest.approx(7.0, abs=0.05)
