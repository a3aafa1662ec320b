"""Recency-state chains: discretization, learning, valuation, and the
promotion-policy optimizer, with enumeration and rollout oracles."""

import itertools

import numpy as np
import pytest

from f2pclv.errors import DataError
from f2pclv.markov import (
    RecencyCellTable,
    RewardVector,
    StateSpace,
    TransitionMatrix,
    discretize_states,
    recency_migration_forecast,
    estimate_state_rewards,
    histories_from_log,
    learn_recency_cell_table,
    learn_transition_matrix,
    mcm_clv,
    optimize_promotion_policy,
    recency_chain,
)
from f2pclv.data import Transaction, TransactionLog
from f2pclv.simulate import simulate_markov_cohort


def _space4():
    return StateSpace.recency_cells(4)


class TestStateSpace:
    def test_recency_cells_layout(self):
        space = _space4()
        assert space.labels == ("r1", "r2", "r3", "r4", "churn")
        assert space.churn_index == 4

    def test_transition_matrix_validation(self):
        space = StateSpace.recency_cells(1)  # r1, churn
        with pytest.raises(DataError):
            TransitionMatrix(space=space, matrix=np.array([[0.5, 0.4], [0.0, 1.0]]))
        with pytest.raises(DataError):
            TransitionMatrix(space=space, matrix=np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_reward_vector_churn_must_be_zero(self):
        space = StateSpace.recency_cells(1)
        with pytest.raises(DataError):
            RewardVector(space=space, values=np.array([1.0, 2.0]))


class TestDiscretize:
    def test_purchase_every_period(self):
        (seq,) = discretize_states([[1, 1, 1, 1]], _space4())
        assert list(seq) == [0, 0, 0, 0]

    def test_hand_trace_to_churn(self):
        (seq,) = discretize_states([[1, 0, 0, 0, 0]], _space4())
        assert list(seq) == [0, 1, 2, 3, 4]

    def test_churn_is_absorbing_even_after_purchase(self):
        (seq,) = discretize_states([[1, 0, 0, 0, 0, 1]], _space4())
        assert list(seq) == [0, 1, 2, 3, 4, 4]

    def test_lengths_conserved(self):
        histories = [[1, 0, 1], [0, 0], [1] * 7]
        sequences = discretize_states(histories, _space4())
        assert [len(s) for s in sequences] == [3, 2, 7]

    def test_silent_first_period_starts_at_r2(self):
        # the relationship opens with a purchase just before period 0
        (seq,) = discretize_states([[0, 1]], _space4())
        assert list(seq) == [1, 0]

    def test_empty_history(self):
        (seq,) = discretize_states([[]], _space4())
        assert len(seq) == 0

    @pytest.mark.parametrize("n_cells", [1, 3, 4])
    def test_equals_a_period_loop_on_random_histories(self, n_cells):
        space = StateSpace.recency_cells(n_cells)
        rng = np.random.default_rng(n_cells)
        histories = [
            np.where(rng.random(n) < rate, rng.lognormal(1.0, 1.0, n), 0.0)
            for n, rate in zip(rng.integers(0, 25, 300), rng.choice([0.0, 0.1, 0.5, 1.0], 300))
        ]
        # empty, all-zero, one-period and churn-then-purchase histories
        histories[:5] = [np.zeros(0), np.zeros(9), np.array([2.0]), np.zeros(0), np.array([1.0] + [0.0] * 6 + [4.0])]
        sequences = discretize_states(histories, space)
        assert len(sequences) == len(histories)
        for seq, history in zip(sequences, histories):
            assert seq.dtype == np.int64
            assert list(seq) == _loop_states(history, n_cells)


def _loop_states(history, n_cells):
    """The recency-cell states of one history, one period at a time."""
    states, last_purchase, churned = [], -1, False
    for i, value in enumerate(history):
        if value:
            last_purchase = i
        churned = churned or i - last_purchase >= n_cells
        states.append(n_cells if churned else i - last_purchase)
    return states


class TestLearnTransitions:
    def test_two_customers_same_move(self):
        space = StateSpace.recency_cells(2)  # r1, r2, churn
        learned = learn_transition_matrix([[0, 1], [0, 1], [1, 0]], space)
        assert learned.matrix[0, 1] == 1.0
        assert learned.matrix[1, 0] == 1.0

    def test_alternating_customer_is_deterministic(self):
        space = StateSpace.recency_cells(2)
        learned = learn_transition_matrix([[0, 1, 0, 1, 0]], space)
        assert learned.matrix[0, 1] == 1.0
        assert learned.matrix[1, 0] == 1.0

    def test_never_leaving_state(self):
        space = StateSpace.recency_cells(2)
        learned = learn_transition_matrix([[0, 0, 0, 0], [1, 0]], space)
        row = np.zeros(3)
        row[0] = 1.0
        assert np.array_equal(learned.matrix[0], row)

    def test_mixed_counts_normalized_by_row_sum(self):
        space = StateSpace.recency_cells(2)
        # from r1: 3 moves to r1, 1 move to r2
        learned = learn_transition_matrix([[0, 0, 0, 0, 1, 0]], space)
        assert learned.matrix[0] == pytest.approx([0.75, 0.25, 0.0])

    def test_starved_state_reported(self):
        space = _space4()
        with pytest.raises(DataError, match="r3"):
            learn_transition_matrix([[0, 1, 0]], space)

    def test_churn_row_absorbing(self):
        space = StateSpace.recency_cells(1)
        learned = learn_transition_matrix([[0, 0, 1, 1], [0, 0]], space)
        assert np.array_equal(learned.matrix[1], [0.0, 1.0])

    def test_out_of_range_state_rejected(self):
        with pytest.raises(DataError, match="states must lie in"):
            learn_transition_matrix([[0, 1], [0, 3]], StateSpace.recency_cells(2))


def _loop_counts(sequences, histories, n_states):
    """Move counts and the cash of the periods moved into, one move at a
    time in customer-then-period order: the reference for the counts the
    transition matrix and the recency-cell table are learned from."""
    counts, cash = np.zeros((n_states, n_states)), np.zeros((n_states, n_states))
    for seq, hist in zip(sequences, histories):
        for i in range(len(seq) - 1):
            counts[seq[i], seq[i + 1]] += 1
            cash[seq[i], seq[i + 1]] += hist[i + 1]
    return counts, cash


@pytest.mark.parametrize("shape", [(300, 26), (5, 1), (4, 0)])
def test_two_d_histories_equal_their_rows_as_a_list(shape):
    # the rows of a 2-D array, as histories_from_log returns them, are read
    # whole; all-zero, purchase-every-period and churn-then-purchase rows
    rng = np.random.default_rng(shape[0])
    histories = np.where(rng.random(shape) < 0.3, rng.lognormal(1.0, 1.0, shape), 0.0)
    if shape[1]:
        histories[:3] = np.array([[0.0], [1.0], [0.0]])
        histories[3, 0] = histories[3, -1] = 2.0
    space = StateSpace.recency_cells(3)
    whole = discretize_states(histories > 0, space)
    by_row = discretize_states([h > 0 for h in histories], space)
    assert len(whole) == len(by_row) == shape[0]
    for got, want in zip(whole, by_row):
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
    if shape == (300, 26):
        table, from_list = learn_recency_cell_table(histories, 3), learn_recency_cell_table(list(histories), 3)
        assert np.array_equal(table.purchase_prob, from_list.purchase_prob)
        assert np.array_equal(table.purchase_value, from_list.purchase_value)


def test_learned_counts_match_a_loop_bit_for_bit():
    # ragged histories, empty and one-period ones included, with cash of
    # mixed magnitudes so any change in summation order shows
    rng = np.random.default_rng(8)
    histories = [
        np.where(rng.random(n) < 0.4, rng.lognormal(2.0, 2.0, n), 0.0) for n in rng.integers(0, 30, 400)
    ]
    histories[:3] = [np.zeros(0), np.array([3.0]), np.array([0.0, 0.0])]
    space = StateSpace.recency_cells(3)
    sequences = discretize_states([h > 0 for h in histories], space)
    counts, cash = _loop_counts(sequences, histories, space.n_states)
    counts[space.churn_index] = np.eye(space.n_states)[space.churn_index]
    learned = learn_transition_matrix(sequences, space)
    assert np.array_equal(learned.matrix, counts / counts.sum(axis=1)[:, None])
    table = learn_recency_cell_table(histories, 3)
    assert np.array_equal(table.purchase_prob, counts[:3, 0] / counts[:3].sum(axis=1))
    assert np.array_equal(table.purchase_value, cash[:3, 0] / counts[:3, 0])


class TestRewards:
    def test_constant_cash(self):
        space = StateSpace.recency_cells(1)
        rewards = estimate_state_rewards([[0, 0, 0]], [[10.0, 10.0, 10.0]], space)
        assert rewards.values[0] == 10.0

    def test_hand_mean(self):
        space = StateSpace.recency_cells(1)
        rewards = estimate_state_rewards([[0, 0]], [[0.0, 20.0]], space)
        assert rewards.values[0] == 10.0

    def test_churn_cash_discarded_with_warning(self):
        space = StateSpace.recency_cells(1)
        with pytest.warns(UserWarning, match="churn"):
            rewards = estimate_state_rewards([[0, 1, 1]], [[5.0, 3.0, 3.0]], space)
        assert rewards.values[space.churn_index] == 0.0

    def test_unvisited_state_warns_and_zeroes(self):
        space = _space4()
        with pytest.warns(UserWarning, match="never visited"):
            rewards = estimate_state_rewards([[0, 0]], [[1.0, 1.0]], space)
        assert rewards.values[2] == 0.0

    def test_misaligned_cash_rejected(self):
        space = StateSpace.recency_cells(1)
        with pytest.raises(DataError):
            estimate_state_rewards([[0, 0]], [[1.0]], space)

    @pytest.mark.parametrize("state", [-1, 5])
    def test_state_outside_the_space_rejected(self, state):
        with pytest.raises(DataError, match=r"states must lie in \[0, 5\)"):
            estimate_state_rewards([[0, 1], [2, state]], [[1.0, 1.0], [1.0, 1.0]], _space4())

    def test_totals_match_a_loop_bit_for_bit(self):
        # ragged sequences with cash of mixed magnitudes, so any change in
        # summation order shows
        rng = np.random.default_rng(3)
        histories = [
            np.where(rng.random(n) < 0.4, rng.lognormal(2.0, 2.0, n), 0.0) for n in rng.integers(0, 30, 400)
        ]
        histories[:2] = [np.zeros(0), np.array([5.0])]
        space = StateSpace.recency_cells(3)
        sequences = discretize_states([h > 0 for h in histories], space)
        totals, visits = np.zeros(space.n_states), np.zeros(space.n_states)
        for seq, cash in zip(sequences, histories):
            for state, value in zip(seq, cash):
                totals[state] += value
                visits[state] += 1.0
        with pytest.warns(UserWarning, match="churn"):
            rewards = estimate_state_rewards(sequences, histories, space)
        want = totals[:3] / visits[:3]
        assert rewards.values[:3].tobytes() == want.tobytes()


class TestValuation:
    def _identity(self):
        space = StateSpace.recency_cells(1)
        p = TransitionMatrix(space=space, matrix=np.eye(2))
        r = RewardVector(space=space, values=np.array([10.0, 0.0]))
        return p, r

    def test_identity_chain_geometric_series(self):
        p, r = self._identity()
        values = mcm_clv(p, r, discount_rate=0.1, horizon=None)
        assert values[0] == pytest.approx(110.0, abs=1e-9)

    def test_zero_rewards(self):
        space = _space4()
        rng = np.random.default_rng(0)
        m = rng.dirichlet(np.ones(5), size=5)
        m[-1] = np.eye(5)[-1]
        p = TransitionMatrix(space=space, matrix=m)
        r = RewardVector(space=space, values=np.zeros(5))
        assert np.all(mcm_clv(p, r, 0.05, None) == 0.0)
        assert np.all(mcm_clv(p, r, 0.0, horizon=25) == 0.0)

    def test_finite_horizon_matches_rollout(self):
        space = StateSpace.recency_cells(2)
        p = TransitionMatrix(
            space=space,
            matrix=np.array([[0.55, 0.4, 0.05], [0.45, 0.35, 0.2], [0.0, 0.0, 1.0]]),
        )
        r = RewardVector(space=space, values=np.array([12.0, 4.0, 0.0]))
        horizon, d = 40, 0.08
        value = mcm_clv(p, r, d, horizon=horizon)
        n = 200_000
        states, cash = simulate_markov_cohort(p, r, n, horizon + 1, seed=7, start_state=0)
        discounts = (1.0 + d) ** -np.arange(horizon + 1)
        rollout = float((cash * discounts).sum(axis=1).mean())
        assert value[0] == pytest.approx(rollout, rel=0.01)

    def test_finite_converges_to_infinite(self):
        space = StateSpace.recency_cells(2)
        p = TransitionMatrix(
            space=space,
            matrix=np.array([[0.6, 0.3, 0.1], [0.5, 0.3, 0.2], [0.0, 0.0, 1.0]]),
        )
        r = RewardVector(space=space, values=np.array([8.0, 2.0, 0.0]))
        d = 0.05
        horizon = int(np.ceil(np.log(1e-8) / np.log(1.0 / (1.0 + d))))
        finite = mcm_clv(p, r, d, horizon=horizon)
        infinite = mcm_clv(p, r, d, horizon=None)
        assert np.max(np.abs(finite - infinite)) < 1e-6

    def test_linear_in_rewards(self):
        space = StateSpace.recency_cells(2)
        p = TransitionMatrix(
            space=space,
            matrix=np.array([[0.7, 0.25, 0.05], [0.6, 0.2, 0.2], [0.0, 0.0, 1.0]]),
        )
        r1 = RewardVector(space=space, values=np.array([5.0, 1.0, 0.0]))
        r2 = RewardVector(space=space, values=np.array([2.0, 9.0, 0.0]))
        combo = RewardVector(space=space, values=3.0 * r1.values - 0.5 * r2.values)
        v = mcm_clv(p, combo, 0.07, horizon=30)
        expected = 3.0 * mcm_clv(p, r1, 0.07, horizon=30) - 0.5 * mcm_clv(p, r2, 0.07, horizon=30)
        assert np.max(np.abs(v - expected)) < 1e-10

    def test_infinite_requires_positive_discount(self):
        p, r = self._identity()
        with pytest.raises(DataError):
            mcm_clv(p, r, 0.0, horizon=None)

    @pytest.mark.parametrize("horizon", [None, 12])
    def test_non_finite_discount_rate_is_a_data_error(self, horizon):
        p, r = self._identity()
        with pytest.raises(DataError, match="discount_rate must be finite"):
            mcm_clv(p, r, float("nan"), horizon=horizon)

    def test_infinite_horizon_count_is_a_data_error(self):
        p, r = self._identity()
        with pytest.raises(DataError, match="horizon must be >= 0 and finite"):
            mcm_clv(p, r, 0.1, horizon=float("inf"))


class TestRecencyMigration:
    def test_single_cell_first_period(self):
        table = RecencyCellTable(purchase_prob=[0.3], purchase_value=[10.0])
        forecast = recency_migration_forecast(table, starting_cell=1, n_periods=1)
        assert forecast.per_period == [pytest.approx(3.0)]

    def test_zero_probabilities_give_zero_stream(self):
        table = RecencyCellTable(purchase_prob=[0.0, 0.0], purchase_value=[10.0, 5.0])
        forecast = recency_migration_forecast(table, starting_cell=1, n_periods=6)
        assert forecast.total == 0.0

    def test_equivalent_chain_valuation_matches(self):
        table = RecencyCellTable(
            purchase_prob=[0.45, 0.25, 0.1], purchase_value=[20.0, 18.0, 12.0]
        )
        n = 25
        for start in (1, 2, 3):
            forecast = recency_migration_forecast(table, starting_cell=start, n_periods=n)
            transitions, rewards = recency_chain(table)
            chain_value = mcm_clv(transitions, rewards, 0.0, horizon=n - 1)
            assert forecast.total == pytest.approx(chain_value[start - 1], abs=1e-9)

    def test_learned_table_round_trip(self):
        histories = [
            [5.0, 0.0, 3.0, 0.0, 0.0, 4.0],
            [2.0, 2.0, 0.0, 0.0, 2.0, 0.0],
            [1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        ]
        table = learn_recency_cell_table(histories, n_cells=3)
        assert table.n_cells == 3
        assert np.all(table.purchase_prob <= 1.0)
        forecast = recency_migration_forecast(table, 1, 4)
        assert np.isfinite(forecast.total)

    def test_histories_from_log(self):
        log = TransactionLog(
            records=[
                Transaction("a", 0.0, 5.0),
                Transaction("a", 2.5, 3.0),
                Transaction("b", 1.0, 2.0),
            ]
        )
        ids, histories = histories_from_log(log, period_days=1.0, n_periods=4)
        assert ids == ["a", "b"]
        assert list(histories[0]) == [5.0, 0.0, 3.0, 0.0]
        assert list(histories[1]) == [2.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("period_days", [float("nan"), float("inf"), float("-inf")])
    def test_histories_reject_a_non_finite_period(self, period_days):
        log = TransactionLog(records=[Transaction("a", 0.0, 5.0)])
        with pytest.raises(DataError, match=f"period_days must be finite, got {period_days}"):
            histories_from_log(log, period_days=period_days)

    def test_histories_add_a_period_in_log_order(self):
        # In log order period 0 sums to (1e16 + 1) - 1e16 = 0; in time order
        # it would be 1.
        log = TransactionLog(
            records=[
                Transaction("a", 0.0, 1e16),
                Transaction("a", 0.5, 1.0),
                Transaction("a", 0.25, -1e16),
                Transaction("a", 1.5, 2.0),
            ]
        )
        ids, histories = histories_from_log(log, period_days=1.0)
        assert ids == ["a"]
        assert list(histories[0]) == [0.0, 2.0]


def _dp_instance():
    space = StateSpace.recency_cells(2)
    p_hold = TransitionMatrix(
        space=space, matrix=np.array([[0.6, 0.35, 0.05], [0.3, 0.4, 0.3], [0, 0, 1.0]])
    )
    p_promo = TransitionMatrix(
        space=space, matrix=np.array([[0.8, 0.18, 0.02], [0.55, 0.3, 0.15], [0, 0, 1.0]])
    )
    r_hold = RewardVector(space=space, values=np.array([10.0, 3.0, 0.0]))
    r_promo = RewardVector(space=space, values=np.array([11.0, 4.0, 0.0]))
    matrices = {"hold": p_hold, "promo": p_promo}
    rewards = {"hold": r_hold, "promo": r_promo}
    costs = {"hold": 0.0, "promo": 2.5}
    return space, matrices, rewards, costs


def _enumerate_policies(matrices, rewards, costs, d, horizon):
    """Exhaustive policy evaluation: every (period, state) action table."""
    actions = list(matrices)
    n = matrices[actions[0]].space.n_states
    best = None
    slots = list(itertools.product(range(len(actions)), repeat=(horizon + 1) * n))
    for flat in slots:
        table = np.array(flat).reshape(horizon + 1, n)
        v = np.zeros(n)
        for t in range(horizon, -1, -1):
            q = np.empty(n)
            for s_i in range(n):
                name = actions[table[t, s_i]]
                q[s_i] = rewards[name].values[s_i] - costs[name] + matrices[name].matrix[s_i] @ v / (1.0 + d)
            v = q
        if best is None:
            best = v.copy()
        else:
            best = np.maximum(best, v)
    return best


class TestPromotionPolicy:
    def test_single_action_matches_valuation_net_of_costs(self):
        space, matrices, rewards, costs = _dp_instance()
        horizon, d, cost = 12, 0.06, 1.5
        policy = optimize_promotion_policy(
            {"only": matrices["hold"]}, {"only": rewards["hold"]}, {"only": cost}, d, horizon
        )
        annuity = float(np.sum((1.0 + d) ** -np.arange(horizon + 1)))
        expected = mcm_clv(matrices["hold"], rewards["hold"], d, horizon=horizon) - cost * annuity
        assert np.allclose(policy.values, expected, atol=1e-10)

    def test_dominant_action_chosen_everywhere(self):
        space, matrices, rewards, costs = _dp_instance()
        better = RewardVector(space=space, values=rewards["hold"].values + np.array([5.0, 5.0, 0.0]))
        policy = optimize_promotion_policy(
            {"hold": matrices["hold"], "boost": matrices["hold"]},
            {"hold": rewards["hold"], "boost": better},
            {"hold": 0.0, "boost": 0.0},
            0.05,
            4,
        )
        non_churn = [0, 1]
        assert np.all(policy.policy[:, non_churn] == 1)

    def test_matches_exhaustive_enumeration(self):
        space, matrices, rewards, costs = _dp_instance()
        d, horizon = 0.1, 2
        policy = optimize_promotion_policy(matrices, rewards, costs, d, horizon)
        best = _enumerate_policies(matrices, rewards, costs, d, horizon)
        assert np.array_equal(policy.values, best)

    def test_value_at_least_any_fixed_action(self):
        space, matrices, rewards, costs = _dp_instance()
        d, horizon = 0.08, 10
        policy = optimize_promotion_policy(matrices, rewards, costs, d, horizon)
        annuity = float(np.sum((1.0 + d) ** -np.arange(horizon + 1)))
        for name in matrices:
            fixed = mcm_clv(matrices[name], rewards[name], d, horizon=horizon) - costs[name] * annuity
            assert np.all(policy.values >= fixed - 1e-10)

    def test_monotone_in_rewards(self):
        space, matrices, rewards, costs = _dp_instance()
        base = optimize_promotion_policy(matrices, rewards, costs, 0.05, 6)
        bumped = {
            "hold": rewards["hold"],
            "promo": RewardVector(space=space, values=rewards["promo"].values + np.array([1.0, 1.0, 0.0])),
        }
        more = optimize_promotion_policy(matrices, bumped, costs, 0.05, 6)
        assert np.all(more.values >= base.values - 1e-12)

    def test_mismatched_state_spaces_rejected(self):
        space, matrices, rewards, costs = _dp_instance()
        other_space = StateSpace.recency_cells(3)
        p_other = TransitionMatrix(space=other_space, matrix=np.eye(4))
        with pytest.raises(DataError):
            optimize_promotion_policy(
                {"hold": matrices["hold"], "odd": p_other},
                {"hold": rewards["hold"], "odd": RewardVector(space=other_space, values=np.zeros(4))},
                {"hold": 0.0, "odd": 0.0},
                0.05,
                3,
            )
