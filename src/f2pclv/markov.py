"""Recency-state customer chains: discretization, transition learning,
discounted valuation, recency-cell migration forecasts, and a
promotion-policy optimizer.

States follow the recency-cell convention: a purchase puts the customer in
cell r1, each silent period advances one cell, and falling off the last
cell is churn, which is absorbing (lost-for-good).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import _group_by_customer
from .errors import DataError

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class StateSpace:
    labels: tuple[str, ...]
    churn_index: int

    def __post_init__(self):
        if not 0 <= self.churn_index < len(self.labels):
            raise DataError("churn_index out of range")
        if len(set(self.labels)) != len(self.labels):
            raise DataError("state labels must be unique")

    @property
    def n_states(self) -> int:
        return len(self.labels)

    @classmethod
    def recency_cells(cls, n_cells: int) -> "StateSpace":
        if n_cells < 1:
            raise DataError("need at least one recency cell")
        labels = tuple(f"r{i}" for i in range(1, n_cells + 1)) + ("churn",)
        return cls(labels=labels, churn_index=n_cells)


@dataclass
class TransitionMatrix:
    space: StateSpace
    matrix: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.matrix, dtype=float)
        n = self.space.n_states
        if p.shape != (n, n):
            raise DataError(f"matrix shape {p.shape} does not match {n} states")
        if np.any(p < -_ROW_SUM_TOL) or np.any(p > 1 + _ROW_SUM_TOL):
            raise DataError("transition probabilities must lie in [0, 1]")
        if np.any(np.abs(p.sum(axis=1) - 1.0) > _ROW_SUM_TOL):
            raise DataError("every transition row must sum to 1")
        churn_row = np.zeros(n)
        churn_row[self.space.churn_index] = 1.0
        if not np.allclose(p[self.space.churn_index], churn_row, atol=_ROW_SUM_TOL):
            raise DataError("churn state must be absorbing")
        self.matrix = p


@dataclass
class RewardVector:
    space: StateSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.space.n_states,):
            raise DataError("reward vector length must match the state count")
        if not np.all(np.isfinite(v)):
            raise DataError("rewards must be finite")
        if v[self.space.churn_index] != 0.0:
            raise DataError("churn-state reward must be 0")
        self.values = v


def histories_from_log(log, period_days: float, n_periods: int | None = None):
    """Per-customer, per-period purchase value totals relative to each
    customer's first purchase. Returns (customer_ids, histories), histories
    a (customers, n_periods) array whose row i is customer i's history
    (n_periods defaults to enough to cover the log)."""
    if not math.isfinite(period_days):
        raise DataError(f"period_days must be finite, got {period_days}")
    if period_days <= 0:
        raise DataError("period_days must be > 0")
    ids, [(codes, times)], first = _group_by_customer(log.records)
    if not ids:
        raise DataError("log contains no purchases")
    if n_periods is None:
        n_periods = int(np.floor((times.max() - first.min()) / period_days)) + 1
    periods = np.floor((times - first[codes]) / period_days).astype(np.intp)
    inside = periods < n_periods
    # bincount adds the weights in row order, as a running sum per cell would
    histories = np.bincount(
        codes[inside] * n_periods + periods[inside],
        weights=log.records.payload[inside],
        minlength=len(ids) * n_periods,
    ).reshape(len(ids), n_periods)
    return ids, histories


def discretize_states(
    histories: Sequence[Sequence[float]], space: StateSpace
) -> list[np.ndarray]:
    """Per-period state sequences from per-period purchase indicators.

    A truthy entry marks a purchase in that period. The relationship is
    assumed to open with a purchase just before the first period, and churn
    absorbs once the recency counter passes the last cell. Histories of one
    length may come as the rows of a 2-D array, which is read whole.
    """
    if isinstance(histories, np.ndarray) and histories.ndim == 2:
        flat = histories.astype(bool, copy=False).ravel()
        lengths = np.full(histories.shape[0], histories.shape[1], dtype=np.intp)
    else:
        flags = [np.asarray(h, dtype=bool) for h in histories]
        lengths = np.array([f.size for f in flags], dtype=np.intp)
        flat = np.concatenate([np.empty(0, dtype=bool), *flags])
    ends = np.cumsum(lengths)
    at = np.arange(flat.size)
    # per period, the first period of its history
    first = np.repeat(ends - lengths, lengths)
    # the last purchase at or before each period, over all histories end to
    # end: a history's opening purchase sits at its first period - 1, after
    # every period of the histories before it
    last_purchase = np.maximum.accumulate(np.where(flat, at, first - 1))
    cell = at - last_purchase
    # churn absorbs: a period is churned once its history has passed the
    # last cell at or before it
    passed = np.maximum.accumulate(np.where(cell >= space.churn_index, at, -1))
    states = np.where(passed >= first, space.churn_index, cell).astype(np.int64)
    # slices, not np.split, whose per-piece overhead is most of the cost
    return [states[i - n : i] for i, n in zip(ends.tolist(), lengths.tolist())]


def _states_end_to_end(sequences, n_states: int):
    """The state sequences as arrays and concatenated, checked to lie in
    [0, n_states)."""
    seqs = [np.asarray(seq) for seq in sequences]
    # an empty list reads as float; it adds no state
    flat = np.concatenate([np.empty(0, dtype=np.intp), *(seq for seq in seqs if seq.size)])
    if flat.size and not (flat.min() >= 0 and flat.max() < n_states):
        raise DataError(f"states must lie in [0, {n_states})")
    return seqs, flat


def _count_moves(sequences, n_states: int, cashflows=None):
    """counts[i, j]: the number of moves from state i to state j over all
    state sequences. With per-period cash flows aligned with the sequences,
    also returns cash[i, j], the summed cash of the periods moved into."""
    seqs, flat = _states_end_to_end(sequences, n_states)
    # every period but a sequence's last moves to the next entry
    ends = np.cumsum([len(seq) for seq in seqs])
    at = np.delete(np.arange(flat.size), ends[ends > 0] - 1)
    cells = flat[at] * n_states + flat[at + 1]
    counts = np.bincount(cells, minlength=n_states * n_states).reshape(n_states, n_states)
    if cashflows is None:
        return counts
    cash = np.concatenate([np.empty(0), *(np.asarray(c, dtype=float) for c in cashflows)])
    # bincount adds the weights in customer-then-period order, as a running
    # sum per cell would
    totals = np.bincount(cells, weights=cash[at + 1], minlength=n_states * n_states)
    return counts, totals.reshape(n_states, n_states)


def learn_transition_matrix(
    sequences: Sequence[Sequence[int]], space: StateSpace
) -> TransitionMatrix:
    """Count observed state-to-state moves and normalize each row by its
    total so rows are probability distributions; churn is forced absorbing.
    """
    n = space.n_states
    counts = _count_moves(sequences, n).astype(float)
    counts[space.churn_index] = 0.0
    counts[space.churn_index, space.churn_index] = 1.0
    row_sums = counts.sum(axis=1)
    starved = [
        space.labels[i]
        for i in range(n)
        if i != space.churn_index and row_sums[i] == 0
    ]
    if starved:
        raise DataError(f"no outgoing transitions observed from states: {starved}")
    return TransitionMatrix(space=space, matrix=counts / row_sums[:, None])


def estimate_state_rewards(
    sequences: Sequence[Sequence[int]],
    cashflows: Sequence[Sequence[float]],
    space: StateSpace,
) -> RewardVector:
    """Mean per-period cash flow over all customer-periods spent in each
    state; the churn state is forced to 0."""
    n = space.n_states
    seqs, flat = _states_end_to_end(sequences, n)
    cash = [np.asarray(c, dtype=float) for c in cashflows]
    if len(cash) != len(seqs) or any(c.shape != seq.shape for c, seq in zip(cash, seqs)):
        raise DataError("cash flows must align with state sequences")
    # bincount adds the weights in customer-then-period order, as a running
    # sum per state would
    totals = np.bincount(flat, weights=np.concatenate([np.empty(0), *cash]), minlength=n)
    visits = np.bincount(flat, minlength=n).astype(float)
    with np.errstate(invalid="ignore"):
        rewards = np.where(visits > 0, totals / np.maximum(visits, 1.0), 0.0)
    unvisited = [
        space.labels[i] for i in range(n) if visits[i] == 0 and i != space.churn_index
    ]
    if unvisited:
        warnings.warn(f"states never visited, reward set to 0: {unvisited}")
    if totals[space.churn_index] != 0:
        warnings.warn("nonzero cash recorded in churn periods was discarded")
    rewards[space.churn_index] = 0.0
    return RewardVector(space=space, values=rewards)


def mcm_clv(
    transitions: TransitionMatrix,
    rewards: RewardVector,
    discount_rate: float,
    horizon: int | None = None,
) -> np.ndarray:
    """Expected discounted cash flow per starting state.

    Rewards are earned at period start and discounting begins at t = 0, so
    the current period enters undiscounted. horizon=None solves the
    infinite-horizon system (I - P/(1+d)) V = R, which needs d > 0.
    """
    if transitions.space != rewards.space:
        raise DataError("transition matrix and rewards use different state spaces")
    if not math.isfinite(discount_rate):
        raise DataError("discount_rate must be finite")
    p = transitions.matrix
    r = rewards.values
    if horizon is None:
        if discount_rate <= 0:
            raise DataError("infinite-horizon valuation requires discount_rate > 0")
        return np.linalg.solve(np.eye(len(r)) - p / (1.0 + discount_rate), r)
    if not (horizon >= 0 and math.isfinite(horizon)):
        raise DataError("horizon must be >= 0 and finite")
    v = r.copy()
    for _ in range(horizon):
        v = r + p @ v / (1.0 + discount_rate)
    return v


# ---------------------------------------------------------------------------
# Recency-cell migration (lookup-table) model


@dataclass
class RecencyCellTable:
    """Per recency cell: probability of purchasing next period and the
    expected value of such a purchase."""

    purchase_prob: np.ndarray
    purchase_value: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.purchase_prob, dtype=float)
        v = np.asarray(self.purchase_value, dtype=float)
        if p.shape != v.shape or p.ndim != 1 or len(p) == 0:
            raise DataError("purchase_prob and purchase_value must be equal-length vectors")
        if np.any((p < 0) | (p > 1)):
            raise DataError("purchase probabilities must lie in [0, 1]")
        if np.any(v < 0):
            raise DataError("purchase values must be >= 0")
        self.purchase_prob = p
        self.purchase_value = v

    @property
    def n_cells(self) -> int:
        return len(self.purchase_prob)


def learn_recency_cell_table(
    histories: Sequence[Sequence[float]], n_cells: int
) -> RecencyCellTable:
    """Estimate the migration lookup table from per-period purchase values.

    Cell c's purchase probability is the observed rate of moving from cell
    c back to cell 1, and its value is the mean purchase value over such
    moves.
    """
    space = StateSpace.recency_cells(n_cells)
    # one comparison for histories of one length, as histories_from_log gives
    if isinstance(histories, np.ndarray) and histories.ndim == 2:
        purchased = histories > 0
    else:
        purchased = [np.asarray(h) > 0 for h in histories]
    sequences = discretize_states(purchased, space)
    counts, cash = _count_moves(sequences, space.n_states, histories)
    # moves out of each cell, and those back to cell 1, which are purchases
    trials = counts[:n_cells].sum(axis=1)
    hits = counts[:n_cells, 0]
    totals = cash[:n_cells, 0]
    if np.any(trials == 0):
        starved = [space.labels[c] for c in range(n_cells) if trials[c] == 0]
        raise DataError(f"no observations for recency cells: {starved}")
    probs = hits / trials
    values = np.where(hits > 0, totals / np.maximum(hits, 1.0), 0.0)
    return RecencyCellTable(purchase_prob=probs, purchase_value=values)


@dataclass
class MigrationForecast:
    per_period: list[float]
    total: float


def recency_migration_forecast(
    table: RecencyCellTable, starting_cell: int, n_periods: int
) -> MigrationForecast:
    """Expected value stream from propagating a customer over recency cells.

    starting_cell is 1-based. Each period the cell mass either purchases
    (moving to cell 1) or advances a cell; mass leaving the last cell is
    churned and produces nothing afterwards.
    """
    if not 1 <= starting_cell <= table.n_cells:
        raise DataError("starting_cell out of range")
    if n_periods < 1:
        raise DataError("n_periods must be >= 1")
    transitions, rewards = recency_chain(table)
    dist = np.zeros(transitions.space.n_states)
    dist[starting_cell - 1] = 1.0
    stream = []
    for _ in range(n_periods):
        stream.append(float(dist @ rewards.values))
        dist = dist @ transitions.matrix
    return MigrationForecast(per_period=stream, total=float(np.sum(stream)))


def recency_chain(table: RecencyCellTable) -> tuple[TransitionMatrix, RewardVector]:
    """The Markov chain equivalent of a recency-cell table: purchase moves
    to cell 1, otherwise advance; the last cell's non-buyers churn. The
    per-state reward is purchase probability times purchase value."""
    space = StateSpace.recency_cells(table.n_cells)
    n = space.n_states
    p = np.zeros((n, n))
    for cell in range(table.n_cells):
        p[cell, 0] = table.purchase_prob[cell]
        miss = 1.0 - table.purchase_prob[cell]
        if cell + 1 < table.n_cells:
            p[cell, cell + 1] = miss
        else:
            p[cell, space.churn_index] = miss
    p[space.churn_index, space.churn_index] = 1.0
    rewards = np.append(table.purchase_prob * table.purchase_value, 0.0)
    return TransitionMatrix(space=space, matrix=p), RewardVector(space=space, values=rewards)


# ---------------------------------------------------------------------------
# Promotion-policy optimization


@dataclass
class PromotionPolicy:
    actions: list[str]
    # policy[t][s] = index into actions for decision period t, state s
    policy: np.ndarray
    values: np.ndarray


def optimize_promotion_policy(
    matrices: Mapping[str, TransitionMatrix],
    rewards: Mapping[str, RewardVector],
    costs: Mapping[str, float],
    discount_rate: float,
    horizon: int,
) -> PromotionPolicy:
    """Finite-horizon backward induction over per-period action choices.

    Maximizes expected discounted reward net of per-period action cost
    (applied uniformly in every state). Decision periods run t = 0..horizon
    to match the finite-horizon valuation convention; ties pick the action
    listed first.
    """
    actions = list(matrices)
    if not actions:
        raise DataError("need at least one action")
    if set(rewards) != set(actions) or set(costs) != set(actions):
        raise DataError("matrices, rewards, and costs must cover the same actions")
    space = matrices[actions[0]].space
    for name in actions:
        if matrices[name].space != space or rewards[name].space != space:
            raise DataError(f"action {name!r} uses a different state space")
    if horizon < 0:
        raise DataError("horizon must be >= 0")
    n = space.n_states
    v_next = np.zeros(n)
    policy = np.zeros((horizon + 1, n), dtype=np.int64)
    for t in range(horizon, -1, -1):
        q = np.empty((len(actions), n))
        for k, name in enumerate(actions):
            q[k] = rewards[name].values - costs[name] + matrices[name].matrix @ v_next / (1.0 + discount_rate)
        policy[t] = np.argmax(q, axis=0)  # argmax takes the first maximum
        v_next = q[policy[t], np.arange(n)]
    return PromotionPolicy(actions=actions, policy=policy, values=v_next)
