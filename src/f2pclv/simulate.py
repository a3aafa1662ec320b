"""Synthetic cohort generation from the models' own generative assumptions.

Each customer's relationship starts at their first purchase. Pareto/NBD
cohorts draw a purchase rate and a death rate from gamma mixtures and run
a Poisson purchase process until death or the end of observation; BG/NBD
cohorts instead flip a beta-distributed dropout coin after every repeat
purchase. Spend attaches to each purchase through the gamma-gamma
hierarchy. Generation is vectorized and fully determined by (config, seed).
A customer's purchase and session times are sorted uniform draws. The
customers with the same number of draws are sorted together, as the rows
of one (customers, length) block from `data._segments_by_length`, which
gives each customer's draws the order a full sort by (customer, draw) would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .btyd import BGNBDParams, GammaGammaParams, ParetoNBDParams
from .data import GameEvent, RFMSummaries, Rows, Transaction, TransactionLog, _rfm_from_segments, _segments_by_length
from .errors import DataError
from .markov import RewardVector, TransitionMatrix


@dataclass
class SimConfig:
    n_customers: int
    observation_days: float
    purchase_model: ParetoNBDParams | BGNBDParams
    spend_model: GammaGammaParams | None = None
    sessions_per_day: float = 0.0
    rounds_per_session: float = 0.0
    start_spread_days: float = 0.0
    # Fraction of players who ever convert to paying. Non-converts produce
    # gameplay events but no purchases, so the purchase models only ever
    # see the converted sub-population.
    conversion_rate: float = 1.0
    seed: int = 0
    # Skip assembling the per-record TransactionLog (ground truth only);
    # useful for million-customer Monte-Carlo checks.
    build_log: bool = True

    def __post_init__(self):
        if self.n_customers < 1:
            raise DataError("n_customers must be >= 1")
        for name in ("observation_days", "start_spread_days", "sessions_per_day", "rounds_per_session"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DataError(f"{name} must be finite, got {value}")
        if self.observation_days <= 0:
            raise DataError("observation_days must be > 0")
        if not 0.0 < self.conversion_rate <= 1.0:
            raise DataError("conversion_rate must lie in (0, 1]")

    @property
    def observation_end(self) -> float:
        return self.start_spread_days + self.observation_days


@dataclass
class GroundTruth:
    """Per-customer latent state and exact counters of the generator."""

    customer_ids: list[str]
    lam: np.ndarray
    mu: np.ndarray | None
    dropout_p: np.ndarray | None
    death_time: np.ndarray  # relative to relationship start; inf if never died
    alive: np.ndarray
    converted: np.ndarray
    frequency: np.ndarray
    recency: np.ndarray
    age: np.ndarray
    monetary_value: np.ndarray

    def summaries(self) -> RFMSummaries:
        """RFM rows for the converted customers (the ones with purchases)."""
        ids = np.array(self.customer_ids, dtype=object)
        columns = (ids, self.frequency, self.recency, self.age, self.monetary_value)
        return RFMSummaries(*(c[self.converted] for c in columns))


def _customer_ids(n):
    return [f"c{i:07d}" for i in range(n)]


def _sorted_segment_uniforms(rng, counts):
    """Uniform(0,1) draws grouped by customer and sorted within customer,
    each length class of customers sorted as one block along its rows."""
    u = rng.random(int(counts.sum()))
    for _, block in _segments_by_length(counts):
        u[block] = np.sort(u[block], axis=1)
    return u, np.repeat(np.arange(len(counts)), counts)


def _segment_offsets(counts):
    ends = np.cumsum(counts)
    starts = ends - counts
    return starts, ends


def _assemble_log(config, ids, starts, rep_times_abs, rep_cust, first_values, rep_values, rng, alive_window, converted):
    payers = np.flatnonzero(converted)
    codes = np.concatenate([payers, rep_cust])
    times = np.concatenate([starts[payers], rep_times_abs])
    records = Rows(Transaction, ids, codes, times, np.concatenate([first_values[payers], rep_values]))
    streams = []  # (codes, times, kind) of the events of each kind
    if config.sessions_per_day > 0:
        n_sessions = rng.poisson(config.sessions_per_day * alive_window)
        u, cust = _sorted_segment_uniforms(rng, n_sessions)
        session_times = starts[cust] + u * np.repeat(alive_window, n_sessions)
        streams.append((cust, session_times, "session_start"))
        if config.rounds_per_session > 0:
            rounds = rng.poisson(config.rounds_per_session, size=len(session_times))
            streams.append((np.repeat(cust, rounds), np.repeat(session_times, rounds), "round_played"))
    streams.append((codes, times, "purchase"))
    e_codes, e_times, kinds = zip(*streams)
    kinds = np.repeat(np.array(kinds, dtype=object), [len(c) for c in e_codes])
    events = Rows(GameEvent, ids, np.concatenate(e_codes), np.concatenate(e_times), kinds)
    return TransactionLog(records=records.sorted(), events=events.sorted())


def _draw_customers(config, rng):
    """Relationship starts, ages, conversion flags and purchase rates."""
    n = config.n_customers
    starts = rng.uniform(0.0, config.start_spread_days, n) if config.start_spread_days > 0 else np.zeros(n)
    ages = config.observation_end - starts
    converted = (
        rng.random(n) < config.conversion_rate
        if config.conversion_rate < 1.0
        else np.ones(n, dtype=bool)
    )
    params = config.purchase_model
    lam = rng.gamma(shape=params.r, scale=1.0 / params.alpha, size=n)
    return starts, ages, converted, lam


def _draw_spend(config, rng, rep_cust):
    """Values of each customer's first purchase and of the repeat purchases
    made by `rep_cust`, from the gamma-gamma hierarchy (all 1 without one)."""
    spend = config.spend_model
    if spend is None:
        return np.ones(config.n_customers), np.ones(len(rep_cust))
    nu = rng.gamma(shape=spend.q, scale=1.0 / spend.gamma, size=config.n_customers)
    first_values = rng.gamma(shape=spend.p, scale=1.0 / nu)
    rep_values = rng.gamma(shape=spend.p, scale=1.0 / nu[rep_cust])
    return first_values, rep_values


def simulate_pareto_nbd_cohort(config: SimConfig) -> tuple[TransactionLog, GroundTruth]:
    """Cohort under the Pareto/NBD assumptions.

    lambda ~ Gamma(r, rate alpha), mu ~ Gamma(s, rate beta) independently;
    the active period is Exponential(mu); repeat purchases follow a Poisson
    process with rate lambda truncated at min(death, age).
    """
    params = config.purchase_model
    if not isinstance(params, ParetoNBDParams):
        raise DataError("config.purchase_model must be ParetoNBDParams")
    n = config.n_customers
    rng = np.random.default_rng(config.seed)
    ids = _customer_ids(n)
    starts, ages, converted, lam = _draw_customers(config, rng)
    mu = rng.gamma(shape=params.s, scale=1.0 / params.beta, size=n)
    death = rng.exponential(scale=1.0 / mu)
    window = np.minimum(death, ages)

    counts = rng.poisson(lam * window)
    counts[~converted] = 0
    u_sorted, rep_cust = _sorted_segment_uniforms(rng, counts)
    rep_times_abs = starts[rep_cust] + u_sorted * window[rep_cust]

    first_values, rep_values = _draw_spend(config, rng, rep_cust)
    recency, monetary = _rfm_from_segments(starts, counts, rep_times_abs, rep_values)
    truth = GroundTruth(
        customer_ids=ids,
        lam=lam,
        mu=mu,
        dropout_p=None,
        death_time=death,
        alive=death > ages,
        converted=converted,
        frequency=counts.astype(float),
        recency=recency,
        age=ages,
        monetary_value=monetary,
    )
    if not config.build_log:
        return TransactionLog(), truth
    log = _assemble_log(config, ids, starts, rep_times_abs, rep_cust, first_values, rep_values, rng, window, converted)
    return log, truth


def simulate_bg_nbd_cohort(config: SimConfig) -> tuple[TransactionLog, GroundTruth]:
    """Cohort under the BG/NBD assumptions.

    lambda ~ Gamma(r, rate alpha); after each repeat purchase the customer
    drops out with a personal probability drawn from Beta(a, b). There is
    no dropout opportunity before the first repeat purchase.
    """
    params = config.purchase_model
    if not isinstance(params, BGNBDParams):
        raise DataError("config.purchase_model must be BGNBDParams")
    n = config.n_customers
    rng = np.random.default_rng(config.seed)
    ids = _customer_ids(n)
    starts, ages, converted, lam = _draw_customers(config, rng)
    dropout = rng.beta(params.a, params.b, size=n)

    # Purchases the Poisson process would deliver, then truncation at the
    # dropout count: the k-th repeat purchase kills with probability p.
    poisson_counts = rng.poisson(lam * ages)
    poisson_counts[~converted] = 0
    kill_at = np.where(dropout > 0, rng.geometric(np.clip(dropout, 1e-300, 1.0)), np.iinfo(np.int64).max)
    counts = np.minimum(poisson_counts, kill_at)
    alive = poisson_counts < kill_at

    u_all, cust_all = _sorted_segment_uniforms(rng, poisson_counts)
    starts_seg, _ = _segment_offsets(poisson_counts)
    within = np.arange(len(u_all)) - np.repeat(starts_seg, poisson_counts)
    keep = within < np.repeat(kill_at, poisson_counts)
    rep_cust = cust_all[keep]
    rep_times_abs = starts[rep_cust] + u_all[keep] * ages[rep_cust]

    death = np.full(n, np.inf)
    died = ~alive
    if np.any(died):
        _, kept_ends = _segment_offsets(counts)
        last_time = rep_times_abs[kept_ends[died] - 1] - starts[died]
        death[died] = last_time

    first_values, rep_values = _draw_spend(config, rng, rep_cust)
    recency, monetary = _rfm_from_segments(starts, counts, rep_times_abs, rep_values)
    truth = GroundTruth(
        customer_ids=ids,
        lam=lam,
        mu=None,
        dropout_p=dropout,
        death_time=death,
        alive=alive,
        converted=converted,
        frequency=counts.astype(float),
        recency=recency,
        age=ages,
        monetary_value=monetary,
    )
    if not config.build_log:
        return TransactionLog(), truth
    window = np.where(np.isfinite(death), np.minimum(death, ages), ages)
    log = _assemble_log(config, ids, starts, rep_times_abs, rep_cust, first_values, rep_values, rng, window, converted)
    return log, truth


def simulate_markov_cohort(
    transitions: TransitionMatrix,
    rewards: RewardVector | None,
    n_customers: int,
    n_periods: int,
    seed: int = 0,
    start_state: int = 0,
    reward_sigma: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """(states, cashflows): i.i.d. trajectories of the chain.

    states has shape (n_customers, n_periods); cashflows matches, holding
    the per-period reward of the occupied state plus optional Gaussian
    noise.
    """
    if n_customers < 1 or n_periods < 1:
        raise DataError("need at least one customer and one period")
    p = transitions.matrix
    cum = np.cumsum(p, axis=1)
    rng = np.random.default_rng(seed)
    states = np.empty((n_customers, n_periods), dtype=np.int64)
    states[:, 0] = start_state
    for t in range(1, n_periods):
        u = rng.random(n_customers)
        states[:, t] = (u[:, None] > cum[states[:, t - 1]]).sum(axis=1)
    if rewards is None:
        cash = np.zeros_like(states, dtype=float)
    else:
        cash = rewards.values[states]
        if reward_sigma > 0:
            cash = cash + rng.normal(0.0, reward_sigma, cash.shape)
    return states, cash
