"""The benchmark's workloads: seeded inputs and one round of timed work each.

A round reports two timed stages, each as work items, seconds and the
machine's slowdown measured by the speed probe over that stage. Correctness
checks run after the timed stages, with tracing paused, and record into the
ledger; they never count toward a stage's time.

Every library call goes through a module attribute (``btyd.p_alive``, not a
name imported from ``btyd``), so the traced run's wrappers see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import calibrate
import checks


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed for one generator input, fixed by the run seed and keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)


@dataclass
class Stage:
    items: float
    seconds: float
    slowdown: float

    @classmethod
    def between(cls, items, start: calibrate.Mark, end: calibrate.Mark) -> "Stage":
        return cls(items, *calibrate.stage(start, end))

    @property
    def raw_rate(self) -> float:
        return self.items / self.seconds

    @property
    def rate(self) -> float:
        """Items per second at the probe's reference machine speed."""
        return self.raw_rate * self.slowdown

    @property
    def adjusted_seconds(self) -> float:
        return self.seconds / self.slowdown


def total_rate(stages) -> float:
    """All items over all speed-adjusted seconds of the given stages."""
    stages = list(stages)
    return sum(s.items for s in stages) / sum(s.adjusted_seconds for s in stages)


@dataclass
class RoundResult:
    stage1: Stage
    stage2: Stage
    # figures for the report: name -> value
    figures: dict = field(default_factory=dict)
    # per-request latencies in nanoseconds, where the workload has requests
    latencies_ns: list = field(default_factory=list)


def _model_params(btyd):
    """Generating parameters of the simulated cohorts, and the fixed parameters
    btyd_score scores with (Pareto/NBD, BG/NBD, gamma-gamma)."""
    return (
        btyd.ParetoNBDParams(0.5, 10.0, 0.6, 12.0),
        btyd.BGNBDParams(0.4, 8.0, 0.8, 2.5),
        btyd.GammaGammaParams(6.0, 4.0, 15.0),
    )


class _Mean:
    """Constant predictor of the training-fold mean, the NRMSE baseline."""

    def fit(self, x, y):
        self.value = float(np.mean(y))
        return self

    def predict(self, x):
        return np.full(len(x), self.value)


# ---------------------------------------------------------------------------


class BtydFit:
    """Fit Pareto/NBD, BG/NBD and gamma-gamma to simulated 5k-customer cohorts.

    Round i fits cohort pair i. Stage 1 is the Pareto/NBD fit of the Pareto
    cohort, stage 2 the BG/NBD fit of the BG cohort plus the gamma-gamma fit
    of both cohorts' repeat customers; each counts its cohort's customers, so
    a stage's rate is whole fits per second, evaluation count included. The
    untraced run always fits all n_inputs pairs (``rounds``), because the
    evaluation count varies by cohort by several percent and a fixed set of
    cohorts per seed averages that out.
    """

    name = "btyd_fit"
    n_customers = 5000
    n_inputs = 3
    rounds = n_inputs
    pareto_days = 730.0
    bg_days = 365.0

    def __init__(self, lib, seed: int, workdir):
        self.lib = lib
        self.seed = seed
        self.pareto, self.bg, self.spend = _model_params(lib.btyd)
        self.inputs = []

    def setup(self) -> None:
        sim = self.lib.simulate
        self.inputs = []
        for k in range(self.n_inputs):
            _, pareto = sim.simulate_pareto_nbd_cohort(sim.SimConfig(
                self.n_customers, self.pareto_days, self.pareto, self.spend,
                seed=derive_seed(self.seed, 1, k), build_log=False,
            ))
            _, bg = sim.simulate_bg_nbd_cohort(sim.SimConfig(
                self.n_customers, self.bg_days, self.bg, self.spend,
                seed=derive_seed(self.seed, 2, k), build_log=False,
            ))
            ps, bs = pareto.summaries(), bg.summaries()
            repeaters = [s for s in ps + bs if s.frequency > 0]
            self.inputs.append((ps, bs, repeaters))

    def run_round(self, index: int, ledger: Ledger, tracer, probe) -> RoundResult:
        btyd = self.lib.btyd
        ps, bs, repeaters = self.inputs[index % self.n_inputs]
        m0 = probe.mark()
        fp = btyd.fit_pareto_nbd(ps)
        m1 = probe.mark()
        fb = btyd.fit_bg_nbd(bs)
        fg = btyd.fit_gamma_gamma(repeaters)
        m2 = probe.mark()
        with tracer.paused():
            data = self.lib.data
            x, t_x, T, _ = data.summary_arrays(ps)
            nll_p = -float(np.sum(btyd.pareto_nbd_loglik(self.pareto, x, t_x, T)))
            x, t_x, T, _ = data.summary_arrays(bs)
            nll_b = -float(np.sum(btyd.bg_nbd_loglik(self.bg, x, t_x, T)))
            x, _, _, m = data.summary_arrays(repeaters)
            nll_g = -float(np.sum(btyd.gamma_gamma_loglik(self.spend, x, m)))
        ledger.record("pareto_nbd fit", checks.check_fit(fp, self.pareto, nll_p))
        ledger.record("bg_nbd fit", checks.check_fit(fb, self.bg, nll_b))
        ledger.record("gamma_gamma fit", checks.check_fit(fg, self.spend, nll_g))
        rel_err = max(
            checks.max_rel_err(f.params, p)
            for f, p in ((fp, self.pareto), (fb, self.bg), (fg, self.spend))
        )
        stage1 = Stage.between(len(ps), m0, m1)
        stage2 = Stage.between(len(bs), m1, m2)
        return RoundResult(
            stage1, stage2, figures={"fit_s": stage1.seconds + stage2.seconds, "fit_param_rel_err": rel_err}
        )


class BtydScore:
    """Score a 200k-customer cohort in batch, then serve single customers.

    Stage 1 scores the whole cohort under both families in a few large calls
    (customers per second); stage 2 is a closed loop with one client sending
    BG/NBD + gamma-gamma requests for one customer at a time, back to back
    (requests per second). Parameters are fixed values standing in for a
    fitted model, so no fitting happens here.
    """

    name = "btyd_score"
    rounds = None  # repeat until --seconds is up
    n_customers = 200_000
    n_requests = 1000
    horizon = 90.0
    clv_horizon = 84.0
    clv_period = 7.0
    discount = 0.01

    def __init__(self, lib, seed: int, workdir):
        self.lib = lib
        self.seed = seed
        self.pareto, self.bg, self.spend = _model_params(lib.btyd)
        self.summaries = []

    def setup(self) -> None:
        sim = self.lib.simulate
        # customers acquired over most of a year, observed 30 days after the
        # last acquisition, so ages run from 30 to 365 days
        _, truth = sim.simulate_pareto_nbd_cohort(sim.SimConfig(
            self.n_customers, 30.0, self.pareto, self.spend, start_spread_days=335.0,
            seed=derive_seed(self.seed, 3), build_log=False,
        ))
        self.summaries = truth.summaries()

    def _score_batch(self, params):
        btyd, data = self.lib.btyd, self.lib.data
        x, t_x, T, _ = data.summary_arrays(self.summaries)
        pa = btyd.p_alive(params, x, t_x, T)
        et = btyd.expected_transactions(params, x, t_x, T, self.horizon)
        clv = btyd.discounted_clv(
            params, self.spend, self.summaries, self.clv_horizon, self.discount, self.clv_period
        )
        return pa, et, clv

    def run_round(self, index: int, ledger: Ledger, tracer, probe) -> RoundResult:
        btyd = self.lib.btyd
        picks = np.random.default_rng(derive_seed(self.seed, 4, index)).integers(
            0, len(self.summaries), self.n_requests
        )
        m0 = probe.mark()
        with tracer.span("bench.batch", new_op=True):
            pareto_scores = self._score_batch(self.pareto)
            bg_scores = self._score_batch(self.bg)
        m1 = probe.mark()
        latencies, online = [], []
        for i in picks:
            s = self.summaries[i]
            with tracer.span("bench.request", new_op=True):
                a = probe.mark()
                pa = btyd.p_alive(self.bg, s.frequency, s.recency, s.age)
                et = btyd.expected_transactions(self.bg, s.frequency, s.recency, s.age, self.horizon)
                clv = btyd.discounted_clv(
                    self.bg, self.spend, [s], self.clv_horizon, self.discount, self.clv_period
                )
                b = probe.mark()
            latencies.append(int((b.t - a.t) * 1e9) - (b.probe_ns - a.probe_ns))
            online.append((pa, et, clv[0]))
        m2 = probe.mark()
        ledger.record("batch pareto_nbd", checks.check_scores("pareto_nbd", *pareto_scores))
        ledger.record("batch bg_nbd", checks.check_scores("bg_nbd", *bg_scores))
        for i, values in zip(picks, online):
            problems = checks.check_scores("online", *([v] for v in values))
            for label, got, batch in zip(("p_alive", "expected", "clv"), values, bg_scores):
                problems += checks.check_same_score(f"customer {i} {label}", float(got), float(batch[i]))
            ledger.record("online request", problems)
        return RoundResult(
            Stage.between(len(self.summaries), m0, m1),
            Stage.between(len(picks), m1, m2),
            latencies_ns=latencies,
        )


class LogPipeline:
    """The CLI's ingest-to-model chain over a simulated gameplay log.

    Stage 1 ingests: it parses the raw transaction and event CSVs and writes
    normalized copies. Stage 2 runs everything after, on the parsed log:
    split, RFM, segmentation, cohort curves, Markov valuation, supervised
    features, SMOTE, the three-stage forest and its k-fold evaluation, and the
    artifact round trip. Both stages count log rows per second.
    """

    name = "log_pipeline"
    rounds = None  # repeat until --seconds is up
    n_players = 6000
    observation_days = 180.0
    spread_days = 90.0
    holdout_days = 60.0
    folds = 5

    def __init__(self, lib, seed: int, workdir):
        self.lib = lib
        self.seed = seed
        self.dir = workdir
        self.pareto, _, self.spend = _model_params(lib.btyd)
        self.forest = lib.forest.ForestConfig(
            n_trees=30, max_depth=8, min_samples_leaf=5, seed=derive_seed(seed, 6)
        )

    def setup(self) -> None:
        sim, data = self.lib.simulate, self.lib.data
        config = sim.SimConfig(
            self.n_players, self.observation_days, self.pareto, self.spend,
            sessions_per_day=0.36, rounds_per_session=3.0,
            start_spread_days=self.spread_days, conversion_rate=0.2,
            seed=derive_seed(self.seed, 5),
        )
        log, truth = sim.simulate_pareto_nbd_cohort(config)
        data.write_transaction_csv(log, self.dir / "raw_transactions.csv")
        data.write_event_csv(log, self.dir / "raw_events.csv")
        self.observation_end = config.observation_end
        self.n_records, self.n_events = len(log.records), len(log.events)
        self.truth_summaries = truth.summaries()

    def run_round(self, index: int, ledger: Ledger, tracer, probe) -> RoundResult:
        lib = self.lib
        data, cohort, markov, sup, art = lib.data, lib.cohort, lib.markov, lib.supervised, lib.artifacts
        d = self.dir
        m0 = probe.mark()
        with tracer.span("bench.ingest", new_op=True):
            with open(d / "raw_transactions.csv") as fh:
                tx = data.parse_transaction_log(fh)
            with open(d / "raw_events.csv") as fh:
                ev = data.parse_event_log(fh)
            data.write_transaction_csv(tx.log, d / "transactions.csv")
            data.write_event_csv(ev.log, d / "events.csv")
            log = data.TransactionLog(records=tx.log.records, events=ev.log.events)
        m1 = probe.mark()
        with tracer.span("bench.model", new_op=True):
            cutoff = self.observation_end - self.holdout_days
            calibration, _ = data.split_calibration_holdout(log, cutoff)
            summaries = data.rfm_summary(calibration, cutoff)
            data.rfm_quintile_scores(summaries)
            data.weighted_rfm_rank(summaries, (0.34, 0.33, 0.33))

            retention = cohort.fit_retention_curve(data.daily_active_fractions(log, 60), "power_law")
            monetization = cohort.fit_monetization_curve(data.cumulative_revenue_fractions(log, 60))
            revenue = sum(r.value for r in log.records)
            cohort.retention_clv(revenue / (self.n_players * self.observation_days), retention, 180)
            for s in summaries:
                cohort.monetization_clv(s.frequency * s.monetary_value, monetization, min(s.age, 59.0))

            _, histories = markov.histories_from_log(calibration, 7.0)
            space = markov.StateSpace.recency_cells(4)
            states = markov.discretize_states([h > 0 for h in histories], space)
            chain = markov.learn_transition_matrix(states, space)
            rewards = markov.estimate_state_rewards(states, histories, space)
            state_values = markov.mcm_clv(chain, rewards, 0.01)
            markov.mcm_clv(chain, rewards, 0.01, 26)
            markov.learn_recency_cell_table(histories, 4)

            dataset = sup.extract_features(log, 7.0, 90.0, observation_end=self.observation_end)
            x, y = dataset.features.values, dataset.targets
            resampled, y_resampled = sup.smote_nc_regression(
                dataset.features, y, sup.SmoteConfig(target_ratio=0.3, seed=derive_seed(self.seed, 7))
            )
            model = sup.fit_three_stage(resampled.values, y_resampled, config=self.forest)
            predictions = sup.predict_three_stage(model, x)
            cv = sup.evaluate(lambda: sup.ThreeStageRegressor(self.forest), x, y, k=self.folds, seed=self.seed)

            metadata = art.build_metadata(seed=self.seed)
            for kind, obj, path in (("three_stage", model, d / "three_stage.json"), ("markov", (chain, rewards), d / "markov.json")):
                params = art.model_to_parameters(kind, obj)
                art.save_artifact(art.ModelArtifact(model_kind=kind, parameters=params, metadata=metadata), path)
            reloaded = art.model_from_artifact(art.load_artifact(d / "three_stage.json"))
            reloaded_chain, reloaded_rewards = art.model_from_artifact(art.load_artifact(d / "markov.json"))
        m2 = probe.mark()

        ledger.record("ingest transactions", checks.check_ingest(tx, self.n_records, len(tx.log.records)))
        ledger.record("ingest events", checks.check_ingest(ev, self.n_events, len(ev.log.events)))
        with tracer.paused():
            full = data.rfm_summary(log, self.observation_end)
            again = sup.predict_three_stage(reloaded, x)
            values_again = markov.mcm_clv(reloaded_chain, reloaded_rewards, 0.01)
            baseline = sup.evaluate(_Mean, x, y, k=self.folds, seed=self.seed)
        ledger.record("rfm summaries", checks.check_rfm_matches_truth(full, self.truth_summaries))
        ledger.record(
            "artifact reload",
            checks.check_identical("three_stage", predictions, again)
            + checks.check_identical("markov", state_values, values_again),
        )
        ledger.record("cross-validation", checks.check_beats_baseline(cv.nrmse, baseline.nrmse))
        rows = tx.total_rows + ev.total_rows
        stage1, stage2 = Stage.between(rows, m0, m1), Stage.between(rows, m1, m2)
        return RoundResult(
            stage1, stage2, figures={"pipeline_s": stage1.seconds + stage2.seconds, "cv_nrmse": cv.nrmse}
        )


WORKLOADS = {w.name: w for w in (BtydFit, BtydScore, LogPipeline)}
