"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with -v to get one pass/fail line per criterion. The heavyweight
criteria print their own timing lines as well.
"""

import csv
import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from f2pclv import artifacts as art
from f2pclv import btyd, cohort, markov, supervised
from f2pclv.btyd import BGNBDParams, GammaGammaParams, ParetoNBDParams
from f2pclv.data import rfm_summary, split_calibration_holdout, summaries_from_arrays
from f2pclv.forest import ForestConfig, fit_random_forest, predict
from f2pclv.markov import (
    RecencyCellTable,
    RewardVector,
    StateSpace,
    TransitionMatrix,
    recency_migration_forecast,
    learn_transition_matrix,
    mcm_clv,
    optimize_promotion_policy,
    recency_chain,
)
from f2pclv.simulate import (
    SimConfig,
    simulate_bg_nbd_cohort,
    simulate_markov_cohort,
    simulate_pareto_nbd_cohort,
)
from f2pclv.supervised import FeatureMatrix, SmoteConfig, extract_features, smote_nc_regression

RECOVERY_TOL = 0.15
RECOVERY_RUNS = 20
RECOVERY_MIN_PASS = 18  # >= 90% of 20 seeded runs
RECOVERY_BUDGET_SECONDS = 300.0


def _within(params, truth, tol=RECOVERY_TOL):
    return all(abs(g - w) / w <= tol for g, w in zip(params, truth))


def test_c01_parameter_recovery_within_budget():
    t0 = time.perf_counter()
    pareto_truth = (0.5, 10.0, 0.6, 12.0)
    bg_truth = (0.4, 8.0, 0.8, 2.5)
    gg_truth = (6.0, 4.0, 15.0)
    wins = {"pareto_nbd": 0, "bg_nbd": 0, "gamma_gamma": 0}
    fit_seconds = dict.fromkeys(wins, 0.0)

    def timed_fit(model, fit_fn, summaries, seed):
        t_fit = time.perf_counter()
        fit = fit_fn(summaries, seed=seed)
        fit_seconds[model] += time.perf_counter() - t_fit
        return fit.params

    for run in range(RECOVERY_RUNS):
        # two observed years: the death process needs a long window before
        # (s, beta) are well determined at this cohort size
        config = SimConfig(
            n_customers=10_000,
            observation_days=730.0,
            purchase_model=ParetoNBDParams(*pareto_truth),
            seed=1000 + run,
            build_log=False,
        )
        _, truth = simulate_pareto_nbd_cohort(config)
        p = timed_fit("pareto_nbd", btyd.fit_pareto_nbd, truth.summaries(), run)
        wins["pareto_nbd"] += _within((p.r, p.alpha, p.s, p.beta), pareto_truth)

        config = SimConfig(
            n_customers=10_000,
            observation_days=365.0,
            purchase_model=BGNBDParams(*bg_truth),
            seed=2000 + run,
            build_log=False,
        )
        _, truth = simulate_bg_nbd_cohort(config)
        p = timed_fit("bg_nbd", btyd.fit_bg_nbd, truth.summaries(), run)
        wins["bg_nbd"] += _within((p.r, p.alpha, p.a, p.b), bg_truth)

        # 10,000 paying customers; a mix of light and heavy purchasers
        # informs both the within-customer spend shape (small x) and the
        # across-customer scale mixture (spread of larger x)
        rng = np.random.default_rng(3000 + run)
        n = 10_000
        x = np.where(rng.random(n) < 0.5, rng.integers(1, 3, n), 1 + rng.poisson(5.0, n)).astype(np.int64)
        nu = rng.gamma(shape=gg_truth[1], scale=1.0 / gg_truth[2], size=n)
        # the mean of x iid Gamma(p, nu) draws is Gamma(p x, nu x)
        m = rng.gamma(shape=gg_truth[0] * x, scale=1.0 / (nu * x))
        summaries = summaries_from_arrays(x, np.ones(n), np.ones(n), m)
        p = timed_fit("gamma_gamma", btyd.fit_gamma_gamma, summaries, run)
        wins["gamma_gamma"] += _within((p.p, p.q, p.gamma), gg_truth)

    elapsed = time.perf_counter() - t0
    timings = ", ".join(f"{model} {seconds:.0f}s" for model, seconds in fit_seconds.items())
    print(f"criterion 1: wins={wins} over {RECOVERY_RUNS} runs, {elapsed:.0f}s (fits: {timings})")
    for model, count in wins.items():
        assert count >= RECOVERY_MIN_PASS, (model, count)
    assert elapsed < RECOVERY_BUDGET_SECONDS, f"{elapsed:.0f}s over budget; fits: {timings}"


def test_c02_bg_nbd_holdout_calibration():
    calibration_days = 26 * 7.0
    holdout_days = 39 * 7.0
    config = SimConfig(
        n_customers=10_000,
        observation_days=calibration_days + holdout_days,
        purchase_model=BGNBDParams(0.4, 8.0, 0.8, 2.5),
        seed=55,
    )
    log, _ = simulate_bg_nbd_cohort(config)
    calibration, holdout = split_calibration_holdout(log, calibration_days)
    summaries = rfm_summary(calibration, calibration_days)
    fit = btyd.fit_bg_nbd(summaries, seed=1)
    x, t_x, T, _ = (np.array(v) for v in zip(*[(s.frequency, s.recency, s.age, s.monetary_value) for s in summaries]))
    predicted = float(np.sum(btyd.expected_transactions(fit.params, x, t_x, T, holdout_days)))
    actual = float(len(holdout.records))
    rel_gap = abs(predicted - actual) / actual
    print(f"criterion 2: predicted={predicted:.0f} actual={actual:.0f} gap={rel_gap:.3%}")
    assert rel_gap < 0.05


def test_c03_bg_nbd_zero_frequency_alive_probability_exact():
    config = SimConfig(
        n_customers=20_000,
        observation_days=180.0,
        purchase_model=BGNBDParams(0.4, 8.0, 0.8, 2.5),
        seed=56,
        build_log=False,
    )
    _, truth = simulate_bg_nbd_cohort(config)
    zero = truth.frequency == 0
    assert zero.sum() > 1000
    probs = np.atleast_1d(
        btyd.p_alive(config.purchase_model, truth.frequency[zero], truth.recency[zero], truth.age[zero])
    )
    assert np.all(probs == 1.0)


def test_c04_basic_clv_matches_closed_form_on_random_grid():
    rng = np.random.default_rng(57)
    for _ in range(1000):
        gc = rng.uniform(0.1, 1000.0)
        m = rng.uniform(0.0, 200.0)
        n = int(rng.integers(0, 120))
        r = rng.uniform(0.0, 1.0)
        d = rng.uniform(0.0, 0.8)
        value = cohort.basic_clv(
            cohort.BasicCLVConfig(gross_margin=gc, promotion_cost=m, n_periods=n, retention=r, discount_rate=d)
        )
        rho = r / (1.0 + d)
        revenue = gc * (n + 1) if rho == 1.0 else gc * (1 - rho ** (n + 1)) / (1 - rho)
        promo = (m * n / np.sqrt(1 + d)) if rho == 1.0 else m * (1 - rho**n) / ((1 - rho) * np.sqrt(1 + d))
        closed = revenue - promo
        assert value == pytest.approx(closed, abs=1e-10 * max(1.0, abs(closed)))
    # exact no-attrition identity
    for n in (0, 1, 7, 100):
        config = cohort.BasicCLVConfig(gross_margin=123.5, promotion_cost=0.0, n_periods=n, retention=1.0, discount_rate=0.0)
        assert cohort.basic_clv(config) == (n + 1) * 123.5


def test_c05_markov_valuation_against_rollout_identity_and_learning():
    # finite horizon vs Monte-Carlo rollout
    space = StateSpace.recency_cells(2)
    transitions = TransitionMatrix(
        space=space,
        matrix=np.array([[0.55, 0.4, 0.05], [0.45, 0.35, 0.2], [0.0, 0.0, 1.0]]),
    )
    rewards = RewardVector(space=space, values=np.array([12.0, 4.0, 0.0]))
    horizon, d = 50, 0.08
    values = mcm_clv(transitions, rewards, d, horizon=horizon)
    discounts = (1.0 + d) ** -np.arange(horizon + 1)
    n_traj = 334_000
    for start in range(3):
        _, cash = simulate_markov_cohort(transitions, rewards, n_traj, horizon + 1, seed=60 + start, start_state=start)
        rollout = float((cash * discounts).sum(axis=1).mean())
        if values[start] == 0.0:
            assert rollout == 0.0
        else:
            assert abs(values[start] - rollout) / abs(values[start]) < 0.01

    # identity chain, infinite horizon: R (1 + d) / d
    ispace = StateSpace.recency_cells(1)
    identity = TransitionMatrix(space=ispace, matrix=np.eye(2))
    flat = RewardVector(space=ispace, values=np.array([10.0, 0.0]))
    value = mcm_clv(identity, flat, 0.1, horizon=None)
    assert value[0] == pytest.approx(110.0, abs=1e-9)

    # transition learning from one million simulated transitions
    periods = 11
    n_customers = 100_000  # 100k trajectories x 10 moves each
    states, _ = simulate_markov_cohort(transitions, None, n_customers, periods, seed=61)
    learned = learn_transition_matrix(list(states), space)
    max_err = float(np.max(np.abs(learned.matrix - transitions.matrix)))
    print(f"criterion 5: max transition error {max_err:.5f} from {n_customers * (periods - 1)} transitions")
    assert max_err < 0.01


def test_c06_migration_forecast_matches_chain_valuation_at_zero_discount():
    table = RecencyCellTable(
        purchase_prob=[0.5, 0.3, 0.15, 0.05], purchase_value=[25.0, 20.0, 12.0, 8.0]
    )
    transitions, rewards = recency_chain(table)
    for start in (1, 2, 3, 4):
        for n_periods in (1, 5, 20, 60):
            forecast = recency_migration_forecast(table, start, n_periods)
            chain = mcm_clv(transitions, rewards, 0.0, horizon=n_periods - 1)
            assert forecast.total == pytest.approx(chain[start - 1], abs=1e-9)


def test_c07_promotion_dp_equals_policy_enumeration():
    space = StateSpace.recency_cells(2)
    matrices = {
        "hold": TransitionMatrix(
            space=space, matrix=np.array([[0.6, 0.35, 0.05], [0.3, 0.4, 0.3], [0, 0, 1.0]])
        ),
        "promo": TransitionMatrix(
            space=space, matrix=np.array([[0.8, 0.18, 0.02], [0.55, 0.3, 0.15], [0, 0, 1.0]])
        ),
    }
    rewards = {
        "hold": RewardVector(space=space, values=np.array([10.0, 3.0, 0.0])),
        "promo": RewardVector(space=space, values=np.array([11.0, 4.0, 0.0])),
    }
    costs = {"hold": 0.0, "promo": 2.5}
    d, horizon = 0.1, 2  # three decision periods
    policy = optimize_promotion_policy(matrices, rewards, costs, d, horizon)

    actions = list(matrices)
    n = space.n_states
    best = None
    for flat in itertools.product(range(len(actions)), repeat=(horizon + 1) * n):
        table = np.array(flat).reshape(horizon + 1, n)
        v = np.zeros(n)
        for t in range(horizon, -1, -1):
            q = np.empty(n)
            for s_i in range(n):
                name = actions[table[t, s_i]]
                q[s_i] = rewards[name].values[s_i] - costs[name] + matrices[name].matrix[s_i] @ v / (1.0 + d)
            v = q
        best = v.copy() if best is None else np.maximum(best, v)
    assert np.array_equal(policy.values, best)


def test_c08_smote_convexity_ratio_and_preservation():
    rng = np.random.default_rng(62)
    n = 1000
    cont = rng.normal(size=(n, 4)) * [3.0, 1.0, 10.0, 0.2]
    cat = rng.integers(0, 3, size=(n, 1)).astype(float)
    values = np.hstack([cont, cat])
    y = np.zeros(n)
    payers = rng.choice(n, size=50, replace=False)
    y[payers] = rng.gamma(2.0, 25.0, size=50)
    features = FeatureMatrix(
        columns=("a", "b", "c", "d", "segment"),
        kinds=("continuous",) * 4 + ("categorical",),
        values=values,
        player_ids=tuple(f"p{i}" for i in range(n)),
    )
    out, y_out, details = smote_nc_regression(
        features, y, SmoteConfig(target_ratio=0.5, k_neighbors=5, seed=7), return_details=True
    )
    # original rows preserved verbatim as a prefix
    assert np.array_equal(out.values[:n], values)
    assert np.array_equal(y_out[:n], y)
    # payer ratio within one row of the request
    ratio = float(np.mean(y_out > 0))
    assert abs(ratio - 0.5) <= 1.0 / len(y_out) + 1e-12
    # every synthetic row: continuous features are a convex combination of
    # two minority rows with one shared recovered coefficient
    for t, detail in enumerate(details):
        row = out.values[n + t]
        seed_row = values[detail.seed_row]
        nb_row = values[detail.neighbor_row]
        assert y[detail.seed_row] > 0 and y[detail.neighbor_row] > 0
        recovered = []
        for col in range(4):
            denom = nb_row[col] - seed_row[col]
            if abs(denom) > 1e-12:
                recovered.append((row[col] - seed_row[col]) / denom)
        assert recovered, "degenerate pair"
        assert max(recovered) - min(recovered) < 1e-9
        u = recovered[0]
        assert -1e-9 <= u <= 1 + 1e-9
        assert u == pytest.approx(detail.coefficient, abs=1e-9)
        expected_y = y[detail.seed_row] + detail.coefficient * (y[detail.neighbor_row] - y[detail.seed_row])
        assert y_out[n + t] == pytest.approx(expected_y, abs=1e-9)


def _simulated_features(n=900, seed=63):
    config = SimConfig(
        n_customers=n,
        observation_days=120.0,
        purchase_model=ParetoNBDParams(0.35, 12.0, 0.7, 10.0),
        spend_model=GammaGammaParams(6.0, 4.0, 15.0),
        sessions_per_day=0.5,
        rounds_per_session=2.0,
        seed=seed,
    )
    log, _ = simulate_pareto_nbd_cohort(config)
    return extract_features(log, window=7.0, target_horizon=110.0, observation_end=120.0)


def test_c09_forest_memorization_baseline_and_nrmse_protocol():
    # single unlimited tree memorizes distinct rows exactly
    rng = np.random.default_rng(64)
    x = rng.uniform(size=(150, 5))
    y = rng.gamma(2.0, 10.0, 150)
    lone = fit_random_forest(
        x, y, ForestConfig(n_trees=1, max_depth=None, min_samples_leaf=1, bootstrap=False, features_per_split="all", seed=1)
    )
    assert float(np.mean((predict(lone, x) - y) ** 2)) == 0.0

    # 100-tree forest beats the global-mean baseline on simulated payer data
    dataset = _simulated_features()
    x, y = dataset.features.values, dataset.targets
    rng = np.random.default_rng(65)
    order = rng.permutation(len(y))
    cut = int(0.7 * len(y))
    train, test = order[:cut], order[cut:]
    forest = fit_random_forest(
        x[train], y[train], ForestConfig(n_trees=100, max_depth=10, min_samples_leaf=5, seed=2)
    )
    forest_mse = float(np.mean((predict(forest, x[test]) - y[test]) ** 2))
    baseline_mse = float(np.mean((y[train].mean() - y[test]) ** 2))
    print(f"criterion 9: forest mse={forest_mse:.2f} baseline mse={baseline_mse:.2f}")
    assert forest_mse < baseline_mse

    # 10-fold evaluation reports NRMSE per fold
    metrics = supervised.evaluate(
        lambda: supervised.ForestRegressor(ForestConfig(n_trees=20, max_depth=8, min_samples_leaf=5, seed=3)),
        x, y, k=10, seed=4,
    )
    assert len(metrics.folds) == 10
    assert all(fm.nrmse is not None for fm in metrics.folds)
    assert metrics.nrmse == pytest.approx(np.mean([fm.nrmse for fm in metrics.folds]))


def test_c10_persistence_round_trip_bit_for_bit(tmp_path):
    grid_days = np.linspace(0.0, 400.0, 201)

    def round_trip(kind, model, fit_info=None):
        path = tmp_path / f"{kind}.json"
        art.save_artifact(
            art.ModelArtifact(model_kind=kind, parameters=art.model_to_parameters(kind, model, fit_info)),
            path,
        )
        return art.model_from_artifact(art.load_artifact(path))

    # basic
    config = cohort.BasicCLVConfig(gross_margin=80.0, promotion_cost=12.0, n_periods=9, retention=0.83, discount_rate=0.07)
    loaded = round_trip("basic", config)
    assert cohort.basic_clv(loaded) == cohort.basic_clv(config)

    # retention / monetization
    points = [(float(i), float(np.exp(-0.08 * i))) for i in range(40)]
    curve = cohort.fit_retention_curve(points, "exponential")
    loaded = round_trip("retention", curve)
    assert np.array_equal(loaded.ret(grid_days), curve.ret(grid_days))
    km = cohort.kaplan_meier([(3.0, False), (5.0, True), (9.0, False), (11.0, True)])
    loaded = round_trip("retention", km)
    assert np.array_equal(loaded.ret(grid_days), km.ret(grid_days))
    mon = cohort.fit_monetization_curve([(2.0, 0.3), (10.0, 0.8), (30.0, 1.0)])
    loaded = round_trip("monetization", mon)
    assert np.array_equal(loaded.mon(grid_days), mon.mon(grid_days))

    # purchase-process and spend models: fit, persist, compare predictions
    pconfig = SimConfig(
        n_customers=1500,
        observation_days=180.0,
        purchase_model=ParetoNBDParams(0.5, 10.0, 0.6, 12.0),
        spend_model=GammaGammaParams(6.0, 4.0, 15.0),
        seed=66,
        build_log=False,
    )
    _, truth = simulate_pareto_nbd_cohort(pconfig)
    summaries = truth.summaries()
    x, t_x, T, m = (np.array(v) for v in zip(*[(s.frequency, s.recency, s.age, s.monetary_value) for s in summaries]))

    fit = btyd.fit_pareto_nbd(summaries, seed=1)
    loaded = round_trip("pareto_nbd", fit.params, {"nll": fit.nll})
    assert loaded == fit.params
    assert np.array_equal(
        np.atleast_1d(btyd.expected_transactions(loaded, x, t_x, T, 90.0)),
        np.atleast_1d(btyd.expected_transactions(fit.params, x, t_x, T, 90.0)),
    )
    assert np.array_equal(
        np.atleast_1d(btyd.p_alive(loaded, x, t_x, T)),
        np.atleast_1d(btyd.p_alive(fit.params, x, t_x, T)),
    )

    bconfig = SimConfig(
        n_customers=1500,
        observation_days=180.0,
        purchase_model=BGNBDParams(0.4, 8.0, 0.8, 2.5),
        spend_model=GammaGammaParams(6.0, 4.0, 15.0),
        seed=67,
        build_log=False,
    )
    _, btruth = simulate_bg_nbd_cohort(bconfig)
    bsummaries = btruth.summaries()
    bx, bt_x, bT, bm = (np.array(v) for v in zip(*[(s.frequency, s.recency, s.age, s.monetary_value) for s in bsummaries]))
    bfit = btyd.fit_bg_nbd(bsummaries, seed=1)
    loaded = round_trip("bg_nbd", bfit.params)
    assert np.array_equal(
        np.atleast_1d(btyd.expected_transactions(loaded, bx, bt_x, bT, 90.0)),
        np.atleast_1d(btyd.expected_transactions(bfit.params, bx, bt_x, bT, 90.0)),
    )

    payers = [s for s in bsummaries if s.frequency > 0 and s.monetary_value > 0]
    gfit = btyd.fit_gamma_gamma(payers, seed=1)
    loaded = round_trip("gamma_gamma", gfit.params)
    assert np.array_equal(
        np.atleast_1d(btyd.conditional_expected_value(loaded, bx, bm)),
        np.atleast_1d(btyd.conditional_expected_value(gfit.params, bx, bm)),
    )

    # markov
    space = StateSpace.recency_cells(3)
    transitions = TransitionMatrix(
        space=space,
        matrix=np.array(
            [[0.5, 0.4, 0.0, 0.1], [0.35, 0.2, 0.4, 0.05], [0.25, 0.0, 0.3, 0.45], [0, 0, 0, 1.0]]
        ),
    )
    rewards = RewardVector(space=space, values=np.array([9.0, 4.0, 1.5, 0.0]))
    loaded_t, loaded_r = round_trip("markov", (transitions, rewards))
    assert np.array_equal(
        mcm_clv(loaded_t, loaded_r, 0.05, horizon=40), mcm_clv(transitions, rewards, 0.05, horizon=40)
    )

    # forest and three-stage
    dataset = _simulated_features(n=400, seed=68)
    fx, fy = dataset.features.values, dataset.targets
    forest = fit_random_forest(fx, fy, ForestConfig(n_trees=15, max_depth=7, min_samples_leaf=4, seed=5))
    loaded = round_trip("forest", forest)
    assert np.array_equal(predict(loaded, fx), predict(forest, fx))

    stage = supervised.fit_three_stage(
        fx, fy, purchase_counts=dataset.purchase_counts,
        config=ForestConfig(n_trees=10, max_depth=7, min_samples_leaf=4, seed=6),
    )
    loaded = round_trip("three_stage", stage)
    assert np.array_equal(
        supervised.predict_three_stage(loaded, fx), supervised.predict_three_stage(stage, fx)
    )


def test_c11_end_to_end_cli_demo(tmp_path):
    # the subprocesses import the package under test, not whatever else is on the path
    src = str(Path(art.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*args):
        result = subprocess.run(
            [sys.executable, "-m", "f2pclv.cli", *args],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    t0 = time.perf_counter()
    calibration_days = 182.0
    run(
        "simulate", "--model", "bg_nbd", "--n-customers", "2500", "--days", "270",
        "--params", "r=0.4,alpha=8,a=0.8,b=2.5", "--spend", "p=6,q=4,gamma=15",
        "--sessions-per-day", "0.5", "--rounds-per-session", "2", "--seed", "77",
        "--out-dir", str(tmp_path / "sim"),
    )
    run(
        "ingest", "--transactions", str(tmp_path / "sim" / "transactions.csv"),
        "--events", str(tmp_path / "sim" / "events.csv"), "--out-dir", str(tmp_path / "clean"),
    )
    run(
        "split", "--transactions", str(tmp_path / "clean" / "transactions.csv"),
        "--cutoff", str(calibration_days), "--out-dir", str(tmp_path / "split"),
    )
    run(
        "summarize", "--transactions", str(tmp_path / "split" / "calibration_transactions.csv"),
        "--observation-end", str(calibration_days), "--out", str(tmp_path / "summaries.csv"),
    )
    run(
        "summarize", "--kind", "features", "--transactions", str(tmp_path / "clean" / "transactions.csv"),
        "--events", str(tmp_path / "clean" / "events.csv"), "--window", "7", "--horizon", "200",
        "--out", str(tmp_path / "features.csv"),
    )
    run(
        "summarize", "--kind", "retention", "--transactions", str(tmp_path / "clean" / "transactions.csv"),
        "--events", str(tmp_path / "clean" / "events.csv"), "--days", "60",
        "--out", str(tmp_path / "retention.csv"),
    )
    run(
        "summarize", "--kind", "monetization", "--transactions", str(tmp_path / "clean" / "transactions.csv"),
        "--days", "180", "--out", str(tmp_path / "monetization.csv"),
    )
    # fit every model family
    run("fit", "--model", "bg_nbd", "--input", str(tmp_path / "summaries.csv"), "--out", str(tmp_path / "bg.json"))
    run("fit", "--model", "pareto_nbd", "--input", str(tmp_path / "summaries.csv"), "--out", str(tmp_path / "pareto.json"))
    run(
        "fit", "--model", "gamma_gamma", "--input", str(tmp_path / "summaries.csv"), "--payers-only",
        "--out", str(tmp_path / "gg.json"),
    )
    run("fit", "--model", "retention", "--input", str(tmp_path / "retention.csv"), "--family", "power_law", "--out", str(tmp_path / "ret.json"))
    run("fit", "--model", "monetization", "--input", str(tmp_path / "monetization.csv"), "--out", str(tmp_path / "mon.json"))
    run(
        "fit", "--model", "basic", "--gc", "30", "--promotion", "5", "--retention", "0.85",
        "--discount-rate", "0.05", "--periods", "12", "--out", str(tmp_path / "basic.json"),
    )
    run(
        "fit", "--model", "markov", "--input", str(tmp_path / "clean" / "transactions.csv"),
        "--period-days", "14", "--recency-cells", "4", "--out", str(tmp_path / "markov.json"),
    )
    run(
        "fit", "--model", "forest", "--input", str(tmp_path / "features.csv"),
        "--n-trees", "100", "--max-depth", "10", "--min-leaf", "5", "--out", str(tmp_path / "forest.json"),
    )
    run(
        "fit", "--model", "three_stage", "--input", str(tmp_path / "features.csv"),
        "--n-trees", "50", "--max-depth", "10", "--min-leaf", "5", "--out", str(tmp_path / "stage.json"),
    )
    run(
        "predict", "--artifact", str(tmp_path / "bg.json"), "--spend-artifact", str(tmp_path / "gg.json"),
        "--input", str(tmp_path / "summaries.csv"), "--horizon", "88", "--discount-rate", "0.01",
        "--out", str(tmp_path / "predictions.csv"),
    )
    run(
        "segment", "--summaries", str(tmp_path / "summaries.csv"),
        "--artifact", str(tmp_path / "bg.json"), "--spend-artifact", str(tmp_path / "gg.json"),
        "--holdout", str(tmp_path / "split" / "holdout_transactions.csv"),
        "--horizon", "88", "--discount-rate", "0.01", "--out-dir", str(tmp_path / "segments"),
    )
    elapsed = time.perf_counter() - t0
    print(f"criterion 11: end-to-end demo in {elapsed:.1f}s")
    assert elapsed < 120.0

    with open(tmp_path / "segments" / "segments.csv") as fh:
        rows = {int(r["segment"]): r for r in csv.DictReader(fh)}
    top = float(rows[5]["mean_holdout_value"])
    bottom = float(rows[1]["mean_holdout_value"])
    print(f"criterion 11: top quintile holdout {top:.2f} vs bottom {bottom:.2f}")
    assert top > bottom
