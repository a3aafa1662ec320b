"""Feature extraction, regression SMOTE-NC, three-stage composite, k-fold."""

import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

from f2pclv import artifacts as art
from f2pclv.btyd import GammaGammaParams, ParetoNBDParams
from f2pclv.data import GameEvent, Transaction, TransactionLog
from f2pclv.errors import DataError
from f2pclv.forest import ForestConfig, fit_random_forest
from f2pclv.forest import predict as forest_predict
from f2pclv.simulate import SimConfig, simulate_pareto_nbd_cohort
from f2pclv.supervised import (
    FEATURE_COLUMNS,
    ExtractedDataset,
    FeatureMatrix,
    ForestRegressor,
    SmoteConfig,
    evaluate,
    extract_features,
    fit_three_stage,
    predict_three_stage,
    read_feature_csv,
    smote_nc_regression,
    write_feature_csv,
)
from f2pclv.supervised import _nearest, _neighbor_distances


class TestExtractFeatures:
    def test_hand_counted_example(self):
        records = [
            Transaction("p1", 1.0, 3.0),
            Transaction("p1", 5.0, 7.0),
            Transaction("p1", 40.0, 10.0),
        ]
        events = [
            GameEvent("p1", 0.0, "session_start"),
            GameEvent("p1", 2.0, "session_start"),
            GameEvent("p1", 0.1, "round_played"),
            GameEvent("p1", 0.2, "round_played"),
            GameEvent("p1", 2.1, "round_played"),
            GameEvent("p1", 2.2, "round_played"),
            GameEvent("p1", 6.5, "round_played"),
        ]
        log = TransactionLog(records=records, events=events).sorted()
        dataset = extract_features(log, window=7.0, target_horizon=180.0, observation_end=200.0)
        row = dict(zip(dataset.features.columns, dataset.features.values[0]))
        assert row["number_of_sessions"] == 2
        assert row["number_of_rounds"] == 5
        assert row["number_of_purchases"] == 2
        assert row["total_purchase_amount"] == 10.0
        assert row["number_of_days"] == 5  # activity on days 0, 1, 2, 5, 6
        assert dataset.targets[0] == 20.0
        assert dataset.purchase_counts[0] == 3

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["window", "target_horizon", "observation_end"])
    def test_non_finite_windows_are_rejected(self, name, value):
        log = TransactionLog(records=[Transaction("p", 0.0, 1.0), Transaction("p", 10.0, 2.0)])
        kwargs = {"window": 7.0, "target_horizon": 30.0, "observation_end": 60.0, name: value}
        with pytest.raises(DataError, match=f"{name} must be finite, got {value}"):
            extract_features(log, **kwargs)

    def test_amount_and_target_add_in_log_order(self):
        # In log order the three early purchases sum to (1e16 + 1) - 1e16 = 0;
        # in time order they would sum to 1.
        records = [
            Transaction("p", 0.0, 1e16),
            Transaction("p", 0.5, 1.0),
            Transaction("p", 0.25, -1e16),
            Transaction("p", 10.0, 2.0),
        ]
        dataset = extract_features(TransactionLog(records=records), window=7.0, target_horizon=30.0, observation_end=60.0)
        row = dict(zip(dataset.features.columns, dataset.features.values[0]))
        assert row["total_purchase_amount"] == 0.0
        assert row["number_of_purchases"] == 3
        assert dataset.targets[0] == 2.0
        assert dataset.purchase_counts[0] == 4

    def test_never_paying_player_gets_zero_target(self):
        log = TransactionLog(events=[GameEvent("p", 0.0, "session_start")])
        dataset = extract_features(log, window=7.0, target_horizon=30.0, observation_end=60.0)
        assert dataset.targets[0] == 0.0
        assert dataset.features.values[0][3] == 0.0

    def test_truncated_window_players_excluded_and_counted(self):
        events = [
            GameEvent("old", 0.0, "session_start"),
            GameEvent("late", 58.0, "session_start"),
        ]
        dataset = extract_features(
            TransactionLog(events=events), window=7.0, target_horizon=30.0, observation_end=60.0
        )
        assert dataset.features.player_ids == ("old",)
        assert dataset.n_excluded == 1

    def test_simulated_counters_match_recount(self):
        config = SimConfig(
            n_customers=300,
            observation_days=60.0,
            purchase_model=ParetoNBDParams(0.8, 6.0, 0.6, 14.0),
            spend_model=GammaGammaParams(6.0, 4.0, 15.0),
            sessions_per_day=0.6,
            rounds_per_session=3.0,
            seed=31,
        )
        log, _ = simulate_pareto_nbd_cohort(config)
        dataset = extract_features(log, window=7.0, target_horizon=50.0, observation_end=60.0)
        idx = {pid: i for i, pid in enumerate(dataset.features.player_ids)}
        # independent recount straight off the log
        first = {}
        for e in log.events:
            first[e.customer_id] = min(first.get(e.customer_id, np.inf), e.timestamp)
        for r in log.records:
            first[r.customer_id] = min(first.get(r.customer_id, np.inf), r.timestamp)
        sessions = {pid: 0 for pid in idx}
        purchases = {pid: 0 for pid in idx}
        for e in log.events:
            if e.kind == "session_start" and e.customer_id in idx and 0 <= e.timestamp - first[e.customer_id] < 7.0:
                sessions[e.customer_id] += 1
        for r in log.records:
            if r.customer_id in idx and 0 <= r.timestamp - first[r.customer_id] < 7.0:
                purchases[r.customer_id] += 1
        for pid, i in idx.items():
            assert dataset.features.values[i][0] == sessions[pid]
            assert dataset.features.values[i][3] == purchases[pid]


def _mixed_features(n, seed, payer_rate=0.1):
    rng = np.random.default_rng(seed)
    cont = rng.normal(size=(n, 3)) * [2.0, 5.0, 0.5] + [10.0, 0.0, 3.0]
    cat = rng.integers(0, 3, size=(n, 1)).astype(float)
    values = np.hstack([cont, cat])
    y = np.where(rng.random(n) < payer_rate, rng.gamma(2.0, 20.0, n), 0.0)
    fm = FeatureMatrix(
        columns=("a", "b", "c", "segment"),
        kinds=("continuous", "continuous", "continuous", "categorical"),
        values=values,
        player_ids=tuple(f"p{i}" for i in range(n)),
    )
    return fm, y


class TestFeatureCsv:
    def test_round_trip_with_comma_and_quote_in_ids(self, tmp_path):
        values = np.array([[1.0, 2.0, 1.0, 0.0, 0.0], [3.0, 5.0, 2.0, 1.0, 4.5]])
        dataset = ExtractedDataset(
            features=FeatureMatrix(FEATURE_COLUMNS, ("continuous",) * 5, values, ("p,1", 'q"2')),
            targets=np.array([0.0, 12.25]),
            purchase_counts=np.array([0.0, 3.0]),
            n_excluded=0,
        )
        path = tmp_path / "features.csv"
        write_feature_csv(dataset, path)
        back = read_feature_csv(path)
        assert back.features.player_ids == ("p,1", 'q"2')
        assert np.array_equal(back.features.values, values)
        assert np.array_equal(back.targets, dataset.targets)
        assert np.array_equal(back.purchase_counts, dataset.purchase_counts)

        # A file without the future_purchases column reads as zero counts.
        no_counts = tmp_path / "no_counts.csv"
        with open(no_counts, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("player_id",) + FEATURE_COLUMNS + ("future_revenue",))
            w.writerows([pid, *row, y] for pid, row, y in zip(("p,1", 'q"2'), values, dataset.targets))
        back = read_feature_csv(no_counts)
        assert back.features.player_ids == ("p,1", 'q"2')
        assert np.array_equal(back.features.values, values)
        assert np.array_equal(back.targets, dataset.targets)
        assert np.array_equal(back.purchase_counts, np.zeros(2))

    def test_bad_purchase_count_cell_is_not_read_as_zero(self, tmp_path):
        # the header, not a failed read, decides whether counts default to 0
        path = tmp_path / "features.csv"
        path.write_text(
            ",".join(("player_id",) + FEATURE_COLUMNS + ("future_revenue", "future_purchases"))
            + "\np1,1.0,2.0,1.0,0.0,0.0,0.0,0.0\np2,3.0,5.0,2.0,1.0,4.5,12.25,many\n"
        )
        with pytest.raises(DataError, match="malformed cell"):
            read_feature_csv(path)


class TestSmote:
    @pytest.mark.parametrize("n_features", [1, 5, 7, 8, 12])
    def test_neighbor_distances_equal_the_difference_tensor(self, n_features):
        # Below 8 features NumPy's sum over the last axis adds in feature
        # order, as the per-feature loop does; from 8 on it adds eight
        # partial sums, which can round differently in the last bits.
        rng = np.random.default_rng(n_features)
        z = rng.standard_normal((60, n_features)) * rng.uniform(0.1, 100.0, n_features)
        cat = rng.integers(0, 3, (60, 2))
        mismatches = (cat[:, None, :] != cat[None, :, :]).sum(axis=2)
        reference = np.sum((z[:, None, :] - z[None, :, :]) ** 2, axis=2)
        for cats, expected in ((cat[:, :0], reference), (cat, reference + 4.0 * mismatches)):
            d2 = _neighbor_distances(z, cats, 4.0)
            if n_features < 8:
                assert d2.tobytes() == expected.tobytes()
            else:
                np.testing.assert_allclose(d2, expected, rtol=n_features * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_nearest_equals_the_first_k_of_a_stable_argsort(self, seed):
        """Integer distances tie often; duplicate rows tie at distance 0;
        k runs up to n_min - 1, where every other row is a neighbor."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        z = rng.integers(0, 3, size=(n, 2)).astype(float)
        z[n // 2 :] = z[: n - n // 2]  # duplicate rows
        cats = rng.integers(0, 2, size=(n, 1)).astype(float)
        d2 = _neighbor_distances(z, cats, 1.0)
        np.fill_diagonal(d2, np.inf)
        for k in sorted({1, n // 2 or 1, n - 1}):
            assert np.array_equal(_nearest(d2, k), np.argsort(d2, axis=1, kind="stable")[:, :k])
        d2 = rng.integers(0, 4, size=(n, n)).astype(float)
        np.fill_diagonal(d2, np.inf)
        assert np.array_equal(_nearest(d2, n - 1), np.argsort(d2, axis=1, kind="stable")[:, : n - 1])

    def test_identical_minority_rows_reproduce_exactly(self):
        values = np.vstack([np.tile([1.0, 2.0, 5.0], (4, 1)), np.zeros((16, 3))])
        y = np.array([10.0] * 4 + [0.0] * 16)
        fm = FeatureMatrix(
            columns=("a", "b", "c"),
            kinds=("continuous",) * 3,
            values=values,
            player_ids=tuple(f"p{i}" for i in range(20)),
        )
        out, y_out = smote_nc_regression(fm, y, SmoteConfig(target_ratio=0.5, k_neighbors=1, seed=0))
        synth = out.values[20:]
        assert len(synth) > 0
        assert np.all(synth == [1.0, 2.0, 5.0])
        assert np.all(y_out[20:] == 10.0)

    def test_convexity_and_shared_coefficient(self):
        fm, y = _mixed_features(400, seed=32)
        out, y_out, details = smote_nc_regression(
            fm, y, SmoteConfig(target_ratio=0.4, k_neighbors=5, seed=1), return_details=True
        )
        n = len(y)
        for t, d in enumerate(details):
            row = out.values[n + t]
            seed_row = fm.values[d.seed_row]
            nb_row = fm.values[d.neighbor_row]
            assert 0.0 <= d.coefficient <= 1.0
            for col in range(3):  # continuous columns
                expected = seed_row[col] + d.coefficient * (nb_row[col] - seed_row[col])
                assert row[col] == pytest.approx(expected, abs=1e-12)
                lo, hi = sorted((seed_row[col], nb_row[col]))
                assert lo - 1e-12 <= row[col] <= hi + 1e-12
            expected_y = y[d.seed_row] + d.coefficient * (y[d.neighbor_row] - y[d.seed_row])
            assert y_out[n + t] == pytest.approx(expected_y, abs=1e-12)

    def test_requested_ratio_reached_within_one_row(self):
        rng = np.random.default_rng(33)
        values = rng.normal(size=(1000, 3))
        y = np.zeros(1000)
        y[:50] = rng.gamma(2.0, 10.0, 50)
        fm = FeatureMatrix(
            columns=("a", "b", "c"),
            kinds=("continuous",) * 3,
            values=values,
            player_ids=tuple(f"p{i}" for i in range(1000)),
        )
        out, y_out = smote_nc_regression(fm, y, SmoteConfig(target_ratio=0.5, seed=2))
        ratio = np.mean(y_out > 0)
        n_total = len(y_out)
        assert abs(ratio - 0.5) <= 1.0 / n_total + 1e-12
        # original rows preserved verbatim as a prefix
        assert np.array_equal(out.values[:1000], values)
        assert np.array_equal(y_out[:1000], y)

    def test_categorical_takes_neighbor_majority(self):
        # minority: three rows of segment 2 near each other, one of segment 0
        values = np.array(
            [[0.0, 2.0], [0.1, 2.0], [0.2, 2.0], [0.05, 0.0]] + [[5.0, 1.0]] * 12
        )
        y = np.array([5.0, 5.0, 5.0, 5.0] + [0.0] * 12)
        fm = FeatureMatrix(
            columns=("a", "segment"),
            kinds=("continuous", "categorical"),
            values=values,
            player_ids=tuple(f"p{i}" for i in range(16)),
        )
        out, y_out, details = smote_nc_regression(
            fm, y, SmoteConfig(target_ratio=0.5, k_neighbors=3, seed=3), return_details=True
        )
        synth = out.values[16:]
        # every synthetic row seeded from a segment-2 row keeps segment 2
        for t, d in enumerate(details):
            if fm.values[d.seed_row][1] == 2.0:
                assert synth[t][1] == 2.0

    def test_too_few_minority_rows(self):
        fm, y = _mixed_features(50, seed=34, payer_rate=0.04)
        y[:] = 0.0
        y[0] = 5.0
        with pytest.raises(DataError):
            smote_nc_regression(fm, y, SmoteConfig(target_ratio=0.3, k_neighbors=5))


class TestThreeStage:
    def _sim_dataset(self, n=800, seed=35):
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

    def test_no_payers_rejected(self):
        x = np.random.default_rng(36).normal(size=(30, 3))
        with pytest.raises(DataError):
            fit_three_stage(x, np.zeros(30))

    def test_composite_non_negative(self):
        dataset = self._sim_dataset()
        model = fit_three_stage(
            dataset.features.values,
            dataset.targets,
            purchase_counts=dataset.purchase_counts,
            config=ForestConfig(n_trees=20, max_depth=8, min_samples_leaf=5, seed=5),
        )
        pred = predict_three_stage(model, dataset.features.values)
        assert np.all(pred >= 0)

    def test_beats_global_mean_baseline(self):
        dataset = self._sim_dataset()
        model = fit_three_stage(
            dataset.features.values,
            dataset.targets,
            purchase_counts=dataset.purchase_counts,
            config=ForestConfig(n_trees=30, max_depth=10, min_samples_leaf=5, seed=6),
        )
        pred = predict_three_stage(model, dataset.features.values)
        y = dataset.targets
        assert np.mean((pred - y) ** 2) < np.mean((y.mean() - y) ** 2)

    def test_zero_vote_inputs_predict_zero(self):
        rng = np.random.default_rng(37)
        x = rng.uniform(0, 1, size=(200, 2))
        y = np.where(x[:, 0] > 0.8, 50.0, 0.0)
        model = fit_three_stage(x, y, config=ForestConfig(n_trees=15, seed=7))
        far = np.tile([0.05, 0.5], (10, 1))  # deep in non-payer territory
        assert np.all(predict_three_stage(model, far) == 0.0)


    def test_without_counts_there_is_no_count_stage(self):
        dataset = self._sim_dataset(n=400)
        x, y = dataset.features.values, dataset.targets
        config = ForestConfig(n_trees=8, max_depth=6, min_samples_leaf=5, seed=9)
        model = fit_three_stage(x, y, config=config)
        assert model.count_forest is None
        payers = y > 0
        value = fit_random_forest(x[payers], y[payers], config)
        expected = forest_predict(fit_random_forest(x, payers.astype(float), config, classifier=True), x)
        assert np.array_equal(predict_three_stage(model, x), expected * forest_predict(value, x))

    def test_artifact_with_a_constant_count_forest_reloads_bit_identical(self, tmp_path):
        dataset = self._sim_dataset(n=400)
        x, y = dataset.features.values, dataset.targets
        config = ForestConfig(n_trees=8, max_depth=6, min_samples_leaf=5, seed=9)
        model = fit_three_stage(x, y, config=config)
        # the parameters as written when a fit without counts still fitted
        # the count stage to a constant 1
        payers = y > 0
        constant = fit_random_forest(x[payers], np.ones(int(payers.sum())), config)
        assert np.all(forest_predict(constant, x) == 1.0)
        parameters = {
            "payer_classifier": asdict(model.payer_classifier),
            "count_forest": asdict(constant),
            "value_forest": asdict(model.value_forest),
            "counts_supplied": False,
        }
        art.save_artifact(art.ModelArtifact("three_stage", parameters), tmp_path / "old.json")
        old = art.model_from_artifact(art.load_artifact(tmp_path / "old.json"))
        assert np.array_equal(predict_three_stage(old, x), predict_three_stage(model, x))
        art.save_artifact(
            art.ModelArtifact("three_stage", art.model_to_parameters("three_stage", model)), tmp_path / "new.json"
        )
        assert json.loads((tmp_path / "new.json").read_text())["parameters"]["count_forest"] is None
        new = art.model_from_artifact(art.load_artifact(tmp_path / "new.json"))
        assert new.count_forest is None
        assert np.array_equal(predict_three_stage(new, x), predict_three_stage(model, x))


class TestResamplingDirection:
    def test_resampling_improves_payer_subset_fit(self):
        # payers are well under 10% of players; rebalancing must shift the
        # forest's capacity toward them, improving the payer-subset fit in
        # at least 7 of 10 seeded replications
        wins = 0
        payer_rates = []
        for rep in range(10):
            config = SimConfig(
                n_customers=1500,
                observation_days=120.0,
                purchase_model=ParetoNBDParams(0.8, 6.0, 0.7, 20.0),
                spend_model=GammaGammaParams(6.0, 4.0, 15.0),
                sessions_per_day=0.5,
                rounds_per_session=2.0,
                conversion_rate=0.07,
                seed=500 + rep,
            )
            log, _ = simulate_pareto_nbd_cohort(config)
            ds = extract_features(log, window=7.0, target_horizon=110.0, observation_end=120.0)
            x, y = ds.features.values, ds.targets
            payers = y > 0
            payer_rates.append(float(payers.mean()))
            fc = ForestConfig(n_trees=40, max_depth=6, min_samples_leaf=10, seed=rep)
            raw = fit_random_forest(x, y, fc)
            mse_raw = float(np.mean((forest_predict(raw, x[payers]) - y[payers]) ** 2))
            fm2, y2 = smote_nc_regression(
                ds.features, y, SmoteConfig(target_ratio=0.4, k_neighbors=3, seed=rep)
            )
            resampled = fit_random_forest(fm2.values, y2, fc)
            mse_res = float(np.mean((forest_predict(resampled, x[payers]) - y[payers]) ** 2))
            wins += mse_res <= mse_raw
        assert max(payer_rates) < 0.10
        assert wins >= 7, (wins, payer_rates)


class _MeanModel:
    def fit(self, x, y):
        self.mean = float(np.mean(y))
        return self

    def predict(self, x):
        return np.full(len(x), self.mean)


class _PerfectModel:
    def __init__(self, lookup):
        self.lookup = lookup

    def fit(self, x, y):
        return self

    def predict(self, x):
        return np.array([self.lookup[tuple(row)] for row in x])


class TestEvaluate:
    def test_perfect_predictor_scores_zero(self):
        rng = np.random.default_rng(38)
        x = rng.normal(size=(40, 2))
        y = rng.gamma(2.0, 5.0, 40)
        lookup = {tuple(row): y[i] for i, row in enumerate(x)}
        metrics = evaluate(lambda: _PerfectModel(lookup), x, y, k=5, seed=0)
        assert metrics.mse == 0.0
        assert metrics.nrmse == 0.0

    def test_mean_predictor_against_hand_identity(self):
        # unshuffled contiguous folds, built so every training mean equals
        # the fold mean: the fold MSE is then exactly the fold variance
        x = np.zeros((4, 1))
        y = np.array([1.0, 3.0, 2.0, 2.0])
        metrics = evaluate(_MeanModel, x, y, k=2, seed=0, shuffle=False)
        assert metrics.folds[0].mse == pytest.approx(np.var([1.0, 3.0]), abs=1e-9)
        assert metrics.folds[1].mse == pytest.approx(np.var([2.0, 2.0]), abs=1e-9)

    def test_mean_predictor_against_independent_recount(self):
        rng = np.random.default_rng(39)
        x = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        k = 3
        metrics = evaluate(_MeanModel, x, y, k=k, seed=11, shuffle=True)
        indices = np.arange(30)
        np.random.default_rng(11).shuffle(indices)
        for fold, test_idx in enumerate(np.array_split(indices, k)):
            train_idx = np.setdiff1d(indices, test_idx)
            expected = float(np.mean((y[test_idx] - y[train_idx].mean()) ** 2))
            assert metrics.folds[fold].mse == pytest.approx(expected, abs=1e-12)

    def test_constant_target_reports_undefined_nrmse(self):
        x = np.zeros((20, 1))
        y = np.full(20, 4.0)
        metrics = evaluate(_MeanModel, x, y, k=4)
        assert metrics.nrmse is None
        assert all(fm.nrmse is None for fm in metrics.folds)

    def test_default_protocol_is_ten_folds(self):
        import inspect

        assert inspect.signature(evaluate).parameters["k"].default == 10

    def test_forest_regressor_adapter_runs(self):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(60, 3))
        y = x[:, 0] * 2 + rng.normal(size=60) * 0.1
        metrics = evaluate(
            lambda: ForestRegressor(ForestConfig(n_trees=10, max_depth=6, seed=8)), x, y, k=3
        )
        assert metrics.nrmse is not None and metrics.nrmse < 0.5

    def test_validation(self):
        with pytest.raises(DataError):
            evaluate(_MeanModel, np.zeros((5, 1)), np.zeros(5), k=1)
        with pytest.raises(DataError):
            evaluate(_MeanModel, np.zeros((3, 1)), np.zeros(3), k=4)
