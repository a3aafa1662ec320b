"""Command-line surface: exit codes, file outputs, library equivalence."""

import csv
import json

import numpy as np
import pytest

from f2pclv import artifacts as art
from f2pclv import btyd
from f2pclv.cli import main
from f2pclv.data import (
    parse_transaction_log,
    read_summary_csv,
    rfm_summary,
    write_summary_csv,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulated cohort shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main([
        "simulate", "--model", "bg_nbd", "--n-customers", "600", "--days", "270",
        "--params", "r=0.4,alpha=8,a=0.8,b=2.5", "--spend", "p=6,q=4,gamma=15",
        "--sessions-per-day", "0.4", "--rounds-per-session", "2", "--seed", "17",
        "--out-dir", str(root / "sim"),
    ]) == 0
    assert main([
        "split", "--transactions", str(root / "sim" / "transactions.csv"),
        "--cutoff", "182", "--out-dir", str(root / "split"),
    ]) == 0
    assert main([
        "summarize", "--transactions", str(root / "split" / "calibration_transactions.csv"),
        "--observation-end", "182", "--out", str(root / "summaries.csv"),
    ]) == 0
    assert main([
        "fit", "--model", "bg_nbd", "--input", str(root / "summaries.csv"),
        "--out", str(root / "bg.json"),
    ]) == 0
    assert main([
        "fit", "--model", "gamma_gamma", "--input", str(root / "summaries.csv"),
        "--payers-only", "--out", str(root / "gg.json"),
    ]) == 0
    return root


def test_help_lists_all_commands(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("ingest", "summarize", "split", "fit", "predict", "simulate", "evaluate", "segment"):
        assert command in out


def test_missing_input_file_names_path(capsys, tmp_path):
    code = main([
        "summarize", "--transactions", str(tmp_path / "nope.csv"),
        "--out", str(tmp_path / "out.csv"),
    ])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_unknown_model_kind_is_usage_error(capsys, tmp_path):
    code = main(["fit", "--model", "mystery", "--out", str(tmp_path / "x.json")])
    assert code == 1


def test_summarize_matches_library_byte_for_byte(workspace, tmp_path):
    with open(workspace / "split" / "calibration_transactions.csv") as fh:
        log = parse_transaction_log(fh).log
    lib_path = tmp_path / "lib_summaries.csv"
    write_summary_csv(rfm_summary(log, 182.0), lib_path)
    assert lib_path.read_bytes() == (workspace / "summaries.csv").read_bytes()


def test_fit_artifact_warm_restart_keeps_nll(workspace):
    artifact = art.load_artifact(workspace / "bg.json")
    params = art.model_from_artifact(artifact)
    summaries = read_summary_csv(workspace / "summaries.csv")
    refit = btyd.fit_bg_nbd(summaries, seed=0, restarts=1, initial=params)
    assert refit.nll == pytest.approx(artifact.parameters["nll"], abs=1e-6)


def test_gamma_gamma_rejects_zero_frequency_rows(workspace, tmp_path, capsys):
    code = main([
        "fit", "--model", "gamma_gamma", "--input", str(workspace / "summaries.csv"),
        "--out", str(tmp_path / "gg_bad.json"),
    ])
    assert code == 2
    assert "frequency" in capsys.readouterr().err


def test_predict_zero_discount_matches_composition(workspace, tmp_path):
    pred_path = tmp_path / "pred.csv"
    assert main([
        "predict", "--artifact", str(workspace / "bg.json"),
        "--spend-artifact", str(workspace / "gg.json"),
        "--input", str(workspace / "summaries.csv"),
        "--horizon", "180", "--discount-rate", "0", "--out", str(pred_path),
    ]) == 0
    purchase = art.model_from_artifact(art.load_artifact(workspace / "bg.json"))
    spend = art.model_from_artifact(art.load_artifact(workspace / "gg.json"))
    summaries = read_summary_csv(workspace / "summaries.csv")
    x, t_x, T, m = (
        np.array(v) for v in zip(*[(s.frequency, s.recency, s.age, s.monetary_value) for s in summaries])
    )
    expected = np.atleast_1d(btyd.expected_transactions(purchase, x, t_x, T, 180.0))
    value = np.atleast_1d(btyd.conditional_expected_value(spend, x, m))
    with open(pred_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(summaries)
    by_id = {row["customer_id"]: row for row in rows}
    for i, s in enumerate(summaries):
        row = by_id[s.customer_id]
        # the CLI calls the same vectorized code, so E[X] round-trips exactly
        assert float(row["expected_transactions"]) == expected[i]
        assert float(row["predicted_clv"]) == pytest.approx(expected[i] * value[i], abs=1e-9)


def test_reference_horizon_and_rate_run(workspace, tmp_path):
    assert main([
        "predict", "--artifact", str(workspace / "bg.json"),
        "--spend-artifact", str(workspace / "gg.json"),
        "--input", str(workspace / "summaries.csv"),
        "--horizon", "180", "--discount-rate", "0.01",
        "--out", str(tmp_path / "pred.csv"),
    ]) == 0


def test_simulate_is_deterministic_per_seed(tmp_path):
    args = [
        "simulate", "--model", "pareto_nbd", "--n-customers", "120", "--days", "60",
        "--params", "r=0.5,alpha=10,s=0.6,beta=12", "--spend", "p=6,q=4,gamma=15",
        "--seed", "3",
    ]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("transactions.csv", "events.csv", "truth.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_evaluate_prints_per_fold_nrmse(workspace, tmp_path, capsys):
    features = tmp_path / "features.csv"
    assert main([
        "summarize", "--kind", "features",
        "--transactions", str(workspace / "sim" / "transactions.csv"),
        "--events", str(workspace / "sim" / "events.csv"),
        "--window", "7", "--horizon", "180", "--out", str(features),
    ]) == 0
    capsys.readouterr()
    assert main([
        "evaluate", "--input", str(features), "--model", "forest", "--folds", "10",
        "--n-trees", "10", "--max-depth", "6", "--min-leaf", "5", "--format", "json",
        "--out", str(tmp_path / "metrics.json"),
    ]) == 0
    out = capsys.readouterr().out
    fold_lines = [line for line in out.splitlines() if line.startswith("fold ")]
    assert len(fold_lines) == 10
    assert all("nrmse=" in line for line in fold_lines)
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert len(metrics["folds"]) == 10
    assert main([
        "evaluate", "--input", str(features), "--model", "forest", "--folds", "5",
        "--n-trees", "8", "--max-depth", "5", "--min-leaf", "5", "--format", "csv",
        "--out", str(tmp_path / "metrics.csv"),
    ]) == 0
    with open(tmp_path / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 and "nrmse" in rows[0]


def test_forest_save_load_predict_identical(workspace, tmp_path):
    features = tmp_path / "features.csv"
    assert main([
        "summarize", "--kind", "features",
        "--transactions", str(workspace / "sim" / "transactions.csv"),
        "--events", str(workspace / "sim" / "events.csv"),
        "--window", "7", "--horizon", "180", "--out", str(features),
    ]) == 0
    model_path = tmp_path / "forest.json"
    assert main([
        "fit", "--model", "forest", "--input", str(features),
        "--n-trees", "12", "--max-depth", "6", "--min-leaf", "5", "--seed", "5",
        "--out", str(model_path),
    ]) == 0
    pred_path = tmp_path / "fpred.csv"
    assert main([
        "predict", "--artifact", str(model_path), "--input", str(features),
        "--out", str(pred_path),
    ]) == 0
    from f2pclv.forest import ForestConfig, fit_random_forest, predict
    from f2pclv.supervised import read_feature_csv

    dataset = read_feature_csv(features)
    forest = fit_random_forest(
        dataset.features.values,
        dataset.targets,
        ForestConfig(n_trees=12, max_depth=6, min_samples_leaf=5, seed=5),
    )
    expected = predict(forest, dataset.features.values)
    with open(pred_path) as fh:
        rows = list(csv.DictReader(fh))
    got = np.array([float(r["predicted_clv"]) for r in rows])
    assert np.array_equal(got, expected)


def test_segment_reports(workspace, tmp_path):
    out_dir = tmp_path / "seg"
    assert main([
        "segment", "--summaries", str(workspace / "summaries.csv"),
        "--artifact", str(workspace / "bg.json"),
        "--spend-artifact", str(workspace / "gg.json"),
        "--holdout", str(workspace / "split" / "holdout_transactions.csv"),
        "--horizon", "88", "--out-dir", str(out_dir),
    ]) == 0
    with open(out_dir / "segments.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["segment"]) for r in rows] == [5, 4, 3, 2, 1]
    top = [r for r in rows if r["segment"] == "5"][0]
    bottom = [r for r in rows if r["segment"] == "1"][0]
    assert float(top["mean_predicted_clv"]) >= float(bottom["mean_predicted_clv"])
    with open(out_dir / "quintiles.csv") as fh:
        quintiles = list(csv.DictReader(fh))
    assert all(1 <= int(r["r_quintile"]) <= 5 for r in quintiles)
    with open(out_dir / "ranks.csv") as fh:
        ranks = list(csv.DictReader(fh))
    scores = [float(r["score"]) for r in ranks]
    assert scores == sorted(scores, reverse=True)


def test_numerical_failure_exit_code(tmp_path, capsys):
    artifact = art.ModelArtifact(
        model_kind="monetization",
        parameters={"knot_days": [0.0, 10.0], "knot_fractions": [1e-12, 1.0]},
    )
    art.save_artifact(artifact, tmp_path / "mon.json")
    revenue = tmp_path / "rev.csv"
    revenue.write_text("customer_id,revenue\nc1,5.0\n")
    code = main([
        "predict", "--artifact", str(tmp_path / "mon.json"), "--input", str(revenue),
        "--horizon", "0", "--out", str(tmp_path / "out.csv"),
    ])
    assert code == 3


_FEATURE_HEADER = "player_id,number_of_sessions,number_of_days,number_of_purchases,total_purchase_amount,future_revenue\n"


@pytest.mark.parametrize(
    "command, text",
    [
        (["fit", "--model", "pareto_nbd"], "customer_id,frequency,recency,monetary_value\nc1,1,2.0,3.0\n"),
        (["fit", "--model", "pareto_nbd"], "customer_id,frequency,recency,T,monetary_value\nc1,x,2.0,10.0,3.0\n"),
        (["evaluate"], _FEATURE_HEADER + "p1,1.0,1.0,0.0,0.0,0.0\n"),
        (["fit", "--model", "retention"], "day,fraction\n0,1.0\n1,half\n"),
    ],
    ids=["summaries_without_T", "non_numeric_frequency", "features_without_rounds", "non_numeric_curve"],
)
def test_malformed_input_csv_is_data_error(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    code = main(command + ["--input", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert str(bad) in capsys.readouterr().err


def test_malformed_revenue_csv_is_data_error(tmp_path, capsys):
    artifact = art.ModelArtifact(
        model_kind="monetization",
        parameters={"knot_days": [0.0, 10.0], "knot_fractions": [0.5, 1.0]},
    )
    art.save_artifact(artifact, tmp_path / "mon.json")
    revenue = tmp_path / "rev.csv"
    revenue.write_text("customer_id,revenue\nc1,5.0\nc2,n/a\n")
    code = main([
        "predict", "--artifact", str(tmp_path / "mon.json"), "--input", str(revenue),
        "--horizon", "30", "--out", str(tmp_path / "out.csv"),
    ])
    assert code == 2
    assert str(revenue) in capsys.readouterr().err


def test_artifact_schema_version_checked(workspace, tmp_path, capsys):
    blob = json.loads((workspace / "bg.json").read_text())
    blob["schema_version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    code = main([
        "predict", "--artifact", str(bad),
        "--input", str(workspace / "summaries.csv"),
        "--out", str(tmp_path / "p.csv"),
    ])
    assert code == 2
    assert "schema version" in capsys.readouterr().err


def test_ingest_reports_rejects(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("customer_id,timestamp,value\na,0,5\nb,oops,3\nc,2,-1\nd,4,2\n")
    assert main(["ingest", "--transactions", str(raw), "--out-dir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "2 kept" in out and "2 rejected" in out


@pytest.mark.parametrize("delimiter", [";;", ""])
def test_ingest_delimiter_must_be_one_character(tmp_path, capsys, delimiter):
    raw = tmp_path / "raw.csv"
    raw.write_text("customer_id;timestamp;value\na;0;5\n")
    code = main([
        "ingest", "--transactions", str(raw), "--delimiter", delimiter, "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "delimiter must be a single character" in capsys.readouterr().err


def test_ingest_keeps_line_break_inside_quoted_id(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_bytes(b'customer_id,timestamp,value\r\n"a\r\nb",1.0,2.0\r\n')
    assert main(["ingest", "--transactions", str(raw), "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "transactions.csv").read_bytes() == raw.read_bytes()
