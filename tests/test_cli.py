"""Command-line surface: exit codes, file outputs, library equivalence."""

import argparse
import csv
import json

import numpy as np
import pytest

from f2pclv import artifacts as art
from f2pclv import btyd, markov
from f2pclv.cli import build_parser, main
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
    art.save_artifact(
        art.ModelArtifact(model_kind="retention", parameters={"family": "power_law", "k": 0.5, "steps": [], "rss": 0.0}),
        root / "ret.json",
    )
    mon = {"knot_days": [0.0, 10.0], "knot_fractions": [0.5, 1.0]}
    art.save_artifact(art.ModelArtifact(model_kind="monetization", parameters=mon), root / "mon.json")
    (root / "revenue.csv").write_text("customer_id,revenue\nc1,5.0\n")
    space = markov.StateSpace(labels=("active", "churn"), churn_index=1)
    chain = (
        markov.TransitionMatrix(space, np.array([[0.8, 0.2], [0.0, 1.0]])),
        markov.RewardVector(space, np.array([10.0, 0.0])),
    )
    art.save_artifact(art.ModelArtifact("markov", art.model_to_parameters("markov", chain)), root / "markov.json")
    # malformed artifacts: not JSON, a missing parameter, a parameter of the wrong type
    (root / "not_json.json").write_text("{not json")
    for name, edit in (("no_alpha", lambda p: p.pop("alpha")), ("text_r", lambda p: p.update(r="x"))):
        blob = json.loads((root / "bg.json").read_text())
        edit(blob["parameters"])
        (root / f"bg_{name}.json").write_text(json.dumps(blob))
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


def test_fit_reports_its_starts(workspace, tmp_path, capsys):
    out = tmp_path / "bg_starts.json"
    assert main(["fit", "--model", "bg_nbd", "--input", str(workspace / "summaries.csv"), "--out", str(out)]) == 0
    params = art.load_artifact(out).parameters
    starts = params["n_starts"]
    assert starts >= 1
    assert f"starts={starts} " in capsys.readouterr().out
    # one record per start; a fit stops at its first converged start
    assert len(params["starts"]) == starts
    assert sum(s["n_evals"] for s in params["starts"]) == params["n_evaluations"]
    assert params["starts"][-1]["converged"] == params["converged"]
    assert all(isinstance(s["message"], str) and s["message"] for s in params["starts"])


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


def test_gamma_gamma_predict_equals_per_customer_calls(workspace, tmp_path):
    pred_path = tmp_path / "gg_pred.csv"
    assert main([
        "predict", "--artifact", str(workspace / "gg.json"),
        "--input", str(workspace / "summaries.csv"), "--out", str(pred_path),
    ]) == 0
    spend = art.model_from_artifact(art.load_artifact(workspace / "gg.json"))
    summaries = read_summary_csv(workspace / "summaries.csv")
    # byte for byte the CSV of one scalar call per customer, as csv.writer writes it
    reference = tmp_path / "gg_reference.csv"
    with open(reference, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["customer_id", "expected_value"])
        w.writerows(
            [s.customer_id, float(btyd.conditional_expected_value(spend, s.frequency, s.monetary_value))]
            for s in summaries
        )
    assert pred_path.read_bytes() == reference.read_bytes()


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


@pytest.mark.parametrize("kind", ["retention", "monetization"])
def test_negative_curve_days_is_data_error(workspace, tmp_path, capsys, kind):
    out = tmp_path / "curve.csv"
    code = main([
        "summarize", "--kind", kind, "--transactions", str(workspace / "sim" / "transactions.csv"),
        "--days", "-3", "--out", str(out),
    ])
    assert code == 2
    assert "n_days" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("row", ["c2,3,nan,40.0,5.0", "c2,3,10.0,inf,5.0"], ids=["nan_recency", "inf_age"])
def test_non_finite_summary_is_data_error(workspace, tmp_path, capsys, row):
    summaries = tmp_path / "summaries.csv"
    summaries.write_text(f"customer_id,frequency,recency,T,monetary_value\nc1,2,5.0,30.0,4.0\n{row}\n")
    code = main([
        "predict", "--artifact", str(workspace / "bg.json"), "--input", str(summaries),
        "--horizon", "30", "--out", str(tmp_path / "out.csv"),
    ])
    assert code == 2
    assert "finite" in capsys.readouterr().err


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


_SIMULATE = "simulate --model bg_nbd --n-customers 10 --days 30 --out-dir {tmp}/sim"
_PARAMS = "r=0.4,alpha=8,a=0.8,b=2.5"


@pytest.mark.parametrize(
    "command, code, flag",
    [
        (f"{_SIMULATE} --params r=abc,alpha=8,a=0.8,b=2.5", 2, "--params"),
        (f"{_SIMULATE} --params {_PARAMS},bb=2.5", 2, "--params"),
        (f"{_SIMULATE} --params {_PARAMS} --spend p=6", 2, "--spend"),
        (f"{_SIMULATE} --params r=-1,alpha=8,a=0.8,b=2.5", 2, "--params"),
        (f"{_SIMULATE} --params {_PARAMS} --spend p=6,q=0,gamma=15", 2, "--spend"),
        ("segment --summaries {ws}/summaries.csv --weights 0.5,x,0.5 --out-dir {tmp}/seg", 2, "--weights"),
        ("segment --summaries {ws}/summaries.csv --weights 0.5,0.5 --out-dir {tmp}/seg", 2, "--weights"),
        ("fit --model bg_nbd --out {tmp}/bg.json", 1, "--input"),
        ("predict --artifact {ws}/bg.json --out {tmp}/pred.csv", 1, "--input"),
        ("segment --summaries {ws}/summaries.csv --artifact {ws}/bg.json --out-dir {tmp}/seg", 1, "--spend-artifact"),
        ("predict --artifact {ws}/ret.json --out {tmp}/pred.csv", 1, "--arpdau"),
        ("predict --artifact {ws}/bg.json --input {ws}/summaries.csv --horizon nan --out {tmp}/pred.csv", 2, "horizon"),
        (
            "predict --artifact {ws}/bg.json --spend-artifact {ws}/gg.json --input {ws}/summaries.csv"
            " --discount-rate nan --out {tmp}/pred.csv",
            2,
            "discount_rate",
        ),
        ("predict --artifact {ws}/ret.json --arpdau 1 --horizon nan --out {tmp}/pred.csv", 2, "horizon"),
        ("predict --artifact {ws}/ret.json --arpdau 1 --horizon inf --out {tmp}/pred.csv", 2, "horizon"),
        ("predict --artifact {ws}/ret.json --arpdau nan --out {tmp}/pred.csv", 2, "arpdau"),
        ("predict --artifact {ws}/markov.json --horizon nan --out {tmp}/pred.csv", 2, "horizon"),
        ("predict --artifact {ws}/markov.json --horizon inf --out {tmp}/pred.csv", 2, "horizon"),
        ("predict --artifact {ws}/markov.json --discount-rate nan --out {tmp}/pred.csv", 2, "discount_rate"),
        ("predict --artifact {ws}/markov.json --infinite --discount-rate nan --out {tmp}/pred.csv", 2, "discount_rate"),
        ("predict --artifact {ws}/mon.json --input {ws}/revenue.csv --horizon nan --out {tmp}/pred.csv", 2, "horizon"),
        ("predict --artifact {ws}/not_json.json --out {tmp}/pred.csv", 2, "not_json.json"),
        ("predict --artifact {ws}/bg_no_alpha.json --input {ws}/summaries.csv --out {tmp}/pred.csv", 2, "'alpha'"),
        ("predict --artifact {ws}/bg_text_r.json --input {ws}/summaries.csv --out {tmp}/pred.csv", 2, "bg_nbd"),
        ("summarize --transactions {ws}/sim/transactions.csv --observation-end nan --out {tmp}/s.csv", 2, "observation_end"),
        ("summarize --transactions {ws}/sim/transactions.csv --observation-end inf --out {tmp}/s.csv", 2, "observation_end"),
        ("split --transactions {ws}/sim/transactions.csv --cutoff nan --out-dir {tmp}/split", 2, "cutoff"),
    ],
    ids=[
        "non_numeric_param", "unknown_param", "missing_spend_param", "invalid_param", "invalid_spend_param",
        "non_numeric_weight", "two_weights", "fit_without_input", "predict_without_input",
        "segment_without_spend_artifact", "retention_predict_without_arpdau", "nan_horizon", "nan_discount_rate",
        "retention_nan_horizon", "retention_inf_horizon", "retention_nan_arpdau", "markov_nan_horizon",
        "markov_inf_horizon", "markov_nan_discount_rate", "markov_infinite_nan_discount_rate",
        "monetization_nan_horizon", "artifact_not_json", "artifact_missing_parameter", "artifact_text_parameter",
        "nan_observation_end", "inf_observation_end", "nan_cutoff",
    ],
)
def test_bad_or_missing_flag_is_an_error_line_naming_it(workspace, tmp_path, capsys, command, code, flag):
    assert main(command.format(ws=workspace, tmp=tmp_path).split()) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert any(line.startswith("error: ") and flag in line for line in err.splitlines()), err


_SIMULATE_BG = f"simulate --model bg_nbd --n-customers 10 --params {_PARAMS} --out-dir {{tmp}}/sim"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag, name",
    [
        ("fit --model pareto_nbd --input {ws}/summaries.csv --out {tmp}/fit.json", "--penalizer", "penalizer"),
        ("fit --model bg_nbd --input {ws}/summaries.csv --out {tmp}/fit.json", "--penalizer", "penalizer"),
        ("fit --model gamma_gamma --payers-only --input {ws}/summaries.csv --out {tmp}/fit.json", "--penalizer", "penalizer"),
        (_SIMULATE_BG, "--days", "observation_days"),
        (f"{_SIMULATE_BG} --days 30", "--spread", "start_spread_days"),
        (f"{_SIMULATE_BG} --days 30", "--sessions-per-day", "sessions_per_day"),
        (f"{_SIMULATE_BG} --days 30", "--rounds-per-session", "rounds_per_session"),
    ],
    ids=["pareto_penalizer", "bg_penalizer", "gamma_gamma_penalizer", "days", "spread", "sessions", "rounds"],
)
def test_non_finite_float_flag_is_an_error_line_naming_the_value(workspace, tmp_path, capsys, command, flag, name, value):
    # flag=value, as argparse takes "-inf" after a space for an option
    argv = command.format(ws=workspace, tmp=tmp_path).split() + [f"{flag}={value}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith(f"error: {name} must be")]
    assert lines and lines[0].endswith(f"finite, got {value}"), err
    # no artifact or simulated log is written
    assert not any(tmp_path.iterdir())


_MODEL_FLAGS = {"--params": "r=0.5,alpha=10,s=0.6,beta=12", "--spend": "p=6,q=4,gamma=15"}


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("flag, name", [("--params", "ParetoNBDParams"), ("--spend", "GammaGammaParams")])
def test_non_finite_model_parameter_is_an_error_line(tmp_path, capsys, flag, name, value):
    simulate = f"simulate --model pareto_nbd --n-customers 10 --days 30 --out-dir {tmp_path}/sim".split()
    pairs = _MODEL_FLAGS[flag].split(",")
    for i, pair in enumerate(pairs):
        key = pair.partition("=")[0]
        flags = {**_MODEL_FLAGS, flag: ",".join(pairs[:i] + [f"{key}={value}"] + pairs[i + 1 :])}
        assert main(simulate + [item for option in flags.items() for item in option]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: {flag}: {name}.{key} must be > 0 and finite, got {value}" in err.splitlines(), err
        # no simulated log is written
        assert not any(tmp_path.iterdir())


def _float_options():
    """Every (subcommand, option) of the CLI whose type is float."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {(name, a.option_strings[-1]) for name, p in sub.choices.items() for a in p._actions if a.type is float}


_PREDICT_CLV = "predict --artifact {ws}/bg.json --spend-artifact {ws}/gg.json --input {ws}/summaries.csv --out {tmp}/pred.csv"
# (a working invocation, the float options it reads); an option given again
# as --flag=value overrides the invocation's own value
_FLOAT_BASES = [
    (
        "summarize --kind features --transactions {ws}/sim/transactions.csv --events {ws}/sim/events.csv"
        " --out {tmp}/features.csv",
        ("--observation-end", "--window", "--horizon"),
    ),
    ("split --transactions {ws}/sim/transactions.csv --cutoff 182 --out-dir {tmp}/split", ("--cutoff",)),
    (f"{_SIMULATE_BG} --days 30", ("--days", "--sessions-per-day", "--rounds-per-session", "--spread", "--conversion-rate")),
    (
        "fit --model basic --gc 10 --promotion 1 --retention 0.8 --discount-rate 0.05 --periods 6 --out {tmp}/basic.json",
        ("--gc", "--promotion", "--retention", "--discount-rate"),
    ),
    ("fit --model bg_nbd --input {ws}/summaries.csv --out {tmp}/fit.json", ("--penalizer",)),
    ("fit --model markov --input {ws}/sim/transactions.csv --period-days 7 --out {tmp}/markov.json", ("--period-days",)),
    (
        "fit --model forest --input {ws}/features.csv --smote-ratio 0.5 --n-trees 2 --out {tmp}/forest.json",
        ("--smote-ratio",),
    ),
    (_PREDICT_CLV, ("--period-days", "--horizon", "--discount-rate")),
    ("predict --artifact {ws}/ret.json --arpdau 0.5 --out {tmp}/pred.csv", ("--arpdau",)),
    (
        "segment --summaries {ws}/summaries.csv --artifact {ws}/bg.json --spend-artifact {ws}/gg.json"
        " --out-dir {tmp}/seg",
        ("--period-days", "--horizon", "--discount-rate"),
    ),
]
_FLOAT_CASES = {(base.split()[0], flag): base for base, flags in _FLOAT_BASES for flag in flags}
# the library parameters whose names differ from their flags' own
_LIBRARY_NAMES = {"--smote-ratio": "target_ratio", "--period-days": "period"}


@pytest.fixture(scope="module")
def float_workspace(workspace):
    """The CLI workspace with a feature table for the forest fit."""
    assert main([
        "summarize", "--kind", "features", "--transactions", str(workspace / "sim" / "transactions.csv"),
        "--events", str(workspace / "sim" / "events.csv"), "--out", str(workspace / "features.csv"),
    ]) == 0
    return workspace


def test_float_bases_cover_every_float_option():
    assert set(_FLOAT_CASES) == _float_options()
    assert len(_FLOAT_CASES) == 23


@pytest.mark.parametrize("base", [base for base, _ in _FLOAT_BASES])
def test_float_base_invocations_work(float_workspace, tmp_path, base):
    assert main(base.format(ws=float_workspace, tmp=tmp_path).split()) == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", sorted(_FLOAT_CASES), ids=[" ".join(case) for case in sorted(_FLOAT_CASES)])
def test_every_float_flag_rejects_non_finite_values(float_workspace, tmp_path, capsys, command, flag, value):
    # flag=value, as argparse takes "-inf" after a space for an option
    argv = _FLOAT_CASES[command, flag].format(ws=float_workspace, tmp=tmp_path).split() + [f"{flag}={value}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # the flag, the library parameter it sets, or the value
    names = (flag, flag[2:].replace("-", "_"), _LIBRARY_NAMES.get(flag, flag))
    lines = [line for line in err.splitlines() if line.startswith("error: ")]
    assert any(line.endswith(f"got {value}") or any(name in line for name in names) for line in lines), err


def test_shared_options_only_on_the_subcommands_that_read_them(tmp_path):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    having = {
        option: sorted(name for name, p in sub.choices.items() if any(option in a.option_strings for a in p._actions))
        for option in ("--seed", "--period-days")
    }
    assert having == {"--seed": ["evaluate", "fit", "simulate"], "--period-days": ["fit", "predict", "segment"]}
    assert main(["ingest", "--seed", "3", "--out-dir", str(tmp_path)]) == 1


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
    assert "transactions rejected: 1 bad_time, 1 bad_payload" in out


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
