"""Command-line pipelines: ingest, summarize, split, fit, predict,
simulate, evaluate, segment.

Artifacts are JSON, tabular inputs and outputs are CSV. Exit codes:
0 success, 1 usage error, 2 data validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import artifacts as art
from . import btyd, cohort, markov, supervised
from .data import (
    ColumnMapping,
    TransactionLog,
    cumulative_revenue_fractions,
    daily_active_fractions,
    parse_event_log,
    parse_transaction_log,
    read_csv,
    read_summary_csv,
    rfm_quintile_scores,
    rfm_summary,
    split_calibration_holdout,
    summary_arrays,
    weighted_rfm_rank,
    write_csv,
    write_event_csv,
    write_summary_csv,
    write_transaction_csv,
)
from .errors import DataError, NumericalError
from .forest import ForestConfig, fit_random_forest
from .forest import predict as forest_predict
from .simulate import SimConfig, simulate_bg_nbd_cohort, simulate_pareto_nbd_cohort


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _require(args, flag: str) -> None:
    """Stop with a usage error if `flag` was not given."""
    if getattr(args, flag[2:].replace("-", "_")) is None:
        args.parser.error(f"the following arguments are required: {flag}")


def _number(text: str, flag: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"{flag}: expected a number, got {text!r}") from None


def _parse_params(cls, text: str, flag: str):
    """An instance of the dataclass `cls` from a flag's comma-separated
    key=value list, whose keys must be its fields. Every DataError, the
    class's own checks included, names the flag."""
    pairs = [part.partition("=") for part in text.split(",") if part.strip()]
    names = [f.name for f in fields(cls)]
    if not all(eq for _, eq, _ in pairs) or sorted(k.strip() for k, _, _ in pairs) != sorted(names):
        raise DataError(f"{flag}: expected key=value for each of {', '.join(names)}, got {text!r}")
    values = {k.strip(): _number(v, flag) for k, _, v in pairs}
    try:
        return cls(**values)
    except DataError as e:
        raise DataError(f"{flag}: {e}") from None


def _load_log(transactions, events=None, iso_dates=False) -> TransactionLog:
    mapping = ColumnMapping(iso_dates=iso_dates)
    with open(transactions, newline="") as fh:
        log = parse_transaction_log(fh, mapping).log
    if events:
        with open(events, newline="") as fh:
            log.events = parse_event_log(fh, mapping).log.events
    return log


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(args):
    mapping = ColumnMapping(
        customer_id=args.customer_col,
        timestamp=args.time_col,
        value=args.value_col,
        event_kind=args.kind_col,
        delimiter=args.delimiter,
        iso_dates=args.iso_dates,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, source, parse, write in (
        ("transactions", args.transactions, parse_transaction_log, write_transaction_csv),
        ("events", args.events, parse_event_log, write_event_csv),
    ):
        if source:
            with open(source, newline="") as fh:
                result = parse(fh, mapping)
            write(result.log, out_dir / f"{name}.csv")
            kept = result.total_rows - result.rejected_rows
            print(f"{name}: {kept} kept, {result.rejected_rows} rejected of {result.total_rows}")
            reasons = [f"{n} {reason}" for reason, n in result.rejected_by_reason.items() if n]
            if reasons:
                print(f"{name} rejected: {', '.join(reasons)}")
    return 0


def cmd_summarize(args):
    log = _load_log(args.transactions, args.events, args.iso_dates)
    if args.kind == "rfm":
        end = args.observation_end if args.observation_end is not None else log.last_timestamp()
        summaries = rfm_summary(log, end)
        write_summary_csv(summaries, args.out)
        print(f"wrote {len(summaries)} summaries to {args.out} (observation end {end})")
    elif args.kind == "features":
        dataset = supervised.extract_features(
            log, window=args.window, target_horizon=args.horizon,
            observation_end=args.observation_end,
        )
        supervised.write_feature_csv(dataset, args.out)
        print(
            f"wrote {len(dataset.features.player_ids)} feature rows to {args.out}; "
            f"{dataset.n_excluded} players excluded"
        )
    else:
        curve = daily_active_fractions if args.kind == "retention" else cumulative_revenue_fractions
        points = curve(log, args.days)
        write_csv(args.out, ["day", "fraction"], [[d for d, _ in points], [f for _, f in points]])
        print(f"wrote {len(points)} {args.kind} points to {args.out}")
    return 0


def cmd_split(args):
    log = _load_log(args.transactions, args.events, args.iso_dates)
    cal, hold = split_calibration_holdout(log, args.cutoff)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_transaction_csv(cal, out_dir / "calibration_transactions.csv")
    write_transaction_csv(hold, out_dir / "holdout_transactions.csv")
    if log.events:
        write_event_csv(cal, out_dir / "calibration_events.csv")
        write_event_csv(hold, out_dir / "holdout_events.csv")
    print(
        f"calibration: {len(cal.records)} purchases, holdout: {len(hold.records)} "
        f"(cutoff {args.cutoff})"
    )
    return 0


_SIMULATORS = {
    "pareto_nbd": (btyd.ParetoNBDParams, simulate_pareto_nbd_cohort),
    "bg_nbd": (btyd.BGNBDParams, simulate_bg_nbd_cohort),
}


def cmd_simulate(args):
    params_class, simulator = _SIMULATORS[args.model]
    purchase = _parse_params(params_class, args.params, "--params")
    spend = _parse_params(btyd.GammaGammaParams, args.spend, "--spend") if args.spend else None
    config = SimConfig(
        n_customers=args.n_customers,
        observation_days=args.days,
        purchase_model=purchase,
        spend_model=spend,
        sessions_per_day=args.sessions_per_day,
        rounds_per_session=args.rounds_per_session,
        start_spread_days=args.spread,
        conversion_rate=args.conversion_rate,
        seed=args.seed,
    )
    log, truth = simulator(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_transaction_csv(log, out_dir / "transactions.csv")
    write_event_csv(log, out_dir / "events.csv")
    blob = {
        "observation_end": config.observation_end,
        "customer_ids": truth.customer_ids,
        "lam": truth.lam.tolist(),
        "mu": truth.mu.tolist() if truth.mu is not None else None,
        "dropout_p": truth.dropout_p.tolist() if truth.dropout_p is not None else None,
        "death_time": [None if not np.isfinite(v) else float(v) for v in truth.death_time],
        "alive": truth.alive.astype(bool).tolist(),
        "converted": truth.converted.astype(bool).tolist(),
        "frequency": truth.frequency.tolist(),
        "recency": truth.recency.tolist(),
        "age": truth.age.tolist(),
        "monetary_value": truth.monetary_value.tolist(),
    }
    with open(out_dir / "truth.json", "w") as fh:
        json.dump(blob, fh)
    print(
        f"simulated {args.n_customers} customers / {len(log.records)} purchases "
        f"to {out_dir} (observation end {config.observation_end})"
    )
    return 0


def _forest_config(args) -> ForestConfig:
    return ForestConfig(
        n_trees=args.n_trees,
        max_depth=args.max_depth,
        min_samples_leaf=args.min_leaf,
        bootstrap=not args.no_bootstrap,
        features_per_split="all" if args.no_bootstrap else "sqrt",
        seed=args.seed,
    )


def cmd_fit(args):
    if args.model != "basic":
        _require(args, "--input")
    out = Path(args.out)
    metadata = art.build_metadata(seed=args.seed, data_path=args.input if args.input else None)
    info = None
    if args.model in ("pareto_nbd", "bg_nbd", "gamma_gamma"):
        summaries = read_summary_csv(args.input)
        if args.model == "gamma_gamma" and args.payers_only:
            summaries = summaries[(summaries.frequency > 0) & (summaries.monetary_value > 0)]
        fit_fn = {
            "pareto_nbd": btyd.fit_pareto_nbd,
            "bg_nbd": btyd.fit_bg_nbd,
            "gamma_gamma": btyd.fit_gamma_gamma,
        }[args.model]
        result = fit_fn(summaries, penalizer=args.penalizer, seed=args.seed)
        model = result.params
        info = {
            "nll": result.nll,
            "n_evaluations": result.n_evaluations,
            "n_starts": result.n_starts,
            "starts": [asdict(start) for start in result.starts],
            "converged": result.converged,
            "penalizer": result.penalizer,
        }
        print(
            f"{args.model}: nll={result.nll:.6f} evaluations={result.n_evaluations} "
            f"starts={result.n_starts} converged={result.converged}"
        )
    elif args.model == "basic":
        model = cohort.BasicCLVConfig(
            gross_margin=args.gc,
            promotion_cost=args.promotion,
            n_periods=args.periods,
            retention=args.retention,
            discount_rate=args.discount_rate,
        )
        print(f"basic: clv={cohort.basic_clv(model):.6f}")
    elif args.model == "retention":
        points = _read_curve_csv(args.input)
        model = cohort.fit_retention_curve(points, family=args.family)
        print(f"retention[{args.family}]: k={model.k:.8f} rss={model.rss:.8f}")
    elif args.model == "monetization":
        points = _read_curve_csv(args.input)
        model = cohort.fit_monetization_curve(points)
        print(f"monetization: {len(model.knot_days)} knots")
    elif args.model == "markov":
        log = _load_log(args.input)
        _, histories = markov.histories_from_log(log, args.period_days)
        space = markov.StateSpace.recency_cells(args.recency_cells)
        sequences = markov.discretize_states(histories > 0, space)
        transitions = markov.learn_transition_matrix(sequences, space)
        model = (transitions, markov.estimate_state_rewards(sequences, histories, space))
        print(f"markov: {space.n_states} states over {len(sequences)} customers")
    elif args.model in ("forest", "three_stage"):
        dataset = supervised.read_feature_csv(args.input)
        x, y = dataset.features.values, dataset.targets
        if args.smote_ratio is not None:
            cfg = supervised.SmoteConfig(target_ratio=args.smote_ratio, seed=args.seed)
            fm, y = supervised.smote_nc_regression(dataset.features, y, cfg)
            x = fm.values
            print(f"resampled to {len(y)} rows (payer ratio {np.mean(y > 0):.3f})")
        config = _forest_config(args)
        if args.model == "forest":
            model = fit_random_forest(x, y, config)
            pred = forest_predict(model, x)
            print(f"forest: {config.n_trees} trees, train mse={np.mean((pred - y) ** 2):.6f}")
        else:
            counts = dataset.purchase_counts if args.smote_ratio is None else None
            if counts is not None:
                counts = np.where((y > 0) & (counts < 1), 1.0, counts)
            model = supervised.fit_three_stage(x, y, purchase_counts=counts, config=config)
            pred = supervised.predict_three_stage(model, x)
            print(f"three_stage: train mse={np.mean((pred - y) ** 2):.6f}")
    params = art.model_to_parameters(args.model, model, info)
    artifact = art.ModelArtifact(model_kind=args.model, parameters=params, metadata=metadata)
    art.save_artifact(artifact, out)
    print(f"saved {args.model} artifact to {out}")
    return 0


def _read_curve_csv(path):
    return list(zip(*read_csv(path, ("day", "fraction"), (float, float))))


def cmd_predict(args):
    if not math.isfinite(args.horizon):
        raise DataError(f"--horizon must be finite, got {args.horizon}")
    artifact = art.load_artifact(args.artifact)
    model = art.model_from_artifact(artifact)
    kind = artifact.model_kind
    if kind not in ("basic", "retention", "markov"):
        _require(args, "--input")
    if kind in ("pareto_nbd", "bg_nbd"):
        summaries = read_summary_csv(args.input)
        x, t_x, T, _ = summary_arrays(summaries)
        expected = np.atleast_1d(btyd.expected_transactions(model, x, t_x, T, args.horizon))
        alive = np.atleast_1d(btyd.p_alive(model, x, t_x, T))
        columns = {"expected_transactions": expected, "p_alive": alive}
        if args.spend_artifact:
            spend = art.model_from_artifact(art.load_artifact(args.spend_artifact))
            clv = btyd.discounted_clv(
                model, spend, summaries, args.horizon, args.discount_rate, args.period_days
            )
            columns = {"predicted_clv": clv, **columns}
        write_csv(args.out, ["customer_id", *columns], [summaries.ids, *columns.values()])
    elif kind == "gamma_gamma":
        summaries = read_summary_csv(args.input)
        x, _, _, m = summary_arrays(summaries)
        values = np.atleast_1d(btyd.conditional_expected_value(model, x, m))
        write_csv(args.out, ["customer_id", "expected_value"], [summaries.ids, values])
    elif kind == "basic":
        write_csv(args.out, ["clv"], [[cohort.basic_clv(model)]])
    elif kind == "retention":
        _require(args, "--arpdau")
        write_csv(args.out, ["clv"], [[cohort.retention_clv(args.arpdau, model, int(args.horizon))]])
    elif kind == "monetization":
        ids, revenues = read_csv(args.input, ("customer_id", "revenue"), (str, float))
        clv = cohort.monetization_clv(np.array(revenues), model, args.horizon)
        write_csv(args.out, ["customer_id", "predicted_clv"], [ids, clv])
    elif kind == "markov":
        transitions, rewards = model
        horizon = None if args.infinite else int(args.horizon)
        values = markov.mcm_clv(transitions, rewards, args.discount_rate, horizon)
        write_csv(args.out, ["state", "clv"], [transitions.space.labels, values])
    elif kind in ("forest", "three_stage"):
        features = supervised.read_feature_csv(args.input).features
        predict = forest_predict if kind == "forest" else supervised.predict_three_stage
        write_csv(args.out, ["customer_id", "predicted_clv"], [features.player_ids, predict(model, features.values)])
    print(f"wrote predictions to {args.out}")
    return 0


def cmd_evaluate(args):
    dataset = supervised.read_feature_csv(args.input)
    config = _forest_config(args)
    regressor = {"forest": supervised.ForestRegressor, "three_stage": supervised.ThreeStageRegressor}[args.model]
    metrics = supervised.evaluate(
        lambda: regressor(config), dataset.features.values, dataset.targets, k=args.folds, seed=args.seed
    )
    for fm in metrics.folds:
        nr = "undefined" if fm.nrmse is None else f"{fm.nrmse:.6f}"
        print(f"fold {fm.fold}: n={fm.n_test} mse={fm.mse:.6f} nrmse={nr}")
    mean_nr = "undefined" if metrics.nrmse is None else f"{metrics.nrmse:.6f}"
    print(f"mean: mse={metrics.mse:.6f} nrmse={mean_nr}")
    if args.out:
        if args.format == "csv":
            write_csv(args.out, ["fold", "n_test", "mse", "nrmse"], list(zip(*map(astuple, metrics.folds))))
        else:
            with open(args.out, "w") as fh:
                json.dump(asdict(metrics), fh, indent=2)
    return 0


def cmd_segment(args):
    if args.artifact:
        _require(args, "--spend-artifact")
    summaries = read_summary_csv(args.summaries)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    codes = rfm_quintile_scores(summaries)
    cells = [codes[cid] for cid in summaries.ids]
    write_csv(
        out_dir / "quintiles.csv",
        ["customer_id", "r_quintile", "f_quintile", "m_quintile"],
        [summaries.ids, [c.r_quintile for c in cells], [c.f_quintile for c in cells], [c.m_quintile for c in cells]],
    )
    weights = tuple(_number(w, "--weights") for w in args.weights.split(","))
    try:
        ranked = weighted_rfm_rank(summaries, weights)
    except DataError as e:
        raise DataError(f"--weights: {e}") from None
    ids, scores = zip(*ranked)
    write_csv(out_dir / "ranks.csv", ["rank", "customer_id", "score"], [range(1, len(ids) + 1), ids, scores])

    if args.artifact:
        purchase = art.model_from_artifact(art.load_artifact(args.artifact))
        spend = art.model_from_artifact(art.load_artifact(args.spend_artifact))
        clv = btyd.discounted_clv(
            purchase, spend, summaries, args.horizon, args.discount_rate, args.period_days
        )
        realized = {}
        if args.holdout:
            hold = _load_log(args.holdout).records
            # bincount adds the weights in row order, as a running sum per customer would
            totals = np.bincount(hold.codes, weights=hold.payload, minlength=len(hold.ids))
            realized = dict(zip(hold.ids, totals.tolist()))
        segments = np.empty(len(summaries), dtype=int)
        # rank 0 is the best customer; segment 5 is the top quintile
        segments[np.argsort(-clv, kind="stable")] = 5 - np.arange(len(summaries)) * 5 // len(summaries)
        real = np.array([realized.get(cid, 0.0) for cid in summaries.ids])
        masks = [segments == seg for seg in range(5, 0, -1)]
        means = [[float(np.mean(v[mask])) if mask.any() else 0.0 for mask in masks] for v in (clv, real)]
        write_csv(
            out_dir / "segments.csv",
            ["segment", "count", "mean_predicted_clv", "mean_holdout_value"],
            [range(5, 0, -1), [int(mask.sum()) for mask in masks], *means],
        )
    print(f"wrote segmentation reports to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="f2pclv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each shared option goes only to the subcommands that read it
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    periodic = argparse.ArgumentParser(add_help=False)
    periodic.add_argument("--period-days", type=float, default=1.0)

    p = sub.add_parser("ingest", help="parse and normalize raw logs")
    p.add_argument("--transactions")
    p.add_argument("--events")
    p.add_argument("--customer-col", default="customer_id")
    p.add_argument("--time-col", default="timestamp")
    p.add_argument("--value-col", default="value")
    p.add_argument("--kind-col", default="event_kind")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--iso-dates", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("summarize", help="RFM summaries, features, or cohort curves")
    p.add_argument("--kind", choices=("rfm", "features", "retention", "monetization"), default="rfm")
    p.add_argument("--transactions", required=True)
    p.add_argument("--events")
    p.add_argument("--iso-dates", action="store_true")
    p.add_argument("--observation-end", type=float)
    p.add_argument("--window", type=float, default=7.0)
    p.add_argument("--horizon", type=float, default=180.0)
    p.add_argument("--days", type=int, default=30)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("split", help="calibration/holdout split at a cutoff day")
    p.add_argument("--transactions", required=True)
    p.add_argument("--events")
    p.add_argument("--iso-dates", action="store_true")
    p.add_argument("--cutoff", type=float, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("simulate", parents=[seeded], help="generate a synthetic cohort")
    p.add_argument("--model", choices=tuple(_SIMULATORS), required=True)
    p.add_argument("--n-customers", type=int, required=True)
    p.add_argument("--days", type=float, required=True)
    p.add_argument("--params", required=True, help="e.g. r=0.5,alpha=10,s=0.6,beta=12")
    p.add_argument("--spend", help="e.g. p=6,q=4,gamma=15")
    p.add_argument("--sessions-per-day", type=float, default=0.0)
    p.add_argument("--rounds-per-session", type=float, default=0.0)
    p.add_argument("--spread", type=float, default=0.0)
    p.add_argument("--conversion-rate", type=float, default=1.0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", parents=[seeded, periodic], help="fit a model and save an artifact")
    p.add_argument("--model", required=True, choices=art.MODEL_KINDS)
    p.add_argument("--input")
    p.add_argument("--out", required=True)
    p.add_argument("--penalizer", type=float, default=0.0)
    p.add_argument("--payers-only", action="store_true")
    p.add_argument("--family", choices=("power_law", "exponential"), default="exponential")
    p.add_argument("--recency-cells", type=int, default=4)
    p.add_argument("--gc", type=float, default=0.0)
    p.add_argument("--promotion", type=float, default=0.0)
    p.add_argument("--retention", type=float, default=1.0)
    p.add_argument("--discount-rate", type=float, default=0.0)
    p.add_argument("--periods", type=int, default=0)
    p.add_argument("--n-trees", type=int, default=100)
    p.add_argument("--max-depth", type=int)
    p.add_argument("--min-leaf", type=int, default=1)
    p.add_argument("--no-bootstrap", action="store_true")
    p.add_argument("--smote-ratio", type=float)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", parents=[periodic], help="apply a saved artifact to new data")
    p.add_argument("--artifact", required=True)
    p.add_argument("--spend-artifact")
    p.add_argument("--input")
    p.add_argument("--horizon", type=float, default=180.0)
    p.add_argument("--discount-rate", type=float, default=0.01)
    p.add_argument("--infinite", action="store_true")
    p.add_argument("--arpdau", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", parents=[seeded], help="k-fold cross-validation of a supervised model")
    p.add_argument("--input", required=True)
    p.add_argument("--model", choices=("forest", "three_stage"), default="forest")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--n-trees", type=int, default=100)
    p.add_argument("--max-depth", type=int)
    p.add_argument("--min-leaf", type=int, default=1)
    p.add_argument("--no-bootstrap", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("segment", parents=[periodic], help="RFM quintiles, weighted ranks, CLV segments")
    p.add_argument("--summaries", required=True)
    p.add_argument("--weights", default="0.34,0.33,0.33")
    p.add_argument("--artifact")
    p.add_argument("--spend-artifact")
    p.add_argument("--holdout")
    p.add_argument("--horizon", type=float, default=180.0)
    p.add_argument("--discount-rate", type=float, default=0.01)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_segment)

    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args) or 0
    except SystemExit as e:
        return int(e.code or 0)
    except FileNotFoundError as e:
        print(f"error: input file not found: {e.filename}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
