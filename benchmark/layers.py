"""Where the traced run wraps the library, and the per-layer metrics it derives.

Each layer is a package module. Wrappers sit on the public functions each
layer exposes, at the binding its callers use: the benchmark calls through
module attributes, and library modules that import a function by name
(``btyd.log_hyp2f1``, ``btyd.minimize_multistart``, ``btyd.summary_arrays``,
``supervised.fit_random_forest``, ``supervised.forest_predict``) are patched in
the importing module.
"""

from __future__ import annotations

import os

import numpy as np

from tracing import Tracer, self_times

# 2F1 switches to the 1 - z connection formula above this argument.
NEAR_ONE = 0.9

# (name, unit, better). The traced run reports every one of these on every
# workload, 0 where the layer is not called.
PER_LAYER = [
    ("special.calls", "count", "lower"),
    ("special.rows", "count", "lower"),
    ("special.self_s", "s", "lower"),
    ("special.rows_per_s", "1/s", "higher"),
    ("special.near_one_share", "ratio", "lower"),
    ("fitting.starts", "count", "lower"),
    ("fitting.evals", "count", "lower"),
    ("fitting.self_s", "s", "lower"),
    ("fitting.evals_per_s", "1/s", "higher"),
    ("btyd.loglik_self_s", "s", "lower"),
    ("btyd.fit_s.pareto_nbd", "s", "lower"),
    ("btyd.fit_s.bg_nbd", "s", "lower"),
    ("btyd.fit_s.gamma_gamma", "s", "lower"),
    ("btyd.fit_nonconverged", "count", "lower"),
    ("btyd.fit_param_rel_err", "ratio", "lower"),
    ("btyd.p_alive_s", "s", "lower"),
    ("btyd.expected_transactions_s", "s", "lower"),
    ("btyd.discounted_clv_s", "s", "lower"),
    ("btyd.special_calls_per_period", "count", "lower"),
    ("btyd.online_p50_ms", "ms", "lower"),
    ("btyd.online_p99_ms", "ms", "lower"),
    ("data.parse_s", "s", "lower"),
    ("data.parse_rows_per_s", "1/s", "higher"),
    ("data.write_s", "s", "lower"),
    ("data.write_rows_per_s", "1/s", "higher"),
    ("data.rejected_rows", "count", "lower"),
    ("data.split_s", "s", "lower"),
    ("data.rfm_s", "s", "lower"),
    ("data.segment_s", "s", "lower"),
    ("data.curves_s", "s", "lower"),
    ("data.summary_arrays_s", "s", "lower"),
    ("simulate.s", "s", "lower"),
    ("simulate.customers_per_s", "1/s", "higher"),
    ("cohort.fit_s", "s", "lower"),
    ("cohort.value_s", "s", "lower"),
    ("markov.histories_s", "s", "lower"),
    ("markov.discretize_s", "s", "lower"),
    ("markov.learn_s", "s", "lower"),
    ("markov.value_s", "s", "lower"),
    ("markov.cell_table_s", "s", "lower"),
    ("artifacts.save_s", "s", "lower"),
    ("artifacts.load_s", "s", "lower"),
    ("artifacts.bytes", "B", "lower"),
    ("supervised.features_s", "s", "lower"),
    ("supervised.smote_s", "s", "lower"),
    ("supervised.fit_self_s", "s", "lower"),
    ("supervised.cv_self_s", "s", "lower"),
    ("supervised.predict_self_s", "s", "lower"),
    ("supervised.cv_nrmse", "ratio", "lower"),
    ("forest.fit_s", "s", "lower"),
    ("forest.trees", "count", "lower"),
    ("forest.nodes", "count", "lower"),
    ("forest.predict_s", "s", "lower"),
    ("forest.predict_rows_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
]

# Counts that depend only on the inputs and the code; they are taken from the
# first traced round and must repeat exactly across runs at one seed.
EXACT_COUNTS = (
    "special.calls",
    "special.rows",
    "fitting.evals",
    "forest.nodes",
    "data.rejected_rows",
)


# ---------------------------------------------------------------------------
# hooks: counts recorded at a boundary


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _special_counts(args, kwargs, result):
    a, b, c, z = (_arg(args, kwargs, i, n) for i, n in enumerate("abcz"))
    shape = np.broadcast(a, b, c, z).shape
    rows = int(np.prod(shape)) if shape else 1
    near = int(np.count_nonzero(np.broadcast_to(np.asarray(z) > NEAR_ONE, shape)))
    return {"rows": rows, "near_one": near}


def _minimize_counts(args, kwargs, result):
    return {"starts": result.n_starts, "evals": result.n_evals}


def _fit_counts(args, kwargs, result):
    return {"converged": bool(result.converged)}


def _clv_counts(args, kwargs, result):
    horizon = _arg(args, kwargs, 3, "horizon")
    period = _arg(args, kwargs, 5, "period", 1.0)
    family = type(_arg(args, kwargs, 0, "purchase_params")).__name__
    return {"periods": int(round(horizon / period)), "family": family}


def _parse_counts(args, kwargs, result):
    return {"rows": result.total_rows, "rejected": result.rejected_rows}


def _write_records_counts(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 0, "log").records)}


def _write_events_counts(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 0, "log").events)}


def _simulate_counts(args, kwargs, result):
    return {"customers": _arg(args, kwargs, 0, "config").n_customers}


def _count_nodes(node) -> int:
    total, stack = 0, [node]
    while stack:
        nd = stack.pop()
        total += 1
        if "feature" in nd:
            stack.append(nd["left"])
            stack.append(nd["right"])
    return total


def _forest_fit_counts(args, kwargs, result):
    return {"trees": len(result.trees), "nodes": sum(_count_nodes(t) for t in result.trees)}


def _forest_predict_counts(args, kwargs, result):
    return {"rows": len(result)}


def _save_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def install(tracer: Tracer, lib) -> None:
    """Wrap every traced boundary; ``lib`` holds the imported f2pclv modules."""
    btyd, data, sup = lib.btyd, lib.data, lib.supervised

    def trace_objective(args, kwargs):
        objective = tracer.wrap(args[0], "btyd.objective")
        return (objective,) + tuple(args[1:]), kwargs

    p = tracer.patch
    p(btyd, "log_hyp2f1", "special.log_hyp2f1", _special_counts)
    p(btyd, "minimize_multistart", "fitting.minimize_multistart", _minimize_counts, trace_objective)
    p(btyd, "summary_arrays", "data.summary_arrays")
    for fn in ("fit_pareto_nbd", "fit_bg_nbd", "fit_gamma_gamma"):
        p(btyd, fn, f"btyd.{fn}", _fit_counts)
    p(btyd, "p_alive", "btyd.p_alive")
    p(btyd, "expected_transactions", "btyd.expected_transactions")
    p(btyd, "discounted_clv", "btyd.discounted_clv", _clv_counts)

    p(data, "parse_transaction_log", "data.parse", _parse_counts)
    p(data, "parse_event_log", "data.parse", _parse_counts)
    p(data, "write_transaction_csv", "data.write", _write_records_counts)
    p(data, "write_event_csv", "data.write", _write_events_counts)
    p(data, "split_calibration_holdout", "data.split")
    p(data, "rfm_summary", "data.rfm")
    p(data, "rfm_quintile_scores", "data.segment")
    p(data, "weighted_rfm_rank", "data.segment")
    p(data, "daily_active_fractions", "data.curves")
    p(data, "cumulative_revenue_fractions", "data.curves")
    p(data, "summary_arrays", "data.summary_arrays")

    p(lib.simulate, "simulate_pareto_nbd_cohort", "simulate.cohort", _simulate_counts)
    p(lib.simulate, "simulate_bg_nbd_cohort", "simulate.cohort", _simulate_counts)

    for fn in ("fit_retention_curve", "fit_monetization_curve"):
        p(lib.cohort, fn, "cohort.fit")
    for fn in ("retention_clv", "monetization_clv"):
        p(lib.cohort, fn, "cohort.value")

    mk = lib.markov
    p(mk, "histories_from_log", "markov.histories")
    p(mk, "discretize_states", "markov.discretize")
    p(mk, "learn_transition_matrix", "markov.learn")
    p(mk, "estimate_state_rewards", "markov.learn")
    p(mk, "mcm_clv", "markov.value")
    p(mk, "learn_recency_cell_table", "markov.cell_table")

    p(sup, "extract_features", "supervised.features")
    p(sup, "smote_nc_regression", "supervised.smote")
    p(sup, "fit_three_stage", "supervised.fit")
    p(sup, "predict_three_stage", "supervised.predict")
    p(sup, "evaluate", "supervised.cv")
    p(sup, "fit_random_forest", "forest.fit", _forest_fit_counts)
    p(sup, "forest_predict", "forest.predict", _forest_predict_counts)

    art = lib.artifacts
    p(art, "model_to_parameters", "artifacts.save")
    p(art, "save_artifact", "artifacts.save", _save_counts)
    p(art, "load_artifact", "artifacts.load")
    p(art, "model_from_artifact", "artifacts.load")


# ---------------------------------------------------------------------------
# metrics


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def round_totals(spans) -> dict[str, float]:
    """Additive totals of one round: seconds, counts and rate numerators.

    A ``*_s`` total sums the durations of spans not nested in another span of
    the same layer, so a layer's own internal calls are not counted twice; a
    ``*_self_s`` total sums self times.
    """
    ns = 1e-9
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)

    def ancestors(s):
        while s.parent is not None and s.parent in by_id:
            s = by_id[s.parent]
            yield s

    def outermost(s):
        layer = _layer(s.name)
        return all(_layer(a.name) != layer for a in ancestors(s))

    t: dict[str, float] = {}

    def add(key, value):
        t[key] = t.get(key, 0.0) + value

    duration_keys = {
        "btyd.p_alive": "btyd.p_alive_s",
        "btyd.expected_transactions": "btyd.expected_transactions_s",
        "btyd.discounted_clv": "btyd.discounted_clv_s",
        "btyd.fit_pareto_nbd": "btyd.fit_s.pareto_nbd",
        "btyd.fit_bg_nbd": "btyd.fit_s.bg_nbd",
        "btyd.fit_gamma_gamma": "btyd.fit_s.gamma_gamma",
        "data.parse": "data.parse_s",
        "data.write": "data.write_s",
        "data.split": "data.split_s",
        "data.rfm": "data.rfm_s",
        "data.segment": "data.segment_s",
        "data.curves": "data.curves_s",
        "data.summary_arrays": "data.summary_arrays_s",
        "simulate.cohort": "simulate.s",
        "cohort.fit": "cohort.fit_s",
        "cohort.value": "cohort.value_s",
        "markov.histories": "markov.histories_s",
        "markov.discretize": "markov.discretize_s",
        "markov.learn": "markov.learn_s",
        "markov.value": "markov.value_s",
        "markov.cell_table": "markov.cell_table_s",
        "artifacts.save": "artifacts.save_s",
        "artifacts.load": "artifacts.load_s",
        "supervised.features": "supervised.features_s",
        "supervised.smote": "supervised.smote_s",
        "forest.fit": "forest.fit_s",
        "forest.predict": "forest.predict_s",
        "fitting.minimize_multistart": "fitting.total_s",
    }
    self_keys = {
        "special.log_hyp2f1": "special.self_s",
        "fitting.minimize_multistart": "fitting.self_s",
        "btyd.objective": "btyd.loglik_self_s",
        "supervised.fit": "supervised.fit_self_s",
        "supervised.cv": "supervised.cv_self_s",
        "supervised.predict": "supervised.predict_self_s",
    }
    # 2F1 calls per period of Pareto/NBD CLV, which recomputes p_alive each period
    pareto_clv_ids = set()
    for s in spans:
        name, attrs = s.name, s.attrs or {}
        if name.startswith("bench."):
            continue
        if name in duration_keys and outermost(s):
            add(duration_keys[name], s.duration * ns)
        if name in self_keys:
            add(self_keys[name], selfs[s.id] * ns)
        if name == "special.log_hyp2f1":
            add("special.calls", 1)
            add("special.rows", attrs["rows"])
            add("special.near_rows", attrs["near_one"])
            if any(a.id in pareto_clv_ids for a in ancestors(s)):
                add("btyd.clv_special_calls", 1)
        elif name == "btyd.discounted_clv" and attrs["family"] == "ParetoNBDParams":
            pareto_clv_ids.add(s.id)
            add("btyd.clv_periods", attrs["periods"])
        elif name == "fitting.minimize_multistart":
            add("fitting.starts", attrs["starts"])
            add("fitting.evals", attrs["evals"])
        elif name.startswith("btyd.fit_"):
            add("btyd.fit_nonconverged", 0 if attrs["converged"] else 1)
        elif name == "data.parse":
            add("data.parse_rows", attrs["rows"])
            add("data.rejected_rows", attrs["rejected"])
        elif name == "data.write":
            add("data.write_rows", attrs["rows"])
        elif name == "simulate.cohort":
            add("simulate.customers", attrs["customers"])
        elif name == "forest.fit":
            add("forest.trees", attrs["trees"])
            add("forest.nodes", attrs["nodes"])
        elif name == "forest.predict":
            add("forest.predict_rows", attrs["rows"])
        elif name == "artifacts.save" and "bytes" in attrs:
            add("artifacts.bytes", attrs["bytes"])
    return t


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(rounds: list[dict], setups: list[dict], extra: dict) -> dict[str, float]:
    """Per-layer metric values from the traced rounds' and set-ups' totals.

    Times are means per traced round; rates divide totals summed over the
    traced rounds; counts come from the first traced round. ``extra`` carries
    values measured outside the spans (quality figures, latencies, overhead).
    """

    def total(key, source=rounds):
        return sum(r.get(key, 0.0) for r in source)

    first = rounds[0]
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in extra:
            out[name] = float(extra[name])
        elif name.startswith("simulate."):
            continue
        elif unit == "s":
            out[name] = total(name) / len(rounds)
        elif unit in ("count", "B"):
            out[name] = float(first.get(name, 0.0))
    out["special.rows_per_s"] = _ratio(total("special.rows"), total("special.self_s"))
    out["special.near_one_share"] = _ratio(first.get("special.near_rows", 0.0), first.get("special.rows", 0.0))
    out["fitting.evals_per_s"] = _ratio(total("fitting.evals"), total("fitting.total_s"))
    out["btyd.special_calls_per_period"] = _ratio(
        first.get("btyd.clv_special_calls", 0.0), first.get("btyd.clv_periods", 0.0)
    )
    out["data.parse_rows_per_s"] = _ratio(total("data.parse_rows"), total("data.parse_s"))
    out["data.write_rows_per_s"] = _ratio(total("data.write_rows"), total("data.write_s"))
    out["forest.predict_rows_per_s"] = _ratio(total("forest.predict_rows"), total("forest.predict_s"))
    sim_s = sorted(s.get("simulate.s", 0.0) for s in setups)
    out["simulate.s"] = sim_s[len(sim_s) // 2]
    out["simulate.customers_per_s"] = _ratio(total("simulate.customers", setups), total("simulate.s", setups))
    missing = [n for n, _, _ in PER_LAYER if n not in out]
    if missing:
        raise KeyError(f"per-layer metrics not derived: {missing}")
    return out
