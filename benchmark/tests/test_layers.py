import json
from pathlib import Path

import layers
import run
from tracing import Span

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _span(id, parent, name, start, end, **attrs):
    return Span(id, parent, 1, name, start, end, attrs or None)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_layer_times_skip_calls_nested_in_the_same_layer():
    s = 1_000_000_000
    spans = [
        _span(0, None, "bench.request", 0, 10 * s),
        _span(1, 0, "btyd.discounted_clv", 0, 8 * s, periods=2, family="ParetoNBDParams"),
        _span(2, 1, "btyd.expected_transactions", 1 * s, 4 * s),
        _span(3, 2, "special.log_hyp2f1", 2 * s, 3 * s, rows=5, near_one=1),
        _span(4, 2, "special.log_hyp2f1", 3 * s, 4 * s, rows=5, near_one=0),
        _span(5, 0, "btyd.expected_transactions", 8 * s, 9 * s),
    ]
    t = layers.round_totals(spans)
    assert t["btyd.discounted_clv_s"] == 8.0
    assert t["btyd.expected_transactions_s"] == 1.0  # the nested call is inside discounted_clv
    assert t["special.calls"] == 2 and t["special.rows"] == 10
    assert t["special.self_s"] == 2.0
    assert t["btyd.clv_special_calls"] == 2 and t["btyd.clv_periods"] == 2


def test_objective_self_time_excludes_special_and_fitting_excludes_objective():
    s = 1_000_000_000
    spans = [
        _span(0, None, "fitting.minimize_multistart", 0, 10 * s, starts=3, evals=2),
        _span(1, 0, "btyd.objective", 1 * s, 4 * s),
        _span(2, 1, "special.log_hyp2f1", 2 * s, 3 * s, rows=4, near_one=4),
        _span(3, 0, "btyd.objective", 5 * s, 7 * s),
    ]
    t = layers.round_totals(spans)
    assert t["fitting.self_s"] == 5.0
    assert t["btyd.loglik_self_s"] == 4.0
    assert t["fitting.evals"] == 2 and t["fitting.total_s"] == 10.0


def test_every_per_layer_metric_is_reported_and_zero_when_the_layer_is_idle():
    extra = {n: 0.0 for n in ("btyd.fit_param_rel_err", "supervised.cv_nrmse", "btyd.online_p50_ms", "btyd.online_p99_ms", "trace.overhead")}
    setup = {"simulate.s": 2.0, "simulate.customers": 10.0}
    values = layers.per_layer_metrics([{}, {}], [setup], extra)
    assert set(values) == {name for name, _, _ in layers.PER_LAYER}
    assert values["special.calls"] == 0 and values["fitting.evals"] == 0
    assert values["simulate.customers_per_s"] == 5.0
