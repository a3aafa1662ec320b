"""Artifact round trips for every model kind, and malformed artifacts."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from f2pclv import artifacts as art
from f2pclv import btyd, cohort, markov, supervised
from f2pclv.errors import DataError
from f2pclv.forest import ForestConfig, fit_random_forest
from f2pclv.forest import predict as forest_predict

_DAYS = np.linspace(0.0, 400.0, 81)
_X = np.array([0.0, 1.0, 3.0, 12.0])
_T_X = np.array([0.0, 5.0, 40.0, 170.0])
_T = np.array([30.0, 90.0, 180.0, 180.0])


def _features():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(120, 4))
    counts = rng.poisson(1.0, size=120).astype(float)
    y = np.where(counts > 0, np.abs(x[:, 0]) * 10.0 + 1.0, 0.0)
    return x, y, np.where(y > 0, np.maximum(counts, 1.0), counts)


_CONFIG = ForestConfig(n_trees=4, max_depth=4, min_samples_leaf=3, seed=5)


def _btyd(params):
    return params, lambda m: np.concatenate(
        [btyd.p_alive(m, _X, _T_X, _T), btyd.expected_transactions(m, _X, _T_X, _T, 90.0)]
    )


def _chain():
    space = markov.StateSpace.recency_cells(2)
    transitions = markov.TransitionMatrix(space, np.array([[0.5, 0.3, 0.2], [0.4, 0.3, 0.3], [0.0, 0.0, 1.0]]))
    return transitions, markov.RewardVector(space, np.array([12.5, 3.0, 0.0]))


def _case(name):
    """(kind, model, predict) for one case name."""
    x, y, counts = _features()
    if name == "basic":
        return "basic", cohort.BasicCLVConfig(80.0, 12.0, 9, 0.83, 0.07), cohort.basic_clv
    if name == "retention_exponential":
        points = [(float(i), float(np.exp(-0.08 * i))) for i in range(40)]
        return "retention", cohort.fit_retention_curve(points, "exponential"), lambda m: m.ret(_DAYS)
    if name == "retention_kaplan_meier":
        curve = cohort.kaplan_meier([(3.0, False), (5.0, True), (9.0, False), (11.0, True)])
        return "retention", curve, lambda m: m.ret(_DAYS)
    if name == "monetization":
        curve = cohort.fit_monetization_curve([(2.0, 0.3), (10.0, 0.8), (30.0, 1.0)])
        return "monetization", curve, lambda m: m.mon(_DAYS)
    if name == "pareto_nbd":
        return ("pareto_nbd", *_btyd(btyd.ParetoNBDParams(0.55, 10.3, 0.61, 12.7)))
    if name == "bg_nbd":
        return ("bg_nbd", *_btyd(btyd.BGNBDParams(0.43, 7.9, 0.81, 2.47)))
    if name == "gamma_gamma":
        params = btyd.GammaGammaParams(6.1, 3.9, 15.2)
        return "gamma_gamma", params, lambda m: btyd.conditional_expected_value(m, _X + 1.0, _T_X + 2.0)
    if name == "markov":
        return "markov", _chain(), lambda m: np.concatenate([markov.mcm_clv(*m, 0.01, 12), markov.mcm_clv(*m, 0.01)])
    if name == "forest":
        return "forest", fit_random_forest(x, y, _CONFIG), lambda m: forest_predict(m, x)
    counts = counts if name == "three_stage_with_counts" else None
    model = supervised.fit_three_stage(x, y, purchase_counts=counts, config=_CONFIG)
    return "three_stage", model, lambda m: supervised.predict_three_stage(m, x)


_CASES = [
    "basic", "retention_exponential", "retention_kaplan_meier", "monetization", "pareto_nbd", "bg_nbd",
    "gamma_gamma", "markov", "forest", "three_stage_with_counts", "three_stage_without_counts",
]


def test_cases_cover_every_kind():
    assert {_case(name)[0] for name in _CASES} == set(art.MODEL_KINDS)


def _save(kind, model, path, fit_info=None):
    parameters = art.model_to_parameters(kind, model, fit_info)
    art.save_artifact(art.ModelArtifact(kind, parameters, metadata={"seed": 1}), path)


@pytest.mark.parametrize("name", _CASES)
def test_save_load_save_is_byte_identical_and_predicts_bit_for_bit(tmp_path, name):
    kind, model, predict = _case(name)
    info = {"nll": 123.25, "starts": [{"n_evals": 17, "converged": True}]} if kind in ("pareto_nbd", "bg_nbd") else None
    _save(kind, model, tmp_path / "a.json", info)
    reloaded = art.model_from_artifact(art.load_artifact(tmp_path / "a.json"))
    _save(kind, reloaded, tmp_path / "b.json", info)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert np.array_equal(predict(reloaded), predict(model))


@pytest.mark.parametrize("name", _CASES)
def test_saved_file_is_the_indented_json_of_the_artifact(tmp_path, name):
    kind, model, _ = _case(name)
    artifact = art.ModelArtifact(kind, art.model_to_parameters(kind, model, {"nll": 1.5}), metadata={"seed": 1})
    art.save_artifact(artifact, tmp_path / "a.json")
    assert (tmp_path / "a.json").read_text() == json.dumps(asdict(artifact), indent=2) + "\n"


def test_dataclass_kinds_store_their_fields_in_order():
    _, model, _ = _case("bg_nbd")
    assert art.model_to_parameters("bg_nbd", model, {"nll": 1.5}) == {**asdict(model), "nll": 1.5}
    assert list(art.model_to_parameters("bg_nbd", model, {"nll": 1.5})) == ["r", "alpha", "a", "b", "nll"]


def test_unknown_kind_is_a_data_error_both_ways(tmp_path):
    _, model, _ = _case("bg_nbd")
    with pytest.raises(DataError, match="unknown model_kind 'mystery'"):
        art.model_to_parameters("mystery", model)
    with pytest.raises(DataError, match="unknown model_kind 'mystery'"):
        art.model_from_artifact(art.ModelArtifact("mystery", asdict(model)))
    with pytest.raises(DataError, match="unknown model_kind 'mystery'"):
        art.save_artifact(art.ModelArtifact("mystery", asdict(model)), tmp_path / "a.json")
    (tmp_path / "b.json").write_text(json.dumps({"model_kind": "mystery", "parameters": {}, "schema_version": 1}))
    with pytest.raises(DataError, match="unknown model_kind 'mystery'"):
        art.load_artifact(tmp_path / "b.json")


@pytest.mark.parametrize(
    "text", ["{not json", "", "[1, 2]", '{"schema_version": 1, "model_kind": "bg_nbd"}'],
    ids=["truncated", "empty", "not_an_object", "no_parameters"],
)
def test_unreadable_artifact_is_a_data_error_naming_the_file(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(DataError, match="bad.json"):
        art.load_artifact(path)


@pytest.mark.parametrize("name", _CASES)
def test_each_missing_parameter_is_a_data_error_naming_kind_and_field(name):
    kind, model, _ = _case(name)
    parameters = art.model_to_parameters(kind, model)
    for key in parameters:
        blob = {k: v for k, v in parameters.items() if k != key}
        with pytest.raises(DataError, match=f"{kind} artifact lacks parameter '{key}'"):
            art.model_from_artifact(art.ModelArtifact(kind, blob))


@pytest.mark.parametrize(
    "name, nested, key", [("forest", "config", "n_trees"), ("three_stage_with_counts", "count_forest", "trees")]
)
def test_missing_nested_parameter_is_a_data_error(name, nested, key):
    kind, model, _ = _case(name)
    parameters = art.model_to_parameters(kind, model)
    del parameters[nested][key]
    with pytest.raises(DataError, match=f"{kind} artifact lacks parameter '{key}'"):
        art.model_from_artifact(art.ModelArtifact(kind, parameters))


@pytest.mark.parametrize(
    "kind, key, value",
    [("bg_nbd", "r", "x"), ("pareto_nbd", "beta", -1.0), ("forest", "config", "x"), ("markov", "matrix", [[1.0]])],
)
def test_malformed_parameter_is_a_data_error_naming_the_kind(kind, key, value):
    parameters = {**art.model_to_parameters(kind, _case(kind)[1]), key: value}
    with pytest.raises(DataError, match=f"{kind} artifact: "):
        art.model_from_artifact(art.ModelArtifact(kind, parameters))
