"""Persisted model artifacts: JSON files holding fitted parameters plus
schema version and provenance metadata.

Floats survive the JSON round trip bit-for-bit (shortest-repr encoding),
so a reloaded model predicts identically to the in-memory one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from .btyd import BGNBDParams, GammaGammaParams, ParetoNBDParams
from .cohort import BasicCLVConfig, MonetizationCurve, RetentionCurve
from .errors import DataError
from .forest import FittedForest, ForestConfig
from .markov import RewardVector, StateSpace, TransitionMatrix
from .supervised import ThreeStageModel

SCHEMA_VERSION = 1

MODEL_KINDS = (
    "basic",
    "retention",
    "monetization",
    "pareto_nbd",
    "bg_nbd",
    "gamma_gamma",
    "markov",
    "forest",
    "three_stage",
)


@dataclass
class ModelArtifact:
    model_kind: str
    parameters: dict
    schema_version: int = SCHEMA_VERSION
    metadata: dict = field(default_factory=dict)


def fingerprint_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_metadata(seed=None, data_path=None) -> dict:
    md = {"created_utc": datetime.now(timezone.utc).isoformat()}
    if seed is not None:
        md["seed"] = seed
    if data_path is not None:
        md["data_fingerprint"] = fingerprint_file(data_path)
    return md


def save_artifact(artifact: ModelArtifact, path) -> None:
    if artifact.model_kind not in MODEL_KINDS:
        raise DataError(f"unknown model_kind {artifact.model_kind!r}")
    with open(path, "w") as fh:
        json.dump(asdict(artifact), fh, indent=2)
        fh.write("\n")


def load_artifact(path) -> ModelArtifact:
    with open(path) as fh:
        raw = json.load(fh)
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(
            f"artifact schema version {version} does not match supported version {SCHEMA_VERSION}"
        )
    kind = raw.get("model_kind")
    if kind not in MODEL_KINDS:
        raise DataError(f"unknown model_kind {kind!r} in {path}")
    return ModelArtifact(
        model_kind=kind,
        parameters=raw["parameters"],
        schema_version=version,
        metadata=raw.get("metadata", {}),
    )


# ---------------------------------------------------------------------------
# model <-> parameter-blob conversion


def _forest_from_blob(blob: dict) -> FittedForest:
    return FittedForest(
        config=ForestConfig(**blob["config"]),
        trees=blob["trees"],
        tree_seeds=blob["tree_seeds"],
        classifier=blob["classifier"],
        n_features=blob["n_features"],
    )


# Kinds whose model is one flat dataclass, stored as its fields.
_DATACLASS_KINDS = {
    "basic": BasicCLVConfig,
    "pareto_nbd": ParetoNBDParams,
    "bg_nbd": BGNBDParams,
    "gamma_gamma": GammaGammaParams,
}


def model_to_parameters(kind: str, model, fit_info: dict | None = None) -> dict:
    """Serialize a fitted model of the given kind to a JSON-safe dict."""
    info = dict(fit_info or {})
    if kind in _DATACLASS_KINDS or kind in ("forest", "three_stage"):
        return {**asdict(model), **info}
    if kind == "retention":
        return {
            "family": model.family,
            "k": model.k,
            "steps": [[float(t), float(s)] for t, s in model.steps],
            "rss": model.rss,
            **info,
        }
    if kind == "monetization":
        return {
            "knot_days": [float(v) for v in model.knot_days],
            "knot_fractions": [float(v) for v in model.knot_fractions],
            **info,
        }
    if kind == "markov":
        transitions, rewards = model
        return {
            "labels": list(transitions.space.labels),
            "churn_index": transitions.space.churn_index,
            "matrix": transitions.matrix.tolist(),
            "rewards": rewards.values.tolist(),
            **info,
        }
    raise DataError(f"unknown model_kind {kind!r}")


def model_from_artifact(artifact: ModelArtifact):
    """Rebuild the in-memory model object(s) from an artifact."""
    p = artifact.parameters
    kind = artifact.model_kind
    if kind in _DATACLASS_KINDS:
        cls = _DATACLASS_KINDS[kind]
        return cls(**{f.name: p[f.name] for f in fields(cls)})
    if kind == "retention":
        return RetentionCurve(
            family=p["family"],
            k=p["k"],
            steps=[(t, s) for t, s in p["steps"]],
            rss=p["rss"],
        )
    if kind == "monetization":
        return MonetizationCurve(knot_days=p["knot_days"], knot_fractions=p["knot_fractions"])
    if kind == "markov":
        space = StateSpace(labels=tuple(p["labels"]), churn_index=p["churn_index"])
        transitions = TransitionMatrix(space=space, matrix=np.array(p["matrix"]))
        rewards = RewardVector(space=space, values=np.array(p["rewards"]))
        return transitions, rewards
    if kind == "forest":
        return _forest_from_blob(p)
    if kind == "three_stage":
        # null without purchase counts; older artifacts hold a forest of
        # constant 1 there instead, which scales predictions by exactly 1.0
        count_forest = p["count_forest"] and _forest_from_blob(p["count_forest"])
        return ThreeStageModel(
            payer_classifier=_forest_from_blob(p["payer_classifier"]),
            count_forest=count_forest,
            value_forest=_forest_from_blob(p["value_forest"]),
        )
    raise DataError(f"unknown model_kind {kind!r}")
