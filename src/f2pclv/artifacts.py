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
from functools import partial

import numpy as np

from .btyd import BGNBDParams, GammaGammaParams, ParetoNBDParams
from .cohort import BasicCLVConfig, MonetizationCurve, RetentionCurve
from .errors import DataError
from .forest import FittedForest, ForestConfig
from .markov import RewardVector, StateSpace, TransitionMatrix
from .supervised import ThreeStageModel

SCHEMA_VERSION = 1


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
        # the fields as they are: parameters from model_to_parameters are
        # plain JSON values already, which asdict would deep-copy again
        json.dump({f.name: getattr(artifact, f.name) for f in fields(artifact)}, fh, indent=2)
        fh.write("\n")


def load_artifact(path) -> ModelArtifact:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except ValueError as e:
        raise DataError(f"{path} is not a JSON artifact: {e}") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path} is not a model artifact")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(
            f"artifact schema version {version} does not match supported version {SCHEMA_VERSION}"
        )
    kind = raw.get("model_kind")
    if kind not in MODEL_KINDS:
        raise DataError(f"unknown model_kind {kind!r} in {path}")
    if not isinstance(raw.get("parameters"), dict):
        raise DataError(f"{path} holds no parameters object")
    return ModelArtifact(
        model_kind=kind,
        parameters=raw["parameters"],
        schema_version=version,
        metadata=raw.get("metadata", {}),
    )


# ---------------------------------------------------------------------------
# model <-> parameter-blob conversion


def _of(cls, blob: dict, **nested):
    """An instance of the dataclass `cls` from the blob's entries for its
    fields, each passed through its converter in `nested` if it has one.
    Other entries, such as fit info, are ignored."""
    values = {f.name: blob[f.name] for f in fields(cls)}
    for name, convert in nested.items():
        values[name] = convert(values[name])
    return cls(**values)


def _forest(blob: dict) -> FittedForest:
    return _of(FittedForest, blob, config=partial(_of, ForestConfig))


def _markov_blob(model) -> dict:
    transitions, rewards = model
    return {
        "labels": list(transitions.space.labels),
        "churn_index": transitions.space.churn_index,
        "matrix": transitions.matrix.tolist(),
        "rewards": rewards.values.tolist(),
    }


def _markov(blob: dict):
    space = StateSpace(labels=tuple(blob["labels"]), churn_index=blob["churn_index"])
    transitions = TransitionMatrix(space=space, matrix=np.array(blob["matrix"]))
    return transitions, RewardVector(space=space, values=np.array(blob["rewards"]))


# model_kind -> (model -> parameter blob, parameter blob -> model). Every
# model but the Markov (transitions, rewards) pair is a dataclass stored as
# its fields. A three-stage count forest is null when it was fitted without
# purchase counts; older artifacts hold a forest of constant 1 there instead,
# which scales predictions by exactly 1.0.
_KINDS = {
    "basic": (asdict, partial(_of, BasicCLVConfig)),
    "retention": (asdict, partial(_of, RetentionCurve, steps=lambda steps: [tuple(step) for step in steps])),
    "monetization": (asdict, partial(_of, MonetizationCurve)),
    "pareto_nbd": (asdict, partial(_of, ParetoNBDParams)),
    "bg_nbd": (asdict, partial(_of, BGNBDParams)),
    "gamma_gamma": (asdict, partial(_of, GammaGammaParams)),
    "markov": (_markov_blob, _markov),
    "forest": (asdict, _forest),
    "three_stage": (asdict, partial(
        _of, ThreeStageModel, payer_classifier=_forest, value_forest=_forest,
        count_forest=lambda blob: None if blob is None else _forest(blob),
    )),
}
MODEL_KINDS = tuple(_KINDS)


def model_to_parameters(kind: str, model, fit_info: dict | None = None) -> dict:
    """Serialize a fitted model of the given kind to a JSON-safe dict."""
    if kind not in _KINDS:
        raise DataError(f"unknown model_kind {kind!r}")
    return {**_KINDS[kind][0](model), **(fit_info or {})}


def model_from_artifact(artifact: ModelArtifact):
    """Rebuild the in-memory model object(s) from an artifact. A missing or
    malformed parameter is a DataError naming the kind."""
    kind = artifact.model_kind
    if kind not in _KINDS:
        raise DataError(f"unknown model_kind {kind!r}")
    try:
        return _KINDS[kind][1](artifact.parameters)
    except KeyError as e:
        raise DataError(f"{kind} artifact lacks parameter {e.args[0]!r}") from None
    except (TypeError, ValueError) as e:
        raise DataError(f"{kind} artifact: {e}") from None
