"""Supervised CLV prediction: early-behavior features, minority
oversampling adapted to regression targets, forest models, and k-fold
evaluation.

Features summarize each player's first days of activity; the target is
their cumulative purchase revenue through a fixed horizon. Payers are a
small minority, so training data can be rebalanced with a SMOTE-NC-style
resampler whose target value is interpolated with the same coefficient as
the continuous features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import (
    TransactionLog,
    _distinct_days,
    _group_by_customer,
    read_csv,
    read_header,
    write_csv,
)
from .errors import DataError
from .forest import FittedForest, ForestConfig, fit_random_forest
from .forest import predict as forest_predict

FEATURE_COLUMNS = (
    "number_of_sessions",
    "number_of_rounds",
    "number_of_days",
    "number_of_purchases",
    "total_purchase_amount",
)


@dataclass
class FeatureMatrix:
    columns: tuple[str, ...]
    kinds: tuple[str, ...]  # 'continuous' | 'categorical'
    values: np.ndarray
    player_ids: tuple[str, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] != len(self.columns):
            raise DataError("values shape must be (players, columns)")
        if len(self.kinds) != len(self.columns):
            raise DataError("one kind tag per column required")
        if any(k not in ("continuous", "categorical") for k in self.kinds):
            raise DataError("kinds must be 'continuous' or 'categorical'")
        if not np.all(np.isfinite(v)):
            raise DataError("features must be finite")
        self.values = v


@dataclass
class ExtractedDataset:
    features: FeatureMatrix
    targets: np.ndarray
    purchase_counts: np.ndarray  # future purchases through the horizon
    n_excluded: int


def extract_features(
    log: TransactionLog,
    window: float = 7.0,
    target_horizon: float = 180.0,
    observation_end: float | None = None,
) -> ExtractedDataset:
    """Per-player counters over [first_event, first_event + window) and the
    cumulative purchase value through first_event + target_horizon.

    Players whose first activity is closer than `window` to the end of
    observation are excluded (their early window is truncated) and counted.
    """
    for name, value in (("window", window), ("target_horizon", target_horizon)):
        if not math.isfinite(value):
            raise DataError(f"{name} must be finite, got {value}")
    if window <= 0 or target_horizon < window:
        raise DataError("need window > 0 and target_horizon >= window")
    if observation_end is None:
        observation_end = log.last_timestamp()
    elif not math.isfinite(observation_end):
        raise DataError(f"observation_end must be finite, got {observation_end}")
    ids, [(r_codes, r_times), (e_codes, e_times)], first = _group_by_customer(log.records, log.events)
    included = first <= observation_end - window
    n = int(included.sum())
    row = np.cumsum(included) - 1  # feature row of each included player

    def early(codes, times):
        """Feature row and day of each row of an included player inside its
        window, and the mask that picks those rows."""
        offsets = times - first[codes]
        keep = included[codes] & (offsets < window)
        return row[codes[keep]], np.floor(offsets[keep]).astype(np.intp), keep

    e_rows, e_days, e_keep = early(e_codes, e_times)
    r_rows, r_days, r_keep = early(r_codes, r_times)
    kinds = log.events.payload[e_keep]
    active_rows, _ = _distinct_days(np.concatenate([e_rows, r_rows]), np.concatenate([e_days, r_days]))
    amounts = log.records.payload
    horizon = included[r_codes] & (r_times - first[r_codes] <= target_horizon)
    # bincount adds the weights in row order, as a running sum per player would
    values = np.column_stack([
        np.bincount(e_rows[kinds == "session_start"], minlength=n),
        np.bincount(e_rows[kinds == "round_played"], minlength=n),
        np.bincount(active_rows, minlength=n),
        np.bincount(r_rows, minlength=n),
        np.bincount(r_rows, weights=amounts[r_keep], minlength=n),
    ])
    target = np.bincount(row[r_codes[horizon]], weights=amounts[horizon], minlength=n)
    future_counts = np.bincount(row[r_codes[horizon]], minlength=n).astype(float)
    features = FeatureMatrix(
        columns=FEATURE_COLUMNS,
        kinds=("continuous",) * len(FEATURE_COLUMNS),
        values=values,
        player_ids=tuple(ids[i] for i in np.flatnonzero(included)),
    )
    return ExtractedDataset(
        features=features,
        targets=target,
        purchase_counts=future_counts,
        n_excluded=len(ids) - n,
    )


def write_feature_csv(dataset: ExtractedDataset, path) -> None:
    fm = dataset.features
    table = np.column_stack([fm.values, dataset.targets, dataset.purchase_counts])
    write_csv(path, ("player_id",) + fm.columns + ("future_revenue", "future_purchases"), [fm.player_ids, *table.T])


def read_feature_csv(path) -> ExtractedDataset:
    """Read a file written by `write_feature_csv`; a file whose header has
    no future_purchases column reads as zero purchase counts."""
    counted = "future_purchases" in read_header(path)
    columns = ("player_id",) + FEATURE_COLUMNS + ("future_revenue",) + ("future_purchases",) * counted
    ids, *cells = read_csv(path, columns, (str,) + (float,) * (len(columns) - 1))
    if not ids:
        raise DataError(f"no feature rows in {path}")
    n = len(FEATURE_COLUMNS)
    values = np.column_stack(cells[:n])
    targets = np.array(cells[n])
    counts = np.array(cells[n + 1]) if counted else np.zeros(len(ids))
    features = FeatureMatrix(
        columns=FEATURE_COLUMNS,
        kinds=("continuous",) * n,
        values=values,
        player_ids=tuple(ids),
    )
    return ExtractedDataset(features=features, targets=targets, purchase_counts=counts, n_excluded=0)


# ---------------------------------------------------------------------------
# SMOTE-NC adapted to regression targets


@dataclass
class SmoteConfig:
    target_ratio: float
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_ratio <= 1.0:
            raise DataError("target_ratio must lie in (0, 1]")
        if self.k_neighbors < 1:
            raise DataError("k_neighbors must be >= 1")


@dataclass
class SyntheticRow:
    seed_row: int
    neighbor_row: int
    coefficient: float


def _neighbor_distances(z_cont, cat, penalty_sq):
    """Squared distances between minority rows: standardized continuous
    Euclidean plus the SMOTE-NC penalty per differing categorical value.
    The squares add one feature at a time into one n x n matrix."""
    d2 = np.zeros((len(z_cont), len(z_cont)))
    for column in z_cont.T:
        d2 += (column[:, None] - column[None, :]) ** 2
    if cat.shape[1]:
        mismatches = (cat[:, None, :] != cat[None, :, :]).sum(axis=2)
        d2 = d2 + penalty_sq * mismatches
    return d2


def _nearest(d2, k):
    """The columns of each row's k smallest entries, nearest first and ties
    in column order: the first k of each row's stable argsort. A partition
    finds each row's k-th smallest entry, and only the entries at or below it
    are sorted, by (row, entry, column)."""
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    row, col = np.nonzero(d2 <= kth[:, None])
    col = col[np.lexsort((col, d2[row, col], row))]
    counts = np.bincount(row, minlength=len(d2))
    return col[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]


def smote_nc_regression(
    features: FeatureMatrix, y, config: SmoteConfig, return_details: bool = False
):
    """Oversample payers (y > 0) with synthetic rows until they make up
    config.target_ratio of the data.

    A synthetic row interpolates the continuous features of a minority seed
    toward one of its k nearest minority neighbors; its categorical
    features take the majority value among those neighbors; and its target
    uses the same interpolation coefficient as the continuous features.
    Original rows are preserved verbatim as a prefix of the output.
    """
    y = np.asarray(y, dtype=float)
    x = features.values
    if len(y) != len(x):
        raise DataError("y must align with the feature rows")
    minority = np.flatnonzero(y > 0)
    n_min, n_total = len(minority), len(y)
    if n_min < config.k_neighbors + 1:
        raise DataError(
            f"need at least k+1 = {config.k_neighbors + 1} payer rows, found {n_min}"
        )
    if config.target_ratio == 1.0:
        if n_min != n_total:
            raise DataError("target_ratio = 1 is unreachable while majority rows exist")
        n_synth = 0
    else:
        needed = (config.target_ratio * n_total - n_min) / (1.0 - config.target_ratio)
        n_synth = max(0, int(np.ceil(needed - 1e-12)))

    cont_cols = [i for i, k in enumerate(features.kinds) if k == "continuous"]
    cat_cols = [i for i, k in enumerate(features.kinds) if k == "categorical"]
    x_min = x[minority]
    cont = x_min[:, cont_cols]
    sd = cont.std(axis=0)
    scale = np.where(sd > 0, sd, 1.0)
    z_cont = np.where(sd > 0, (cont - cont.mean(axis=0)) / scale, 0.0)
    # With standardized continuous features the per-feature std is 1, so
    # the categorical penalty (the median of those stds) is 1 unless every
    # continuous feature is degenerate.
    penalty = 1.0 if (sd > 0).any() else 0.0
    d2 = _neighbor_distances(z_cont, x_min[:, cat_cols], penalty**2)
    np.fill_diagonal(d2, np.inf)
    neighbor_ids = _nearest(d2, config.k_neighbors)

    rng = np.random.default_rng(config.seed)
    synth_x = np.empty((n_synth, x.shape[1]))
    synth_y = np.empty(n_synth)
    details: list[SyntheticRow] = []
    for t in range(n_synth):
        si = t % n_min
        nb = neighbor_ids[si][rng.integers(0, config.k_neighbors)]
        u = rng.random()
        row = x_min[si].copy()
        row[cont_cols] = x_min[si, cont_cols] + u * (x_min[nb, cont_cols] - x_min[si, cont_cols])
        for c in cat_cols:
            vals, counts = np.unique(x_min[neighbor_ids[si], c], return_counts=True)
            top = vals[counts == counts.max()]
            row[c] = x_min[si, c] if x_min[si, c] in top else top[0]
        synth_x[t] = row
        synth_y[t] = y[minority[si]] + u * (y[minority[nb]] - y[minority[si]])
        details.append(SyntheticRow(int(minority[si]), int(minority[nb]), float(u)))

    out = FeatureMatrix(
        columns=features.columns,
        kinds=features.kinds,
        values=np.vstack([x, synth_x]) if n_synth else x.copy(),
        player_ids=features.player_ids
        + tuple(f"synthetic{t:06d}" for t in range(n_synth)),
    )
    y_out = np.concatenate([y, synth_y])
    if return_details:
        return out, y_out, details
    return out, y_out


# ---------------------------------------------------------------------------
# Forest front-ends


class ForestRegressor:
    """fit/predict adapter over the functional forest, for evaluation."""

    def __init__(self, config: ForestConfig | None = None):
        self.config = config or ForestConfig()
        self._forest: FittedForest | None = None

    def fit(self, x, y):
        self._forest = fit_random_forest(x, y, self.config)
        return self

    def predict(self, x):
        if self._forest is None:
            raise DataError("model is not fitted")
        return forest_predict(self._forest, x)


@dataclass
class ThreeStageModel:
    """Buy-at-all classifier x purchase-count x purchase-value forests; no
    count forest when it was fitted without purchase counts."""

    payer_classifier: FittedForest
    count_forest: FittedForest | None
    value_forest: FittedForest


def fit_three_stage(
    x,
    y,
    purchase_counts=None,
    config: ForestConfig | None = None,
) -> ThreeStageModel:
    """Decompose revenue prediction into payer probability, purchase count,
    and per-purchase value, each modeled by a forest.

    Without observed future purchase counts there is no count stage, and
    the value stage absorbs the full payer revenue.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    config = config or ForestConfig()
    payers = y > 0
    if not payers.any():
        raise DataError("no payers in the training data")
    counts, count_forest = 1.0, None
    if purchase_counts is not None:
        counts = np.asarray(purchase_counts, dtype=float)[payers]
        if np.any(counts < 1):
            raise DataError("payers must have purchase_counts >= 1")
        count_forest = fit_random_forest(x[payers], counts, config)
    classifier = fit_random_forest(x, payers.astype(float), config, classifier=True)
    value_forest = fit_random_forest(x[payers], y[payers] / counts, config)
    return ThreeStageModel(classifier, count_forest, value_forest)


def predict_three_stage(model: ThreeStageModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    revenue = forest_predict(model.payer_classifier, x)
    if model.count_forest is not None:
        revenue = revenue * forest_predict(model.count_forest, x)
    return revenue * forest_predict(model.value_forest, x)


class ThreeStageRegressor:
    """fit/predict adapter over the three-stage composite."""

    def __init__(self, config: ForestConfig | None = None):
        self.config = config or ForestConfig()
        self._model: ThreeStageModel | None = None

    def fit(self, x, y):
        self._model = fit_three_stage(x, y, config=self.config)
        return self

    def predict(self, x):
        if self._model is None:
            raise DataError("model is not fitted")
        return predict_three_stage(self._model, x)


# ---------------------------------------------------------------------------
# Evaluation


@dataclass
class FoldMetrics:
    fold: int
    n_test: int
    mse: float
    nrmse: float | None


@dataclass
class EvalMetrics:
    mse: float
    nrmse: float | None
    target_range: float
    folds: list[FoldMetrics] = field(default_factory=list)


def evaluate(
    make_model: Callable[[], object],
    x,
    y,
    k: int = 10,
    seed: int = 0,
    shuffle: bool = True,
) -> EvalMetrics:
    """Seeded k-fold cross-validation reporting MSE and NRMSE.

    NRMSE divides the fold RMSE by the target range over the full dataset;
    with a constant target it is undefined and reported as None.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if k < 2:
        raise DataError("k must be >= 2")
    if len(y) < k:
        raise DataError("need at least k rows")
    indices = np.arange(len(y))
    if shuffle:
        np.random.default_rng(seed).shuffle(indices)
    y_range = float(y.max() - y.min())
    folds = []
    for f, test_idx in enumerate(np.array_split(indices, k)):
        train_idx = np.setdiff1d(indices, test_idx)
        model = make_model()
        model.fit(x[train_idx], y[train_idx])
        pred = np.asarray(model.predict(x[test_idx]), dtype=float)
        mse = float(np.mean((pred - y[test_idx]) ** 2))
        nrmse = float(np.sqrt(mse) / y_range) if y_range > 0 else None
        folds.append(FoldMetrics(fold=f, n_test=len(test_idx), mse=mse, nrmse=nrmse))
    mean_mse = float(np.mean([fm.mse for fm in folds]))
    mean_nrmse = (
        float(np.mean([fm.nrmse for fm in folds])) if y_range > 0 else None
    )
    return EvalMetrics(mse=mean_mse, nrmse=mean_nrmse, target_range=y_range, folds=folds)
