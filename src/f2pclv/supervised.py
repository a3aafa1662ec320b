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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import TransactionLog, read_columns, write_csv
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
    if window <= 0 or target_horizon < window:
        raise DataError("need window > 0 and target_horizon >= window")
    if observation_end is None:
        observation_end = log.last_timestamp()
    first: dict[str, float] = {}
    for r in log.records:
        if r.customer_id not in first or r.timestamp < first[r.customer_id]:
            first[r.customer_id] = r.timestamp
    for e in log.events:
        if e.customer_id not in first or e.timestamp < first[e.customer_id]:
            first[e.customer_id] = e.timestamp

    included = sorted(cid for cid, t0 in first.items() if t0 <= observation_end - window)
    n_excluded = len(first) - len(included)
    index = {cid: i for i, cid in enumerate(included)}
    n = len(included)
    sessions = np.zeros(n)
    rounds = np.zeros(n)
    days: list[set[int]] = [set() for _ in range(n)]
    purchases = np.zeros(n)
    amount = np.zeros(n)
    target = np.zeros(n)
    future_counts = np.zeros(n)

    for e in log.events:
        i = index.get(e.customer_id)
        if i is None:
            continue
        offset = e.timestamp - first[e.customer_id]
        if 0 <= offset < window:
            if e.kind == "session_start":
                sessions[i] += 1
            elif e.kind == "round_played":
                rounds[i] += 1
            days[i].add(int(np.floor(offset)))
    for r in log.records:
        i = index.get(r.customer_id)
        if i is None:
            continue
        offset = r.timestamp - first[r.customer_id]
        if 0 <= offset < window:
            purchases[i] += 1
            amount[i] += r.value
            days[i].add(int(np.floor(offset)))
        if 0 <= offset <= target_horizon:
            target[i] += r.value
            future_counts[i] += 1

    values = np.column_stack(
        [sessions, rounds, np.array([len(d) for d in days], dtype=float), purchases, amount]
    )
    features = FeatureMatrix(
        columns=FEATURE_COLUMNS,
        kinds=("continuous",) * len(FEATURE_COLUMNS),
        values=values,
        player_ids=tuple(included),
    )
    return ExtractedDataset(
        features=features,
        targets=target,
        purchase_counts=future_counts,
        n_excluded=n_excluded,
    )


def write_feature_csv(dataset: ExtractedDataset, path) -> None:
    fm = dataset.features
    table = np.column_stack([fm.values, dataset.targets, dataset.purchase_counts]).tolist()
    rows = ([pid, *map(repr, cells)] for pid, cells in zip(fm.player_ids, table))
    write_csv(path, ("player_id",) + fm.columns + ("future_revenue", "future_purchases"), rows)


def read_feature_csv(path) -> ExtractedDataset:
    """Read a file written by `write_feature_csv`; a file without a
    future_purchases column reads as zero purchase counts."""
    columns = ("player_id",) + FEATURE_COLUMNS + ("future_revenue", "future_purchases")
    with open(path, newline="") as fh:
        try:
            rows = list(read_columns(fh, columns))
        except DataError:  # read again without the counts; a column still missing raises
            fh.seek(0)
            rows = [cells + ["0"] for cells in read_columns(fh, columns[:-1])]
    if not rows:
        raise DataError(f"no feature rows in {path}")
    n = len(FEATURE_COLUMNS)
    try:
        values = np.array([[float(c) for c in cells[1 : n + 1]] for cells in rows])
        targets = np.array([float(cells[n + 1]) for cells in rows])
        counts = np.array([float(cells[n + 2]) for cells in rows])
    except (TypeError, ValueError) as e:
        raise DataError(f"malformed cell in {path}: {e}") from None
    features = FeatureMatrix(
        columns=FEATURE_COLUMNS,
        kinds=("continuous",) * n,
        values=values,
        player_ids=tuple(cells[0] for cells in rows),
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
    Euclidean plus the SMOTE-NC penalty per differing categorical value."""
    diff = z_cont[:, None, :] - z_cont[None, :, :]
    d2 = np.sum(diff**2, axis=2)
    if cat.shape[1]:
        mismatches = (cat[:, None, :] != cat[None, :, :]).sum(axis=2)
        d2 = d2 + penalty_sq * mismatches
    return d2


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
    live = sd > 0
    penalty = float(np.median(np.ones(live.sum()))) if live.any() else 0.0
    d2 = _neighbor_distances(z_cont, x_min[:, cat_cols], penalty**2)
    np.fill_diagonal(d2, np.inf)
    neighbor_ids = np.argsort(d2, axis=1, kind="stable")[:, : config.k_neighbors]

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
    """Buy-at-all classifier x purchase-count x purchase-value forests."""

    payer_classifier: FittedForest
    count_forest: FittedForest
    value_forest: FittedForest
    counts_supplied: bool


def fit_three_stage(
    x,
    y,
    purchase_counts=None,
    config: ForestConfig | None = None,
) -> ThreeStageModel:
    """Decompose revenue prediction into payer probability, purchase count,
    and per-purchase value, each modeled by a forest.

    Without observed future purchase counts the count stage trains on a
    constant 1 and the value stage absorbs the full payer revenue.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    config = config or ForestConfig()
    payers = y > 0
    if not payers.any():
        raise DataError("no payers in the training data")
    if purchase_counts is None:
        counts = np.ones(int(payers.sum()))
        supplied = False
    else:
        counts = np.asarray(purchase_counts, dtype=float)[payers]
        if np.any(counts < 1):
            raise DataError("payers must have purchase_counts >= 1")
        supplied = True
    classifier = fit_random_forest(x, payers.astype(float), config, classifier=True)
    count_forest = fit_random_forest(x[payers], counts, config)
    value_forest = fit_random_forest(x[payers], y[payers] / counts, config)
    return ThreeStageModel(classifier, count_forest, value_forest, supplied)


def predict_three_stage(model: ThreeStageModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    p_payer = forest_predict(model.payer_classifier, x)
    count = forest_predict(model.count_forest, x)
    value = forest_predict(model.value_forest, x)
    return p_payer * count * value


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
