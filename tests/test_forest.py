"""From-scratch regression forest: split quality, determinism, memorization."""

import json

import numpy as np
import pytest

from f2pclv import forest as forest_module
from f2pclv.errors import DataError
from f2pclv.forest import FittedForest, ForestConfig, fit_random_forest, predict


def _toy_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(n, 4))
    y = 3.0 * x[:, 0] - 2.0 * np.abs(x[:, 1]) + 0.3 * rng.normal(size=n)
    return x, y


def test_constant_target_predicts_constant():
    x, _ = _toy_data()
    y = np.full(len(x), 7.25)
    forest = fit_random_forest(x, y, ForestConfig(n_trees=5, seed=1))
    assert np.all(predict(forest, x) == 7.25)


def test_single_unbounded_tree_memorizes_distinct_rows():
    x, y = _toy_data(n=120, seed=2)
    config = ForestConfig(
        n_trees=1, max_depth=None, min_samples_leaf=1, bootstrap=False,
        features_per_split="all", seed=3,
    )
    forest = fit_random_forest(x, y, config)
    assert np.mean((predict(forest, x) - y) ** 2) == 0.0


def test_equal_targets_make_one_leaf():
    # 0.1 does not sum exactly: the mean of three is not 0.1, and the sum of
    # squares about it is not 0. Equal targets are a leaf by min == max.
    x = np.array([[0.0], [1.0], [2.0]])
    forest = fit_random_forest(x, np.full(3, 0.1), ForestConfig(n_trees=1, bootstrap=False))
    assert forest.trees == [{"n": 3, "value": 0.30000000000000004 / 3}]


def test_default_configuration():
    config = ForestConfig()
    assert config.n_trees == 100
    assert config.max_depth is None
    assert config.min_samples_leaf == 1
    assert config.bootstrap is True


def test_deterministic_under_seed():
    x, y = _toy_data(seed=4)
    a = fit_random_forest(x, y, ForestConfig(n_trees=12, seed=9))
    b = fit_random_forest(x, y, ForestConfig(n_trees=12, seed=9))
    grid = np.random.default_rng(5).uniform(-2, 2, size=(50, 4))
    assert np.array_equal(predict(a, grid), predict(b, grid))
    c = fit_random_forest(x, y, ForestConfig(n_trees=12, seed=10))
    assert not np.array_equal(predict(a, grid), predict(c, grid))


def test_prediction_row_order_invariance():
    x, y = _toy_data(seed=6)
    forest = fit_random_forest(x, y, ForestConfig(n_trees=8, seed=1))
    grid = np.random.default_rng(7).uniform(-2, 2, size=(40, 4))
    perm = np.random.default_rng(8).permutation(40)
    assert np.array_equal(predict(forest, grid)[perm], predict(forest, grid[perm]))


def test_predictions_bounded_by_training_targets():
    x, y = _toy_data(seed=9)
    forest = fit_random_forest(x, y, ForestConfig(n_trees=20, seed=2))
    grid = np.random.default_rng(10).uniform(-5, 5, size=(200, 4))
    out = predict(forest, grid)
    assert np.all(out >= y.min()) and np.all(out <= y.max())


def test_forest_improves_over_single_split_signal():
    x, y = _toy_data(n=400, seed=11)
    forest = fit_random_forest(x, y, ForestConfig(n_trees=40, min_samples_leaf=5, seed=3))
    pred = predict(forest, x)
    baseline = np.mean((y - y.mean()) ** 2)
    assert np.mean((pred - y) ** 2) < 0.5 * baseline


def test_classifier_votes_fraction():
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, size=(300, 2))
    y = (x[:, 0] > 0).astype(float)
    forest = fit_random_forest(x, y, ForestConfig(n_trees=15, seed=4), classifier=True)
    probs = predict(forest, np.array([[0.9, 0.0], [-0.9, 0.0]]))
    assert probs[0] > 0.9 and probs[1] < 0.1
    assert np.all((probs >= 0) & (probs <= 1))


def test_non_finite_inputs_rejected():
    x, y = _toy_data()
    x_bad = x.copy()
    x_bad[0, 0] = np.nan
    with pytest.raises(DataError):
        fit_random_forest(x_bad, y, ForestConfig(n_trees=2))
    y_bad = y.copy()
    y_bad[0] = np.inf
    with pytest.raises(DataError):
        fit_random_forest(x, y_bad, ForestConfig(n_trees=2))


def test_min_samples_leaf_respected():
    x, y = _toy_data(n=64, seed=13)
    forest = fit_random_forest(
        x, y, ForestConfig(n_trees=3, min_samples_leaf=10, bootstrap=False, features_per_split="all", seed=5)
    )

    def leaf_sizes(node):
        if "feature" not in node:
            return [node["n"]]
        return leaf_sizes(node["left"]) + leaf_sizes(node["right"])

    for tree in forest.trees:
        assert min(leaf_sizes(tree)) >= 10


def test_default_config_is_not_shared_between_calls():
    x, y = _toy_data(n=30)
    first = fit_random_forest(x, y)
    first.config.n_trees = 1
    assert len(fit_random_forest(x, y).trees) == ForestConfig().n_trees


# ---------------------------------------------------------------------------
# Reference: a recursive grower that builds one tree at a time, node by node,
# sorting each node's rows afresh. The lockstep grower must give the same
# trees exactly: same splits, thresholds, node values and key order.
#
# The rules it shares with the grower: a node's sums are taken by reduceat
# over its rows, a root's in bootstrap order and a child's in its parent's
# order sorted stably by the split feature. A node with equal targets is a
# leaf. A searched node takes the next row of uniform keys from its tree's
# generator, in preorder, and searches the k features with the smallest keys.


def _reference_sums(y):
    return tuple(reduce.reduceat(v, [0])[0] for reduce, v in ((np.add, y), (np.add, y * y), (np.minimum, y), (np.maximum, y)))


def _reference_best_split(x, y, feature_ids, min_leaf, total, total_sq):
    """(feature, threshold, gain) minimizing child SSE; None if no valid split."""
    n = len(y)
    best = None
    for f in feature_ids:
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        cum = np.cumsum(ys)
        cum_sq = np.cumsum(ys * ys)
        # candidate split after position i (1-based count on the left)
        left_n = np.arange(1, n)
        valid = (xs[1:] > xs[:-1]) & (left_n >= min_leaf) & (n - left_n >= min_leaf)
        if not valid.any():
            continue
        left_sum = cum[:-1]
        left_sq = cum_sq[:-1]
        right_sum = total - left_sum
        right_n = n - left_n
        sse = (left_sq - left_sum**2 / left_n) + (
            (cum_sq[-1] - left_sq) - right_sum**2 / right_n
        )
        sse = np.where(valid, sse, np.inf)
        i = int(np.argmin(sse))
        gain = total_sq - float(sse[i])
        if np.isfinite(sse[i]) and (best is None or gain > best[2]):
            threshold = 0.5 * (xs[i] + xs[i + 1])
            best = (f, float(threshold), gain)
    return best


def _reference_grow_tree(x, y, config, rng, sums, depth=0):
    total, square_sum, low, high = sums
    node = {"n": int(len(y)), "value": float(total / len(y))}
    if (
        len(y) < 2 * config.min_samples_leaf
        or (config.max_depth is not None and depth >= config.max_depth)
        or low == high
    ):
        return node
    n_features = x.shape[1]
    if config.features_per_split == "sqrt":
        k = int(np.ceil(np.sqrt(n_features)))
        feature_ids = np.argsort(rng.random(n_features), kind="stable")[:k]
    else:
        feature_ids = np.arange(n_features)
    total_sq = square_sum - total * total / len(y)
    split = _reference_best_split(x, y, feature_ids, config.min_samples_leaf, total, total_sq)
    if split is None or split[2] <= 0:
        return node
    f, threshold, _ = split
    mask = x[:, f] <= threshold
    ys = y[np.argsort(x[:, f], kind="stable")]
    n_left = int(mask.sum())
    node["feature"] = int(f)
    node["threshold"] = threshold
    node["left"] = _reference_grow_tree(x[mask], y[mask], config, rng, _reference_sums(ys[:n_left]), depth + 1)
    node["right"] = _reference_grow_tree(x[~mask], y[~mask], config, rng, _reference_sums(ys[n_left:]), depth + 1)
    return node


def _reference_trees(x, y, config):
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(config.seed).spawn(config.n_trees)]
    trees = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, len(y), size=len(y)) if config.bootstrap else np.arange(len(y))
        trees.append(_reference_grow_tree(x[rows], y[rows], config, rng, _reference_sums(y[rows])))
    return trees


def _assert_matches_reference(x, y, config):
    fitted = fit_random_forest(x, y, config)
    expected = _reference_trees(x, y, config)
    assert fitted.trees == expected
    assert json.dumps(fitted.trees) == json.dumps(expected)
    reference = FittedForest(config=config, trees=expected, n_features=x.shape[1])
    grid = np.random.default_rng(1).normal(size=(50, x.shape[1])).round(1)
    assert np.array_equal(predict(fitted, np.vstack([x, grid])), predict(reference, np.vstack([x, grid])))


_TARGETS = {
    # 0.1 does not sum exactly, so a constant node can still show variance
    "constant": lambda rng, n: np.full(n, 0.1),
    "binary": lambda rng, n: (rng.random(n) < 0.3).astype(float),
    "heavy_tailed": lambda rng, n: rng.pareto(1.2, size=n) * 10.0,
}
# (bootstrap, max_depth, min_samples_leaf, features_per_split)
_GROWTH = [
    (True, None, 1, "sqrt"),
    (False, 3, 2, "sqrt"),
    (True, 8, 3, "all"),
    (False, None, 4, "sqrt"),
    (True, 3, 5, "sqrt"),
    (False, 8, 1, "all"),
]


@pytest.mark.parametrize("target", sorted(_TARGETS))
@pytest.mark.parametrize("n_features", [1, 2, 3, 5, 6])
def test_trees_equal_the_recursive_reference(n_features, target):
    rng = np.random.default_rng(100 * n_features + len(target))
    x = rng.normal(scale=1.5, size=(70, n_features)).round()  # few distinct values, many ties
    y = _TARGETS[target](rng, len(x))
    for i, (bootstrap, max_depth, min_leaf, per_split) in enumerate(_GROWTH):
        config = ForestConfig(
            n_trees=3, max_depth=max_depth, min_samples_leaf=min_leaf, bootstrap=bootstrap,
            features_per_split=per_split, seed=i,
        )
        _assert_matches_reference(x, y, config)


def test_trees_equal_the_reference_across_groups_and_partial_steps(monkeypatch):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(90, 3)).round(1)
    y = x[:, 0] - x[:, 1] ** 2 + rng.normal(size=90)
    # groups of two trees, and steps that take one root at a time
    monkeypatch.setattr(forest_module, "_GROUP_ELEMENTS", 2 * 4 * 90)
    monkeypatch.setattr(forest_module, "_STEP_ELEMENTS", 2 * 90)
    _assert_matches_reference(x, y, ForestConfig(n_trees=5, min_samples_leaf=2, seed=4))


def test_trees_do_not_change_when_groups_steps_and_key_blocks_shrink(monkeypatch):
    x, y = _toy_data(n=150, seed=14)
    config = ForestConfig(n_trees=7, max_depth=6, min_samples_leaf=2, seed=8)
    expected = fit_random_forest(x, y, config).trees
    # one tree a group, one node a step, one key row a draw
    monkeypatch.setattr(forest_module, "_GROUP_ELEMENTS", 1)
    monkeypatch.setattr(forest_module, "_STEP_ELEMENTS", 1)
    monkeypatch.setattr(forest_module, "_KEY_ROWS", 1)
    assert json.dumps(fit_random_forest(x, y, config).trees) == json.dumps(expected)


def test_a_midpoint_that_rounds_onto_the_upper_value_still_separates_the_rows():
    low, high = 1.0 + 2.0**-52, 1.0 + 2.0**-51
    assert 0.5 * (low + high) == high
    x, y = np.array([[low], [high]]), np.array([0.0, 1.0])
    forest = fit_random_forest(x, y, ForestConfig(n_trees=1, bootstrap=False, max_depth=4))
    assert forest.trees[0]["threshold"] == low
    assert np.array_equal(predict(forest, x), y)
