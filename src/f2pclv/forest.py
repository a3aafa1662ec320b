"""Random-forest regression built from scratch on CART-style trees.

Trees greedily pick the split with the largest variance reduction, each
tree trains on a bootstrap resample, and split candidates draw from a
random feature subset. Prediction averages the trees. The classifier
variant trains on 0/1 targets and lets each tree vote its leaf majority.

A forest's trees grow in lockstep: each step takes the next depth-first
node of every unfinished tree and searches all of their splits in one flat
pass. A tree cannot instead grow level by level without changing: each tree
draws its split features from its own generator in depth-first preorder, so
a right child's draw depends on how many draws its left sibling's whole
subtree made. Each tree sorts its bootstrap sample once per feature, when
its root is searched. A node is a range of those sorted columns, which a
split partitions stably in place, so every node sees its rows in the order a
stable argsort of them gives and sums them in the order a recursive grower
would: the trees are the same, bit for bit. The one exception is a split
whose midpoint threshold rounds onto the upper value and so leaves a child
empty, where a recursive grower recursed without end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass
class ForestConfig:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    bootstrap: bool = True
    # 'sqrt' samples ceil(sqrt(n_features)) candidates per split; 'all'
    # considers every feature.
    features_per_split: str = "sqrt"
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise DataError("n_trees must be >= 1")
        if self.min_samples_leaf < 1:
            raise DataError("min_samples_leaf must be >= 1")
        if self.features_per_split not in ("sqrt", "all"):
            raise DataError("features_per_split must be 'sqrt' or 'all'")


# Elements of the sorted-index buffer of one group of trees, and of the sorted
# columns one step searches. They bound a fit's working set: a forest whose
# buffer would exceed the first grows in groups of trees, and a step takes
# nodes, tree by tree, until the next would exceed the second.
_GROUP_ELEMENTS = 1 << 19
_STEP_ELEMENTS = 1 << 15


def _ranges(starts, lengths):
    """Flat indices of the ranges [start, start + length), one after another,
    and the offset of each range in that list."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum())), offsets


def _dense_ranks(x):
    """Each value's rank among its column's distinct values, in the smallest
    unsigned type that holds them: a stable argsort of the ranks orders rows
    as one of x does, and for up to 2**16 distinct values it is a radix sort."""
    columns = [np.unique(column, return_inverse=True) for column in x.T]
    dtype = np.min_scalar_type(max(len(values) for values, _ in columns) - 1)
    return np.array([inverse for _, inverse in columns], dtype=dtype)


def _grow_group(x, y, config, rngs):
    """Grow one tree per generator, all in lockstep.

    Tree t's bootstrap sample fills the slots t*n .. t*n + n - 1. index[t, c]
    lists the tree's slots sorted stably by feature c, and index[t, n_features]
    lists them in slot order. A node owns the same range [lo, hi) of each of
    these columns.
    """
    n, n_features = x.shape
    g = len(rngs)
    cols = n_features + 1
    k = int(np.ceil(np.sqrt(n_features))) if config.features_per_split == "sqrt" else n_features
    min_leaf, max_depth = config.min_samples_leaf, config.max_depth
    rows = np.empty(g * n, dtype=np.int32)
    for t, rng in enumerate(rngs):
        rows[t * n : t * n + n] = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
    columns = x.T.reshape(-1)  # feature f of row r at f * n + r
    index = np.empty((g, cols, n), dtype=np.int32)
    flat_index = index.reshape(-1)
    ranks = None
    goes_left = np.empty(g * n, dtype=np.uint8)  # by slot, for the nodes a step splits
    trees = [{} for _ in range(g)]
    stacks = [[(0, n, 0, tree)] for tree in trees]
    presorted = [False] * g
    while True:
        step = []
        budget = _STEP_ELEMENTS
        for t, stack in enumerate(stacks):
            if stack and (not step or k * (stack[-1][1] - stack[-1][0]) <= budget):
                budget -= k * (stack[-1][1] - stack[-1][0])
                step.append((t, *stack.pop()))
        if not step:
            return trees

        # Node by node: the leaf tests on the node's own pairwise sums, and the
        # feature draw, so that each tree draws in depth-first preorder.
        search = []
        for t, lo, hi, depth, node in step:
            m = hi - lo
            y_node = y.take(rows.take(index[t, n_features, lo:hi]) if presorted[t] else rows[t * n : t * n + n])
            total = np.add.reduce(y_node)
            node["n"] = m
            node["value"] = float(total / m)
            if m < 2 * min_leaf or (max_depth is not None and depth >= max_depth):
                continue
            dev = y_node - total / m
            total_sq = float(np.add.reduce(dev * dev))
            if total_sq / m == 0.0:
                continue
            if config.features_per_split == "sqrt":
                features = rngs[t].choice(n_features, size=k, replace=False)
            else:
                features = np.arange(n_features)
            if not presorted[t]:
                if ranks is None:
                    ranks = _dense_ranks(x)
                tree_rows = rows[t * n : t * n + n]
                index[t, :n_features] = np.argsort(ranks[:, tree_rows], axis=1, kind="stable") + t * n
                index[t, n_features] = np.arange(t * n, t * n + n)
                presorted[t] = True
            search.append((t, lo, m, depth, node, total, total_sq, features))
        if not search:
            continue

        # One flat pass over the sorted range of every (node, drawn feature).
        search_tree, search_lo, search_len, _, _, search_total, _, search_features = zip(*search)
        seg_len = np.repeat(search_len, k)
        seg_feature = np.concatenate(search_features)
        seg_start = (np.repeat(search_tree, k) * cols + seg_feature) * n + np.repeat(search_lo, k)
        flat, seg_at = _ranges(seg_start, seg_len)
        slot = flat_index.take(flat)
        slot_rows = rows.take(slot)
        xs = columns.take(slot_rows + np.repeat(seg_feature * n, seg_len))
        ys_sorted = y.take(slot_rows)
        cum = np.empty_like(ys_sorted)
        cum_sq = ys_sorted * ys_sorted
        for m, a in zip(search_len, seg_at[::k].tolist()):
            block = slice(a, a + k * m)
            np.cumsum(ys_sorted[block].reshape(k, m), axis=1, out=cum[block].reshape(k, m))
            np.cumsum(cum_sq[block].reshape(k, m), axis=1, out=cum_sq[block].reshape(k, m))
        # A split after local position i leaves i + 1 rows on the left. It
        # needs x to rise there and min_samples_leaf rows on either side.
        cand = np.flatnonzero(xs[1:] > xs[:-1])
        seg = np.searchsorted(seg_at, cand, side="right") - 1
        left_n = cand - seg_at[seg] + 1
        keep = (left_n >= min_leaf) & (seg_len[seg] - left_n >= min_leaf)
        cand, seg, left_n = cand[keep], seg[keep], left_n[keep]
        if not len(cand):
            continue
        left_sum, left_sq = cum[cand], cum_sq[cand]
        right_sum = np.array(search_total)[seg // k] - left_sum
        sse = (left_sq - left_sum**2 / left_n) + (
            (cum_sq[seg_at[seg] + seg_len[seg] - 1] - left_sq) - right_sum**2 / (seg_len[seg] - left_n)
        )
        # the first minimum of each range, where np.argmin would find it
        first = np.flatnonzero(np.diff(seg, prepend=-1))
        seg_min = np.full(len(seg_len), np.nan)
        seg_min[seg[first]] = np.minimum.reduceat(sse, first)
        hit = np.flatnonzero(sse == seg_min[seg])
        hit = hit[np.diff(seg[hit], prepend=-1) != 0]
        at = np.zeros(len(seg_len), dtype=np.intp)
        at[seg[hit]] = cand[hit]
        thresholds = 0.5 * (xs[at] + xs[at + 1])

        # Each node takes the first drawn feature with the largest gain.
        split = []
        for e, (t, lo, m, depth, node, _, total_sq, _) in enumerate(search):
            best, best_gain = None, 0.0
            for j, low in enumerate(seg_min[e * k : e * k + k].tolist(), e * k):
                if math.isfinite(low) and (best is None or total_sq - low > best_gain):
                    best, best_gain = j, total_sq - low
            if best is not None and best_gain > 0:
                node["feature"] = int(seg_feature[best])
                split.append((t, lo, m, depth, node, best))
        if not split:
            continue

        # Partition each split node's range of every column stably in place:
        # the slots with x <= threshold first, each side in its old order.
        chosen_seg = np.array([s[5] for s in split])
        lengths = seg_len[chosen_seg]
        chosen, chosen_at = _ranges(seg_at[chosen_seg], lengths)
        left = xs[chosen] <= np.repeat(thresholds[chosen_seg], lengths)
        n_left = np.add.reduceat(left, chosen_at)
        # A midpoint that rounds onto the upper value, or overflows, can send
        # every row one way, and the node would split the same way forever.
        # The lower value always separates the rows.
        stuck = chosen_seg[(n_left == 0) | (n_left == lengths)]
        if len(stuck):
            thresholds[stuck] = xs[at[stuck]]
            left = xs[chosen] <= np.repeat(thresholds[chosen_seg], lengths)
            n_left = np.add.reduceat(left, chosen_at)
        goes_left[slot[chosen]] = left
        for (t, lo, m, depth, node, j), nl in zip(split, n_left.tolist()):
            node["threshold"] = float(thresholds[j])
            block = index[t, :, lo : lo + m]
            block_left = goes_left.take(block).view(bool)
            block[:, :nl], block[:, nl:] = block[block_left].reshape(cols, nl), block[~block_left].reshape(cols, m - nl)
            node["left"], node["right"] = {}, {}
            stacks[t].append((lo + nl, lo + m, depth + 1, node["right"]))
            stacks[t].append((lo, lo + nl, depth + 1, node["left"]))


def _tree_predict(node, x):
    out = np.empty(len(x))
    idx = np.arange(len(x))
    stack = [(node, idx)]
    while stack:
        nd, rows = stack.pop()
        if "feature" not in nd:
            out[rows] = nd["value"]
            continue
        mask = x[rows, nd["feature"]] <= nd["threshold"]
        stack.append((nd["left"], rows[mask]))
        stack.append((nd["right"], rows[~mask]))
    return out


@dataclass
class FittedForest:
    config: ForestConfig
    trees: list[dict]
    tree_seeds: list[int] = field(default_factory=list)
    classifier: bool = False
    n_features: int = 0


def fit_random_forest(x, y, config: ForestConfig | None = None, classifier: bool = False) -> FittedForest:
    """Train an ensemble of regression trees on bootstrap resamples."""
    config = config or ForestConfig()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or len(x) == 0 or len(x) != len(y):
        raise DataError("x must be a non-empty 2-d array aligned with y")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DataError("features and targets must be finite")
    root = np.random.SeedSequence(config.seed)
    seeds = [int(s.generate_state(1)[0]) for s in root.spawn(config.n_trees)]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    per_group = max(1, _GROUP_ELEMENTS // ((x.shape[1] + 1) * len(y)))
    trees = []
    for i in range(0, len(rngs), per_group):
        trees += _grow_group(x, y, config, rngs[i : i + per_group])
    return FittedForest(
        config=config,
        trees=trees,
        tree_seeds=seeds,
        classifier=classifier,
        n_features=x.shape[1],
    )


def predict(forest: FittedForest, x) -> np.ndarray:
    """Mean of tree outputs; for classifiers, the fraction of trees voting 1."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != forest.n_features:
        raise DataError(f"x must have {forest.n_features} feature columns")
    votes = np.zeros(len(x))
    for tree in forest.trees:
        leaf = _tree_predict(tree, x)
        votes += (leaf > 0.5).astype(float) if forest.classifier else leaf
    return votes / len(forest.trees)
