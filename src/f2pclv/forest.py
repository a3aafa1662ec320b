"""Random-forest regression built from scratch on CART-style trees.

Trees greedily pick the split with the largest variance reduction, each
tree trains on a bootstrap resample, and split candidates draw from a
random feature subset. Prediction averages the trees. The classifier
variant trains on 0/1 targets and lets each tree vote its leaf majority.

A forest's trees grow in lockstep: each step takes the next depth-first node
to search of every unfinished tree and searches all of their splits in one
flat pass. A tree draws uniform keys from its own generator, a block of rows
at a time, and its searched nodes take the rows in depth-first preorder; a
node searches the features with the smallest keys in its row. A tree cannot
grow level by level without changing, as a right child's row depends on how
many nodes its left sibling's whole subtree searched, but it does not depend
on how the nodes are batched into steps.

Each tree sorts its bootstrap sample once per feature. A node is a range of
those sorted columns, which a split partitions stably in place, so every
node sees its rows in the order a stable argsort of them gives. A node comes
with the sum, the sum of squares, the min and the max of its targets: a
root's taken over its bootstrap sample, a child's by its parent's split over
its rows in the split feature's order. A node is a leaf when it is too small
to split, at the depth limit, or when its targets are equal (min == max); a
leaf is never searched. A recursive grower that sums in the same orders
grows the same trees, bit for bit. The one exception is a split whose
midpoint threshold rounds onto the upper value and so leaves a child empty,
where a recursive grower recursed without end.
"""

from __future__ import annotations

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
# Rows of uniform feature keys a tree draws from its generator at a time.
_KEY_ROWS = 64


def _ranges(starts, lengths):
    """Flat indices of the ranges [start, start + length), one after another,
    and the offset of each range in that list."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum())), offsets


def _segment_sums(values, starts):
    """Per segment of `values` beginning at each of `starts`: the sum, the sum
    of squares, the min and the max, each as a list. A segment's sums depend
    only on its own values, in order, wherever it lies."""
    return [
        reduce.reduceat(part, starts).tolist()
        for reduce, part in ((np.add, values), (np.add, values * values), (np.minimum, values), (np.maximum, values))
    ]


def _dense_ranks(x):
    """Each value's rank among its column's distinct values, in the smallest
    unsigned type that holds them: a stable argsort of the ranks orders rows
    as one of x does, and for up to 2**16 distinct values it is a radix sort."""
    columns = [np.unique(column, return_inverse=True) for column in x.T]
    dtype = np.min_scalar_type(max(len(values) for values, _ in columns) - 1)
    return np.array([inverse for _, inverse in columns], dtype=dtype)


def _grow_group(x, ranks, y, config, rngs):
    """Grow one tree per generator, all in lockstep.

    Tree t's bootstrap sample fills the slots t*n .. t*n + n - 1. index[t, f]
    lists the tree's slots sorted stably by feature f. A node owns the same
    range [lo, hi) of each of these columns. A stack entry is a node still to
    search: (lo, hi, depth, node, the sum of its targets, and their sum of
    squares about the mean).
    """
    n, n_features = x.shape
    g = len(rngs)
    draw = config.features_per_split == "sqrt"
    k = int(np.ceil(np.sqrt(n_features))) if draw else n_features
    min_leaf, max_depth = config.min_samples_leaf, config.max_depth
    rows = np.empty(g * n, dtype=np.int32)
    for t, rng in enumerate(rngs):
        rows[t * n : t * n + n] = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
    columns = x.T.reshape(-1)  # feature f of row r at f * n + r
    index = np.empty((g, n_features, n), dtype=np.int32)
    flat_index = index.reshape(-1)
    for t in range(g):
        index[t] = np.argsort(ranks[:, rows[t * n : t * n + n]], axis=1, kind="stable") + t * n
    goes_left = np.empty(g * n, dtype=np.uint8)  # by slot, for the nodes a step splits
    keys = np.empty((g, _KEY_ROWS, n_features))
    used = np.full(g, _KEY_ROWS)  # key rows each tree has taken from its block
    stacks = [[] for _ in range(g)]

    def node(stack, lo, hi, depth, total, square_sum, low, high):
        """A node holding the targets with these sums and extremes, put on
        the stack to search unless it is a leaf: too small to split, at the
        depth limit, or with equal targets."""
        m = hi - lo
        grown = {"n": m, "value": total / m}
        if m >= 2 * min_leaf and (max_depth is None or depth < max_depth) and low != high:
            stack.append((lo, hi, depth, grown, total, square_sum - total * total / m))
        return grown

    root_sums = _segment_sums(y.take(rows), np.arange(0, g * n, n))
    trees = [node(stack, 0, n, 0, *sums) for stack, *sums in zip(stacks, *root_sums)]
    while True:
        step = []
        budget = _STEP_ELEMENTS
        for t, stack in enumerate(stacks):
            if stack and (not step or k * (stack[-1][1] - stack[-1][0]) <= budget):
                budget -= k * (stack[-1][1] - stack[-1][0])
                step.append((t, *stack.pop()))
        if not step:
            return trees

        # A tree's searched nodes take rows of its uniform keys in preorder, and
        # a node's features are the k with the smallest keys in its row.
        search_tree, search_lo, search_hi, _, _, search_total, search_sq = zip(*step)
        search_tree = np.array(search_tree)
        if draw:
            spent = search_tree[used[search_tree] == _KEY_ROWS]
            for t in spent.tolist():
                keys[t] = rngs[t].random((_KEY_ROWS, n_features))
            used[spent] = 0
            search_features = np.argsort(keys[search_tree, used[search_tree]], axis=1, kind="stable")[:, :k]
            used[search_tree] += 1
        else:
            search_features = np.broadcast_to(np.arange(n_features), (len(step), k))

        # One flat pass over the sorted range of every (node, feature).
        search_len = np.subtract(search_hi, search_lo)
        seg_len = np.repeat(search_len, k)
        seg_feature = search_features.reshape(-1)
        seg_start = (np.repeat(search_tree, k) * n_features + seg_feature) * n + np.repeat(search_lo, k)
        flat, seg_at = _ranges(seg_start, seg_len)
        slot = flat_index.take(flat)
        slot_rows = rows.take(slot)
        xs = columns.take(slot_rows + np.repeat(seg_feature * n, seg_len))
        # each (node, feature) range's running sums of y and of y * y
        ys_sorted = y.take(slot_rows)
        ys_both = np.stack((ys_sorted, ys_sorted * ys_sorted))
        cum, cum_sq = cums = np.empty_like(ys_both)
        for m, a in zip(search_len.tolist(), seg_at[::k].tolist()):
            block = slice(a, a + k * m)
            ys_both[:, block].reshape(2, k, m).cumsum(axis=2, out=cums[:, block].reshape(2, k, m))
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

        # Each node takes the first feature with the largest gain, if positive.
        seg_min = seg_min.reshape(-1, k)
        gains = np.where(np.isfinite(seg_min), np.array(search_sq)[:, None] - seg_min, -np.inf)
        best = gains.argmax(axis=1)
        split = np.flatnonzero(gains[np.arange(len(step)), best] > 0)
        if not len(split):
            continue

        # Partition each split node's range of every column stably in place:
        # the slots with x <= threshold first, each side in its old order.
        chosen_seg = split * k + best[split]
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
        # Each child's sums over its rows in the chosen column: a prefix and
        # the rest of that column's range.
        halves = np.column_stack((chosen_at, chosen_at + n_left)).reshape(-1)
        child_sums = zip(*_segment_sums(ys_sorted.take(chosen), halves))
        for e, j, nl in zip(split.tolist(), chosen_seg.tolist(), n_left.tolist()):
            t, lo, hi, depth, parent, _, _ = step[e]
            m = hi - lo
            parent["feature"] = int(seg_feature[j])
            parent["threshold"] = float(thresholds[j])
            block = index[t, :, lo : lo + m]
            block_left = goes_left.take(block).view(bool)
            block[:, :nl], block[:, nl:] = block[block_left].reshape(-1, nl), block[~block_left].reshape(-1, m - nl)
            left_sums, right_sums = next(child_sums), next(child_sums)
            # the right child goes on the stack first, so the left is searched first
            right = node(stacks[t], lo + nl, lo + m, depth + 1, *right_sums)
            parent["left"] = node(stacks[t], lo, lo + nl, depth + 1, *left_sums)
            parent["right"] = right


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
    ranks = _dense_ranks(x)
    per_group = max(1, _GROUP_ELEMENTS // x.size)
    trees = []
    for i in range(0, len(rngs), per_group):
        trees += _grow_group(x, ranks, y, config, rngs[i : i + per_group])
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
