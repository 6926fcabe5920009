"""Random-forest baseline: CART trees with Gini splits and bagging.

Kept deliberately close to the conventional defaults the comparison uses:
midpoint thresholds between consecutive sorted unique values,
max(1, floor(sqrt(d))) features drawn per split, majority-class leaves,
bootstrap samples of the training-set size. Trees work on class indices
into the canonical class order, so every class tie, in a leaf or in the
forest vote, goes to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .imu import class_indices


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 10

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValidationError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValidationError("max_depth must be >= 1")


@dataclass(frozen=True)
class Tree:
    """One CART tree as per-node arrays, nodes in preorder from the root.

    A row at split node i goes to ``left[i]`` if its ``feature[i]`` value
    is at most ``threshold[i]``, else to ``right[i]``. A leaf has feature
    -1, threshold 0 and children -1. ``value[i]`` is the class index with
    the most training rows at node i, the lowest on a tie.
    """
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _best_split(X, yi, n_classes, feat_ids):
    """Best (feature, midpoint threshold, gini decrease), or None.

    Scores every cut of every candidate feature in one batched pass: one
    stable argsort of the (n, k) column block, one one-hot of the sorted
    labels shaped (n, k, C), and one integer cumsum down the rows give
    each cut's left class counts. A cut is valid between two distinct
    sorted values, so it leaves a row on each side; invalid cuts score
    -inf. Only strictly positive decreases qualify. Ties keep the
    first candidate feature in ``feat_ids`` order, then the lowest
    threshold.

    Each decrease is bit-equal to scanning the features one at a time:
    the counts are exact integers either way, the elementwise operations
    on them are the same, and each class sum is still a contiguous
    reduction of length C over the last axis.
    """
    n = len(yi)
    parent = np.bincount(yi, minlength=n_classes).astype(np.float64)
    g_parent = 1.0 - ((parent / n) ** 2).sum()
    cols = X[:, feat_ids]
    order = np.argsort(cols, axis=0, kind="stable")
    k = cols.shape[1]
    xs = cols[order, np.arange(k)]
    onehot = yi[order][..., None] == np.arange(n_classes)
    lc = np.cumsum(onehot, axis=0, dtype=np.int32)[:-1]
    rc = parent - lc
    nl = np.arange(1.0, n)[:, None]
    nr = n - nl
    gl = 1.0 - ((lc / nl[..., None]) ** 2).sum(axis=2)
    gr = 1.0 - ((rc / nr[..., None]) ** 2).sum(axis=2)
    dec = g_parent - (nl * gl + nr * gr) / n
    dec[~(xs[:-1] < xs[1:])] = -np.inf
    cut = np.argmax(dec, axis=0)
    per_feature = dec[cut, np.arange(k)]
    f = int(np.argmax(per_feature))
    if not per_feature[f] > 0.0:
        return None
    thr = 0.5 * (xs[cut[f], f] + xs[cut[f] + 1, f])
    return int(feat_ids[f]), float(thr), float(per_feature[f])


def tree_train(X, yi, n_classes: int, max_depth: int, rng) -> Tree:
    """Grow one CART tree on rows ``X`` and their class indices ``yi``.

    Nodes grow depth-first, left before right, so the split-feature draws
    from ``rng`` come in preorder.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    yi = np.asarray(yi, dtype=np.int64)
    if X.shape[0] == 0:
        raise ValidationError("empty input")
    if X.shape[0] != len(yi):
        raise ValidationError("one label per row required")
    k = max(1, int(np.sqrt(X.shape[1])))
    nodes = []      # [feature, threshold, left, right, value] per node

    def grow(idx, depth):
        counts = np.bincount(yi[idx], minlength=n_classes)
        node = [-1, 0.0, -1, -1, int(np.argmax(counts))]
        nodes.append(node)
        # a one-row node is pure, so it stops here too
        if depth >= max_depth or np.count_nonzero(counts) <= 1:
            return
        feat_ids = rng.choice(X.shape[1], size=k, replace=False)
        split = _best_split(X[idx], yi[idx], n_classes, feat_ids)
        if split is None:
            return
        f, thr, _ = split
        mask = X[idx, f] <= thr
        node[:3] = f, thr, len(nodes)
        grow(idx[mask], depth + 1)
        node[3] = len(nodes)
        grow(idx[~mask], depth + 1)

    grow(np.arange(X.shape[0]), 0)
    return Tree(*map(np.array, zip(*nodes)))


def tree_predict(tree: Tree, X) -> np.ndarray:
    """Class index of the leaf each row reaches; all rows still at a
    split node move down one level per step."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    node = np.zeros(X.shape[0], dtype=np.intp)
    live = np.flatnonzero(tree.feature[node] >= 0)
    while live.size:
        at = node[live]
        node[live] = np.where(X[live, tree.feature[at]] <= tree.threshold[at],
                              tree.left[at], tree.right[at])
        live = live[tree.feature[node[live]] >= 0]
    return tree.value[node]


def forest_train_predict(train, test_rows, cfg: ForestConfig,
                         seed: int) -> np.ndarray:
    """Train a bagged forest on a LabeledDataset and predict test rows.

    Each tree gets its own stream spawned from ``seed`` (bootstrap draw
    first, then split-feature draws), so results do not depend on
    scheduling. The vote ties by canonical class order via lowest index.
    """
    X = train.X
    if X.shape[0] == 0:
        raise ValidationError("empty train")
    test = np.atleast_2d(np.asarray(test_rows, dtype=np.float64))
    if test.shape[1] != X.shape[1]:
        raise ValidationError("test rows have the wrong width")
    classes = train.classes
    yi = class_indices(classes, train.labels)
    children = np.random.SeedSequence(seed).spawn(cfg.n_trees)
    votes = np.zeros((test.shape[0], len(classes)), dtype=np.int64)
    every = np.arange(test.shape[0])
    for child in children:
        rng = np.random.default_rng(child)
        idx = rng.integers(0, X.shape[0], size=X.shape[0])
        tree = tree_train(X[idx], yi[idx], len(classes), cfg.max_depth, rng)
        votes[every, tree_predict(tree, test)] += 1
    return np.asarray(classes)[np.argmax(votes, axis=1)]
