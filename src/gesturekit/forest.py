"""Random-forest baseline: CART trees with Gini splits and bagging.

Kept deliberately close to the conventional defaults the comparison uses:
midpoint thresholds between consecutive sorted unique values, sqrt(d)
features drawn per split, majority-class leaves, bootstrap samples of the
training-set size. Class ties anywhere resolve by canonical class order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .imu import canonical_class_order, class_indices


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 10
    features_per_split: int | None = None   # None: max(1, floor(sqrt(d)))

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValidationError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValidationError("max_depth must be >= 1")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValidationError("features_per_split must be >= 1")

    def split_features(self, d: int) -> int:
        if self.features_per_split is not None:
            return min(self.features_per_split, d)
        return max(1, int(np.sqrt(d)))


@dataclass
class TreeNode:
    """Internal split node or leaf; leaves carry ``label``."""
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    label: str | None = None


def _majority(class_counts, classes) -> str:
    # argmax returns the lowest index on ties, i.e. canonical order
    return classes[int(np.argmax(class_counts))]


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


def tree_train(rows, labels, cfg: ForestConfig, rng,
               classes=None) -> TreeNode:
    """Grow one CART tree.

    ``classes`` fixes the class order shared across a forest; by default
    it is the canonical order of the labels present.
    """
    X = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if X.shape[0] == 0 or len(labels) == 0:
        raise ValidationError("empty input")
    if X.shape[0] != len(labels):
        raise ValidationError("one label per row required")
    if classes is None:
        classes = canonical_class_order(labels)
    yi = class_indices(classes, labels)
    k = cfg.split_features(X.shape[1])

    def grow(idx, depth):
        counts = np.bincount(yi[idx], minlength=len(classes))
        # a one-row node is pure, so it stops here too
        if depth >= cfg.max_depth or np.count_nonzero(counts) <= 1:
            return TreeNode(label=_majority(counts, classes))
        feat_ids = rng.choice(X.shape[1], size=k, replace=False)
        split = _best_split(X[idx], yi[idx], len(classes), feat_ids)
        if split is None:
            return TreeNode(label=_majority(counts, classes))
        f, thr, _ = split
        mask = X[idx, f] <= thr
        return TreeNode(feature=f, threshold=thr,
                        left=grow(idx[mask], depth + 1),
                        right=grow(idx[~mask], depth + 1))

    return grow(np.arange(X.shape[0]), 0)


def tree_predict(node: TreeNode, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    rows, labels = [], []      # per leaf reached: its rows and its label

    def walk(n, idx):
        if n.label is not None:
            rows.append(idx)
            labels.append(n.label)
            return
        mask = X[idx, n.feature] <= n.threshold
        walk(n.left, idx[mask])
        walk(n.right, idx[~mask])

    walk(node, np.arange(X.shape[0]))
    by_leaf = np.repeat(labels, [len(r) for r in rows])
    return by_leaf[np.argsort(np.concatenate(rows))]


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
    children = np.random.SeedSequence(seed).spawn(cfg.n_trees)
    votes = np.zeros((test.shape[0], len(classes)), dtype=np.int64)
    every = np.arange(test.shape[0])
    for child in children:
        rng = np.random.default_rng(child)
        idx = rng.integers(0, X.shape[0], size=X.shape[0])
        tree = tree_train(X[idx], train.labels[idx], cfg, rng,
                          classes=classes)
        votes[every, class_indices(classes, tree_predict(tree, test))] += 1
    return np.asarray(classes)[np.argmax(votes, axis=1)]
