"""Random-forest baseline: CART trees with Gini splits and bagging.

Kept deliberately close to the conventional defaults the comparison uses:
midpoint thresholds between consecutive sorted distinct values,
max(1, floor(sqrt(d))) features drawn per split, majority-class leaves,
bootstrap samples of the training-set size. Trees work on class indices
into the canonical class order, so every class tie, in a leaf or in the
forest vote, goes to the lowest index.

All trees of a fold grow together, one depth level at a time, into one
``Tree`` of node arrays in level order. One vectorized pass per level
scores every open node of every tree. Each tree has its own random
stream: it draws its bootstrap rows first, then one
``choice(d, k, replace=False)`` for each splittable node (below the depth
cap, with two or more classes), level by level and left to right within
a level. So a tree does not depend on which trees grow beside it, and
trees grow ``_TREE_GROUP`` at a time with nodes scored ``_CHUNK_PAIRS``
(row, feature) pairs at a time, which caps working memory whatever the
forest size.

A split is Breiman's Gini decrease, scored in integers. For a node of n
rows with class counts p, a cut with nl rows on the left and nr on the
right and class-count square sums sl2 and sr2 lowers the weighted Gini
impurity by (sl2/nl + sr2/nr)/n - Σp²/n². The cut with the largest float64
``sl2/nl + sr2/nr`` wins; ties go to the first drawn feature, then the
lowest threshold. It is taken only if n·(sl2·nr + sr2·nl) > Σp²·nl·nr
holds exactly in int64. The left side is at most 2n⁴, so a training set
may have at most ``_MAX_ROWS`` (46 000) rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .imu import class_indices

# n·(sl2·nr + sr2·nl) ≤ 2n⁴ must stay below 2**63
_MAX_ROWS = 46_000
# trees grown at once, and (distinct bootstrap row, drawn feature) pairs
# scored at once; 2**13 pairs ran faster than 2**12 or 2**14 to 2**16 on
# a 100-tree, 180-row fold (2-core x86 VM)
_TREE_GROUP = 128
_CHUNK_PAIRS = 1 << 13


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
    """A fold's CART trees as per-node arrays, nodes in level order.

    Level order lists every root, then every depth-1 node, and so on;
    within a level, tree by tree and left to right. The root of tree t is
    node t. Each tree's splittable nodes drew their candidate features in
    this order, after its bootstrap draw. A row at split node i goes to
    ``left[i]`` if its ``feature[i]`` value is at most ``threshold[i]``,
    else to ``right[i] == left[i] + 1``. A leaf has feature -1, threshold
    0 and children -1. ``value[i]`` is the class index with the most
    training rows at node i, the lowest on a tie.
    """
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _value_ranks(X):
    """Dense rank of each value within its column: equal values share a
    rank, and a larger value has a larger rank."""
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    steps = np.zeros(X.shape, dtype=np.int64)
    steps[1:] = xs[1:] > xs[:-1]
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=0), axis=0)
    return ranks


def _run_starts(a):
    """True where a run of equal values in ``a`` begins."""
    edge = np.empty(len(a), dtype=bool)
    edge[0] = True
    np.not_equal(a[1:], a[:-1], out=edge[1:])
    return edge


def _span_sums(values, first, last):
    """Sums of ``values[first[i]:last[i] + 1]``."""
    total = np.zeros(len(values) + 1, dtype=values.dtype)
    np.cumsum(values, out=total[1:])
    return total[last + 1] - total[first]


def _best_splits(X, ranks, yi, row, w, size, counts, drawn):
    """(feature, threshold) of each node's best cut; feature -1 for none.

    Node i holds the next ``size[i]`` entries of ``row``, distinct
    training rows each taken ``w`` times, with class counts ``counts[i]``;
    ``drawn[i]`` lists its candidate features in draw order. Every
    (node, feature) pair is scored in one pass: one integer sort orders
    the entries by (node, feature slot, value rank). If an entry of class
    c brings the left side's class-c weight to r, it adds r² - (r-w)² to
    sl2 and w·p_c to Σ p·(left count), so sl2 and
    sr2 = Σp² - 2·Σ p·(left count) + sl2 are int64 running sums, with no
    per-class arithmetic. A cut lies between two distinct values of one
    pair; segmented maxima pick each node's first best cut.
    """
    m, k = drawn.shape
    n_cls = counts.shape[1]
    span = ranks.shape[0]
    pair_size = np.repeat(size, k)
    pair_start = np.cumsum(pair_size) - pair_size
    pair = np.repeat(np.arange(m * k), pair_size)
    entry = np.arange(len(pair)) + np.repeat(
        np.repeat(np.cumsum(size) - size, k) - pair_start, pair_size)
    rows = row[entry]
    weight = w[entry]
    cls = yi[rows]
    rank = ranks[rows, np.repeat(drawn.ravel(), pair_size)]
    p = counts.ravel()[pair // k * n_cls + cls]
    # each entry's running weight of its own class within its pair, in
    # value order: a running sum restarted at each (pair, class) run
    by_class = np.argsort((pair * n_cls + cls) * span + rank)
    done = np.cumsum(weight[by_class])
    restart = np.where(_run_starts(cls[by_class] + pair[by_class] * n_cls),
                       done - weight[by_class], 0)
    r = np.empty_like(weight)
    r[by_class] = done - np.maximum.accumulate(restart)

    key = pair * span + rank
    order = np.argsort(key)
    key, pair = key[order], pair[order]
    weight, p, r = weight[order], p[order], r[order]
    cut = np.flatnonzero((pair[:-1] == pair[1:]) & (key[:-1] < key[1:]))

    feature = np.full(m, -1, dtype=np.int64)
    threshold = np.zeros(m)
    if not cut.size:
        return feature, threshold
    head = pair_start[pair[cut]]
    nl, sl2, lp = (_span_sums(v, head, cut) for v in
                   (weight, weight * (2 * r - weight), weight * p))
    node = pair[cut] // k
    n = counts.sum(axis=1)
    p2 = (counts * counts).sum(axis=1)
    nr = n[node] - nl
    sr2 = p2[node] - 2 * lp + sl2
    score = sl2 / nl + sr2 / nr
    seg = np.flatnonzero(_run_starts(node))
    top = np.maximum.reduceat(score, seg)
    top = np.repeat(top, np.diff(seg, append=len(cut)))
    best = np.minimum.reduceat(
        np.where(score == top, np.arange(len(cut)), len(cut)), seg)
    at = node[best]
    gain = (n[at] * (sl2[best] * nr[best] + sr2[best] * nl[best])
            > p2[at] * nl[best] * nr[best])
    best, at = cut[best[gain]], at[gain]
    f = drawn.ravel()[pair[best]]
    feature[at] = f
    threshold[at] = 0.5 * (X[row[entry[order[best]]], f]
                           + X[row[entry[order[best + 1]]], f])
    return feature, threshold


def _grow(X, ranks, yi, n_classes, max_depth, rngs):
    """Grow one group of trees level by level.

    Returns one (feature, threshold, left, value) tuple per level, nodes
    tree by tree and left to right; ``left`` indexes the next level, and
    the right child follows the left one.
    """
    n, d = X.shape
    k = max(1, int(np.sqrt(d)))
    # each tree's bootstrap draw, as distinct rows and their multiplicities
    row, w, node = [], [], []
    for t, rng in enumerate(rngs):
        taken = np.bincount(rng.integers(0, n, size=n), minlength=n)
        kept = np.flatnonzero(taken)
        row.append(kept)
        w.append(taken[kept])
        node.append(np.full(len(kept), t))
    row, w, node = map(np.concatenate, (row, w, node))
    tree = np.arange(len(rngs))
    levels = []
    for depth in range(max_depth + 1):
        m = len(tree)
        counts = np.bincount(node * n_classes + yi[row], weights=w,
                             minlength=m * n_classes)
        counts = counts.astype(np.int64).reshape(m, n_classes)
        feature = np.full(m, -1, dtype=np.int64)
        threshold = np.zeros(m)
        if depth < max_depth:
            split = np.flatnonzero(np.count_nonzero(counts, axis=1) > 1)
            drawn = np.array([rngs[t].choice(d, k, replace=False)
                              for t in tree[split]], dtype=np.int64)
            _score_level(X, ranks, yi, row, w, node, counts, split, drawn,
                         feature, threshold)
        grows = feature >= 0
        left = np.where(grows, 2 * np.cumsum(grows) - 2, -1)
        levels.append((feature, threshold, left,
                       np.argmax(counts, axis=1)))
        if not grows.any():
            break
        keep = grows[node]
        row, w, node = row[keep], w[keep], node[keep]
        node = left[node] + (X[row, feature[node]] > threshold[node])
        order = np.argsort(node, kind="stable")
        row, w, node = row[order], w[order], node[order]
        tree = np.repeat(tree[grows], 2)
    return levels


def _score_level(X, ranks, yi, row, w, node, counts, split, drawn,
                 feature, threshold):
    """Fill ``feature`` and ``threshold`` of the ``split`` nodes, scored
    at most ``_CHUNK_PAIRS`` (distinct row, drawn feature) pairs at a
    time, or one node at a time if a node has more."""
    if not split.size:
        return
    keep = np.zeros(len(counts), dtype=bool)
    keep[split] = True
    keep = keep[node]
    row, w = row[keep], w[keep]
    size = np.bincount(node[keep], minlength=len(counts))[split]
    end = np.concatenate([[0], np.cumsum(size)])
    work = np.concatenate([[0], np.cumsum(size * drawn.shape[1])])
    lo = 0
    while lo < len(split):
        hi = max(lo + 1, int(np.searchsorted(
            work, work[lo] + _CHUNK_PAIRS, side="right")) - 1)
        f, t = _best_splits(X, ranks, yi, row[end[lo]:end[hi]],
                            w[end[lo]:end[hi]], size[lo:hi],
                            counts[split[lo:hi]], drawn[lo:hi])
        feature[split[lo:hi]] = f
        threshold[split[lo:hi]] = t
        lo = hi


def tree_train(X, yi, n_classes: int, max_depth: int, rngs) -> Tree:
    """Grow one bagged CART tree per generator in ``rngs`` on rows ``X``
    and their class indices ``yi``; tree t's root is node t.

    Trees grow ``_TREE_GROUP`` at a time, and each draws from its own
    generator only, so the grouping changes no tree.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    yi = np.asarray(yi, dtype=np.int64)
    if X.shape[0] == 0:
        raise ValidationError("empty input")
    if X.shape[0] != len(yi):
        raise ValidationError("one label per row required")
    if X.shape[0] > _MAX_ROWS:
        raise ValidationError(f"{X.shape[0]} training rows; the forest's "
                              f"exact split test allows at most {_MAX_ROWS}")
    ranks = _value_ranks(X)
    groups = [_grow(X, ranks, yi, n_classes, max_depth,
                    rngs[lo:lo + _TREE_GROUP])
              for lo in range(0, len(rngs), _TREE_GROUP)]
    # level order across groups: level by level, group by group within a
    # level; each group's child indices shift to where its next level lands
    depth = max(len(levels) for levels in groups)
    sizes = np.zeros((depth + 1, len(groups)), dtype=np.int64)
    for g, levels in enumerate(groups):
        sizes[:len(levels), g] = [len(level[0]) for level in levels]
    start = np.cumsum(sizes).reshape(sizes.shape) - sizes
    blocks = []
    for d in range(depth):
        for g, levels in enumerate(groups):
            if d < len(levels):
                feature, threshold, left, value = levels[d]
                left = np.where(left >= 0, left + start[d + 1, g], -1)
                blocks.append((feature, threshold, left, value))
    feature, threshold, left, value = map(np.concatenate, zip(*blocks))
    right = np.where(left >= 0, left + 1, -1)
    return Tree(feature, threshold, left, right, value)


def tree_predict(tree: Tree, X) -> np.ndarray:
    """(rows, trees) class indices of the leaf each row reaches in each
    tree; all (row, tree) pairs still at a split node move down one level
    per step."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    # every node but a root is the child of one split node
    n_trees = len(tree.feature) - 2 * np.count_nonzero(tree.feature >= 0)
    node = np.tile(np.arange(n_trees), X.shape[0])
    row = np.repeat(np.arange(X.shape[0]), n_trees)
    live = np.flatnonzero(tree.feature[node] >= 0)
    while live.size:
        at = node[live]
        node[live] = np.where(
            X[row[live], tree.feature[at]] <= tree.threshold[at],
            tree.left[at], tree.right[at])
        live = live[tree.feature[node[live]] >= 0]
    return tree.value[node].reshape(X.shape[0], n_trees)


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
    n_cls = len(classes)
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(cfg.n_trees)]
    trees = tree_train(X, class_indices(classes, train.labels), n_cls,
                       cfg.max_depth, rngs)
    leaf = tree_predict(trees, test)
    cell = np.arange(test.shape[0])[:, None] * n_cls + leaf
    votes = np.bincount(cell.ravel(), minlength=test.shape[0] * n_cls)
    return np.asarray(classes)[np.argmax(votes.reshape(-1, n_cls), axis=1)]
