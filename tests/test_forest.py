"""CART trees, Gini splitting, and the bagged-forest baseline."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from gesturekit import forest
from gesturekit.errors import ValidationError
from gesturekit.forest import (
    ForestConfig,
    forest_train_predict,
    tree_predict,
    tree_train,
)
from gesturekit.forest import _best_splits, _value_ranks
from gesturekit.imu import LabeledDataset, class_indices

from oracles import loop_grow_tree, loop_tree_predict, naive_best_split


class GivenRows:
    """A generator whose bootstrap draw is every row once, in order, and
    that records every split-feature draw."""

    def __init__(self, seed, draw=None):
        self.rng = np.random.default_rng(seed)
        self.draw = draw
        self.draws = []

    def integers(self, low, high, size):
        return np.arange(size)

    def choice(self, *args, **kwargs):
        out = self.rng.choice(*args, **kwargs) if self.draw is None \
            else np.asarray(self.draw)
        self.draws.append(out)
        return out


def grow(X, yi, n_classes, max_depth, seed=0):
    """One tree grown on the rows as given."""
    return tree_train(X, yi, n_classes, max_depth, [GivenRows(seed)])


def forest_rngs(seed, n_trees):
    return [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(n_trees)]


def one_tree(trees, t):
    """Tree t of a fold's level-ordered arrays as (feature, threshold,
    left, right, value) lists, renumbered from its root at 0."""
    keep = [t]
    for i in keep:
        if trees.feature[i] >= 0:
            assert trees.right[i] == trees.left[i] + 1
            keep += [int(trees.left[i]), int(trees.right[i])]
    # breadth-first order is the fold's level order restricted to tree t
    assert keep == sorted(keep)
    new = {old: i for i, old in enumerate(keep)}
    return ([int(trees.feature[i]) for i in keep],
            [float(trees.threshold[i]) for i in keep],
            [new.get(int(trees.left[i]), -1) for i in keep],
            [new.get(int(trees.right[i]), -1) for i in keep],
            [int(trees.value[i]) for i in keep])


def bits(tree):
    """A tree's lists with each threshold as its float64 bit pattern."""
    feature, threshold, left, right, value = tree
    return feature, [t.hex() for t in threshold], left, right, value


def cut_sums(yi, go_left, n_classes):
    """(sl2, nl, sr2, nr): each side's class-count square sum and size."""
    def side(mask):
        counts = np.bincount(yi[mask], minlength=n_classes)
        return sum(int(c) ** 2 for c in counts), int(mask.sum())

    return side(go_left) + side(~go_left)


def exact_decrease(yi, go_left, n_classes):
    """The Gini decrease of a cut, as an exact fraction."""
    sl2, nl, sr2, nr = cut_sums(yi, go_left, n_classes)
    n = nl + nr
    p2 = sum(int(c) ** 2 for c in np.bincount(yi, minlength=n_classes))
    return (Fraction(sl2, nl * n) + Fraction(sr2, nr * n)
            - Fraction(p2, n * n))


def score(yi, go_left, n_classes):
    """The float64 split score sl2/nl + sr2/nr of a cut."""
    sl2, nl, sr2, nr = cut_sums(yi, go_left, n_classes)
    return sl2 / nl + sr2 / nr


def best_split(X, yi, n_classes, feat_ids, weights=None):
    """(feature, threshold, Gini decrease) of the grower's cut of one
    node holding row i ``weights[i]`` times (once by default), or None;
    the decrease is computed exactly and rounded once."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    yi = np.asarray(yi)
    n = len(yi)
    w = np.ones(n, dtype=np.int64) if weights is None else \
        np.asarray(weights, dtype=np.int64)
    counts = np.bincount(yi, weights=w, minlength=n_classes)
    f, t = _best_splits(X, _value_ranks(X), yi, np.arange(n), w,
                        np.array([n]), counts.astype(np.int64)[None],
                        np.asarray(feat_ids, dtype=np.int64)[None])
    if f[0] < 0:
        return None
    dec = exact_decrease(np.repeat(yi, w), np.repeat(X[:, f[0]] <= t[0], w),
                         n_classes)
    return int(f[0]), float(t[0]), float(dec)


class TestForestConfig:
    def test_field_validation(self):
        with pytest.raises(ValidationError):
            ForestConfig(n_trees=0)
        with pytest.raises(ValidationError):
            ForestConfig(max_depth=0)

    def test_defaults(self):
        cfg = ForestConfig()
        assert (cfg.n_trees, cfg.max_depth) == (100, 10)

    def test_sqrt_feature_rule(self):
        # every node draws max(1, floor(sqrt(d))) candidate features
        r = np.random.default_rng(3)
        for d, k in ((93, 9), (1, 1)):
            X = r.normal(size=(60, d))
            rng = GivenRows(0)
            tree_train(X, r.integers(0, 3, size=60), 3, 10, [rng])
            assert rng.draws and {len(f) for f in rng.draws} == {k}


class TestBestSplit:
    def test_matches_exhaustive_oracle(self):
        r = np.random.default_rng(1)
        for trial in range(25):
            n = int(r.integers(4, 30))
            d = int(r.integers(1, 7))
            k = int(r.integers(2, 4))
            X = np.round(r.normal(size=(n, d)), 1)
            yi = r.integers(0, k, size=n)
            feat_ids = r.permutation(d)[:int(r.integers(1, d + 1))]
            got = best_split(X, yi, k, feat_ids)
            want = naive_best_split(X, yi, k, feat_ids, min_leaf=1)
            if want is None:
                assert got is None
            else:
                assert got[0] == want[0]
                assert got[1] == pytest.approx(want[1])
                assert got[2] == pytest.approx(want[2])

    def test_equals_per_feature_scan_exactly(self):
        # tie-heavy data: small integers, coarsely rounded normals and
        # duplicated columns, so equal scores across cuts and features
        # are common and the tie rules decide; rows are weighted as a
        # bootstrap draw weights them, and the oracle sees each copy
        r = np.random.default_rng(8)
        found = 0
        for trial in range(400):
            n = int(r.integers(2, 120))
            d = int(r.integers(1, 30))
            k = int(r.integers(1, 13))
            if trial % 2:
                X = r.integers(0, 4, size=(n, d)).astype(np.float64)
            else:
                X = np.round(r.normal(size=(n, d)), 1)
            if d > 1:
                X[:, r.integers(0, d)] = X[:, r.integers(0, d)]
            yi = r.integers(0, k, size=n)
            w = r.integers(1, 4, size=n) if trial % 3 else np.ones(n, int)
            feat_ids = r.permutation(d)[:int(r.integers(1, d + 1))]
            got = best_split(X, yi, k, feat_ids, w)
            want = loop_grow_tree(np.repeat(X, w, axis=0), np.repeat(yi, w),
                                  k, 1, GivenRows(0, draw=feat_ids))
            if got is None:
                assert want[0][0] == -1
            else:
                assert (got[0], got[1].hex()) == \
                    (want[0][0], want[1][0].hex())
            found += got is not None
        assert found > 200

    def test_decrease_is_the_exact_maximum(self):
        # the chosen cut's Gini decrease, as a fraction, is the largest of
        # all cuts of the drawn features, or scores the same float64
        # sl2/nl + sr2/nr as the largest; a node left unsplit has no
        # positive decrease
        r = np.random.default_rng(11)
        split = 0
        for trial in range(150):
            n = int(r.integers(2, 40))
            d = int(r.integers(1, 10))
            k = int(r.integers(1, 5))
            X = r.integers(0, 5, size=(n, d)).astype(np.float64)
            yi = r.integers(0, k, size=n)
            rng = GivenRows(trial)
            tree = tree_train(X, yi, k, 1, [rng])
            cuts = [X[:, f] <= t for f in (rng.draws or [[]])[0]
                    for t in np.unique(X[:, f])[:-1]]
            best = max((exact_decrease(yi, c, k) for c in cuts), default=0)
            if tree.feature[0] < 0:
                assert best <= 0
                continue
            split += 1
            chosen = X[:, tree.feature[0]] <= tree.threshold[0]
            got = exact_decrease(yi, chosen, k)
            assert got > 0
            if got != best:
                assert max(score(yi, c, k) for c in cuts) == \
                    score(yi, chosen, k)
        assert split > 60

    def test_pure_node_has_no_split(self):
        X = np.arange(10, dtype=np.float64)[:, None]
        assert best_split(X, np.zeros(10, dtype=np.int64), 2,
                          np.array([0])) is None

    def test_separating_an_even_binary_node(self):
        # [5, 5] parent: gini 0.5 drops to two pure children
        X = np.arange(10, dtype=np.float64)[:, None]
        yi = np.array([0] * 5 + [1] * 5)
        assert best_split(X, yi, 2, np.array([0])) == (0, 4.5, 0.5)

    def test_four_way_uniform_child(self):
        # [5, 1, 1, 1] parent (gini 36/64) splits into a four-way uniform
        # child (gini 0.75) and a pure one: decrease 36/64 - 4 * 0.75 / 8
        X = np.array([[0.0]] * 4 + [[1.0]] * 4)
        yi = np.array([0, 1, 2, 3, 0, 0, 0, 0])
        assert best_split(X, yi, 4, np.array([0])) == (0, 0.5, 0.1875)

    def test_float_score_decides_exact_ties(self):
        # the cuts after rows 2 and 6 both score 16/3 exactly, but the
        # float64 sl2/nl + sr2/nr is 1 + 4.333333333333333 for the first
        # and 3.3333333333333335 + 2, one ulp higher, for the second
        X = np.arange(8, dtype=np.float64)[:, None]
        yi = np.array([1, 0, 1, 1, 1, 0, 1, 1])
        assert best_split(X, yi, 2, np.array([0]))[:2] == (0, 5.5)

    def test_decrease_bounded_by_parent_impurity(self):
        r = np.random.default_rng(0)
        for _ in range(20):
            k = int(r.integers(2, 6))
            yi = r.integers(0, k, size=40)
            X = r.normal(size=(40, 3))
            counts = np.bincount(yi, minlength=k)
            parent = 1.0 - ((counts / 40) ** 2).sum()
            out = best_split(X, yi, k, np.arange(3))
            assert out is not None
            assert 0.0 < out[2] <= parent <= 1.0 - 1.0 / k + 1e-12

    def test_zero_decrease_split_not_taken(self):
        # both children would mirror the parent mix, so no split counts
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        yi = np.array([0, 1, 0, 1])
        assert best_split(X, yi, 2, np.array([0])) is None


def grid_xor():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    yi = np.array([0, 1, 1, 0])
    return X, yi


def depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(depth(tree, tree.left[node]),
                   depth(tree, tree.right[node]))


class TestTreeTrain:
    def test_single_class_becomes_leaf(self):
        tree = grow(np.zeros((5, 2)), [0] * 5, 1, 10)
        assert tree.feature.tolist() == [-1]
        assert tree.threshold.tolist() == [0.0]
        assert tree.left.tolist() == tree.right.tolist() == [-1]
        assert tree.value.tolist() == [0]

    def test_two_point_split(self):
        tree = grow(np.array([[0.0], [1.0]]), [0, 1], 2, 10)
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.left.tolist() == [1, -1, -1]
        assert tree.right.tolist() == [2, -1, -1]
        assert 0.0 < tree.threshold[0] < 1.0
        assert tree_predict(tree, np.array([[0.0], [1.0]])).tolist() == \
            [[0], [1]]

    def test_depth_one_stump_cannot_solve_xor(self):
        X, yi = grid_xor()
        tree = grow(X, yi, 2, 1)
        acc = np.mean(tree_predict(tree, X)[:, 0] == yi)
        # exhaustive oracle: any axis split makes mixed halves, so no
        # stump beats 1/2 on this grid
        best_stump = 0.0
        for f in range(2):
            for la in range(2):
                for lb in range(2):
                    pred = [la if X[i, f] <= 0.5 else lb for i in range(4)]
                    best_stump = max(best_stump, np.mean(pred == yi))
        assert best_stump == 0.5
        assert acc <= 0.75

    def test_xor_root_split_is_vacuous(self):
        # both axis splits leave the class mix unchanged, and vacuous
        # splits are refused, so the tree stays a single leaf whichever
        # feature is drawn
        X, yi = grid_xor()
        for seed in range(4):
            tree = grow(X, yi, 2, 5, seed)
            assert tree.feature.tolist() == [-1]
            assert tree.value.tolist() == [0]

    def test_depth_two_pattern_is_solved(self):
        # a class-1 row between class-0 rows: no single cut separates
        # it, two do; with one feature every draw holds it
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        yi = np.array([0, 0, 1, 0])
        tree = grow(X, yi, 2, 2)
        assert depth(tree) == 2
        assert tree_predict(tree, X)[:, 0].tolist() == yi.tolist()
        stump = grow(X, yi, 2, 1)
        assert tree_predict(stump, X)[:, 0].tolist() != yi.tolist()

    def test_depth_cap_is_respected(self):
        # d = 9, so each node draws 3 of the 9 features
        r = np.random.default_rng(2)
        X = r.normal(size=(200, 9))
        yi = r.integers(0, 5, size=200)
        tree = grow(X, yi, 5, 4)
        assert depth(tree) == 4

    @pytest.mark.parametrize("seed", range(3))
    def test_predict_matches_loop_oracle(self, seed):
        # rows that reach only some leaves of some of the four trees
        r = np.random.default_rng(seed)
        X = r.normal(size=(120, 4))
        yi = r.integers(0, 5, size=120)
        tree = tree_train(X, yi, 5, 5, forest_rngs(seed, 4))
        assert len(tree.feature) > 12
        # each training row once per split node, with that node's
        # feature set to its threshold, which goes left
        split = np.flatnonzero(tree.feature >= 0)
        ties = np.repeat(X, len(split), axis=0)
        ties[np.arange(len(ties)), np.tile(tree.feature[split], len(X))] = \
            np.tile(tree.threshold[split], len(X))
        for rows in (X, r.normal(size=(37, 4)), X[:1], ties):
            assert tree_predict(tree, rows).tolist() == \
                loop_tree_predict(tree, rows)

    def test_leaf_tie_breaks_canonically(self):
        # equal counts pick the lowest class index, and the forest
        # numbers classes in canonical order
        tree = grow(np.zeros((2, 1)), [1, 0], 2, 10)
        assert tree.value.tolist() == [0]
        data = LabeledDataset(X=np.zeros((2, 1)), labels=["B", "A"],
                              subjects=["s", "s"], feature_names=["f0"])
        assert forest_train_predict(data, np.zeros((3, 1)),
                                    ForestConfig(n_trees=3), 0).tolist() \
            == ["A"] * 3

    def test_rejects_empty_and_mismatched_input(self):
        with pytest.raises(ValidationError):
            tree_train(np.zeros((0, 2)), [], 1, 10, forest_rngs(0, 1))
        with pytest.raises(ValidationError):
            tree_train(np.zeros((2, 2)), [0], 1, 10, forest_rngs(0, 1))

    def test_row_bound_rejected_before_growing(self, monkeypatch):
        # the exact split test needs n·(sl2·nr + sr2·nl) <= 2n⁴ < 2**63
        assert 2 * forest._MAX_ROWS ** 4 < 2 ** 63
        data = clustered_dataset()
        cfg = ForestConfig(n_trees=2)
        monkeypatch.setattr(forest, "_MAX_ROWS", len(data))
        forest_train_predict(data, data.X, cfg, 0)
        monkeypatch.setattr(forest, "_MAX_ROWS", len(data) - 1)
        # a grower call would raise TypeError
        monkeypatch.setattr(forest, "_grow", None)
        with pytest.raises(ValidationError, match="120 training rows"):
            forest_train_predict(data, data.X, cfg, 0)


def tie_heavy(r, n, d):
    """Small integers or coarsely rounded normals, with a column
    duplicated, so equal values and equal scores are common."""
    if r.integers(2):
        X = r.integers(0, 4, size=(n, d)).astype(np.float64)
    else:
        X = np.round(r.normal(size=(n, d)), 1)
    if d > 1:
        X[:, r.integers(0, d)] = X[:, r.integers(0, d)]
    return X


class TestGrower:
    @pytest.mark.parametrize("group", [1, 3, forest._TREE_GROUP],
                             ids=lambda v: f"group{v}")
    @pytest.mark.parametrize("chunk", [1, 3, forest._CHUNK_PAIRS],
                             ids=lambda v: f"chunk{v}")
    def test_every_tree_equals_loop_oracle(self, monkeypatch, group, chunk):
        # each tree of a fold, grown level by level with other trees and
        # scored in chunks, is the oracle's node-at-a-time tree on the
        # same bootstrap rows, bit for bit, whatever the grouping
        monkeypatch.setattr(forest, "_TREE_GROUP", group)
        monkeypatch.setattr(forest, "_CHUNK_PAIRS", chunk)
        r = np.random.default_rng(4)
        cases = [(tie_heavy(r, 40, 6), r.integers(0, 3, size=40), 3, 4),
                 (tie_heavy(r, 60, 1), r.integers(0, 4, size=60), 4, 10),
                 (tie_heavy(r, 30, 9), np.zeros(30, dtype=np.int64), 1, 10),
                 (tie_heavy(r, 50, 4), r.integers(0, 2, size=50), 2, 1),
                 (r.normal(size=(70, 16)), r.integers(0, 5, size=70), 5,
                  10)]
        splits = 0
        for seed, (X, yi, n_cls, max_depth) in enumerate(cases):
            trees = tree_train(X, yi, n_cls, max_depth, forest_rngs(seed, 7))
            for t in range(7):
                rng = forest_rngs(seed, 7)[t]
                idx = rng.integers(0, len(X), size=len(X))
                want = loop_grow_tree(X[idx], yi[idx], n_cls, max_depth, rng)
                got = one_tree(trees, t)
                assert bits(got) == bits(want)
                assert max_depth > 1 or len(got[0]) <= 3
                splits += sum(f >= 0 for f in got[0])
        assert splits > 100

    def test_roots_come_first(self):
        r = np.random.default_rng(5)
        X = r.normal(size=(50, 4))
        trees = tree_train(X, r.integers(0, 3, size=50), 3, 6,
                           forest_rngs(0, 5))
        children = np.r_[trees.left, trees.right]
        assert sorted(set(range(len(trees.feature))) -
                      set(children.tolist())) == list(range(5))
        split = trees.feature >= 0
        assert (trees.left[split] > np.flatnonzero(split)).all()
        assert (trees.right[split] == trees.left[split] + 1).all()


def clustered_dataset(seed=0, per_class=30, noise=0.3):
    r = np.random.default_rng(seed)
    classes = ["C0", "C1", "C2", "C3"]
    centers = 3.0 * r.normal(size=(len(classes), 6))
    rows, labels = [], []
    for ci, c in enumerate(classes):
        rows.extend(centers[ci] + noise * r.normal(size=(per_class, 6)))
        labels.append(c)
        labels.extend([c] * (per_class - 1))
    return LabeledDataset(X=np.array(rows), labels=labels,
                          subjects=["s"] * len(rows),
                          feature_names=[f"f{j}" for j in range(6)])


class TestForest:
    def test_single_tree_equals_tree_train_on_its_bootstrap_draw(self):
        data = clustered_dataset()
        cfg = ForestConfig(n_trees=1)
        got = forest_train_predict(data, data.X, cfg, 5)
        # the tree's stream draws the bootstrap rows first, then splits
        yi = class_indices(data.classes, data.labels)
        tree = tree_train(data.X, yi, len(data.classes), cfg.max_depth,
                          forest_rngs(5, 1))
        assert got.tolist() == \
            [data.classes[i] for i in tree_predict(tree, data.X)[:, 0]]

    def test_first_twenty_trees_are_pinned(self):
        # Level-order (feature, threshold bits, label) of the first 20
        # trees of a seed-5 forest, each grown from its own stream; a
        # split node has label None, a leaf feature -1 and threshold 0.
        # The node count and digest come from oracles.loop_grow_tree on
        # each tree's bootstrap rows, not from the grower, so any change
        # to a draw, a split, a threshold bit, a tie rule or the node
        # order shows here.
        data = clustered_dataset(noise=2.0)
        cfg = ForestConfig()
        classes = data.classes
        yi = class_indices(classes, data.labels)
        trees = tree_train(data.X, yi, len(classes), cfg.max_depth,
                           forest_rngs(5, cfg.n_trees))
        digest = hashlib.sha256()
        nodes = 0
        for t in range(20):
            feature, threshold, _, _, value = one_tree(trees, t)
            walk = [(f, th.hex(), classes[v] if f < 0 else None)
                    for f, th, v in zip(feature, threshold, value)]
            nodes += len(walk)
            digest.update(repr(walk).encode())
        assert nodes == 592
        assert digest.hexdigest() == ("c749ee40fa913e6c53fa72bc2e1bacc2"
                                      "88c82589826ccd4744ed123848c573a3")

    def test_separable_self_prediction(self):
        data = clustered_dataset(seed=3)
        cfg = ForestConfig(n_trees=25)
        pred = forest_train_predict(data, data.X, cfg, 1)
        acc = np.mean([p == t for p, t in zip(pred, data.labels)])
        assert acc >= 0.95

    def test_deterministic_for_fixed_seed(self):
        data = clustered_dataset(seed=4)
        cfg = ForestConfig(n_trees=10)
        assert (forest_train_predict(data, data.X, cfg, 9).tolist()
                == forest_train_predict(data, data.X, cfg, 9).tolist())

    def test_forest_at_least_as_good_as_single_tree(self):
        # shallow trees underfit; bagging should recover accuracy
        # (mean over seeds: a statistical, not per-seed, guarantee)
        forest_accs, tree_accs = [], []
        for seed in range(5):
            data = clustered_dataset(seed=seed, noise=2.0)
            truth = data.labels
            shallow = ForestConfig(n_trees=15, max_depth=3)
            pred = forest_train_predict(data, data.X, shallow, seed)
            forest_accs.append(np.mean([p == t
                                        for p, t in zip(pred, truth)]))
            single = ForestConfig(n_trees=1, max_depth=3)
            pred = forest_train_predict(data, data.X, single, seed)
            tree_accs.append(np.mean([p == t
                                      for p, t in zip(pred, truth)]))
        assert np.mean(forest_accs) >= np.mean(tree_accs)

    def test_rejects_wrong_test_width(self):
        data = clustered_dataset()
        with pytest.raises(ValidationError):
            forest_train_predict(data, np.zeros((2, 3)), ForestConfig(), 0)
