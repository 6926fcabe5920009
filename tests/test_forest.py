"""CART trees, Gini splitting, and the bagged-forest baseline."""

import hashlib

import numpy as np
import pytest

from gesturekit.errors import ValidationError
from gesturekit.forest import (
    ForestConfig,
    forest_train_predict,
    tree_predict,
    tree_train,
)
from gesturekit.forest import _best_split
from gesturekit.imu import LabeledDataset, class_indices

from oracles import loop_best_split, loop_tree_predict, naive_best_split


class RecordingRng:
    """A generator that records the size of every split-feature draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def choice(self, *args, size, **kwargs):
        self.sizes.append(size)
        return self.rng.choice(*args, size=size, **kwargs)


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
            rng = RecordingRng(0)
            tree_train(X, r.integers(0, 3, size=60), 3, 10, rng)
            assert rng.sizes and set(rng.sizes) == {k}


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
            got = _best_split(X, yi, k, feat_ids)
            want = naive_best_split(X, yi, k, feat_ids, min_leaf=1)
            if want is None:
                assert got is None
            else:
                assert got[0] == want[0]
                assert got[1] == pytest.approx(want[1])
                assert got[2] == pytest.approx(want[2])

    def test_equals_per_feature_scan_exactly(self):
        # tie-heavy data: small integers, coarsely rounded normals and
        # duplicated columns, so equal decreases across cuts and
        # features are common and the tie rules decide
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
            feat_ids = r.permutation(d)[:int(r.integers(1, d + 1))]
            got = _best_split(X, yi, k, feat_ids)
            assert got == loop_best_split(X, yi, k, feat_ids, min_leaf=1)
            found += got is not None
        assert found > 200

    def test_pure_node_has_no_split(self):
        X = np.arange(10, dtype=np.float64)[:, None]
        assert _best_split(X, np.zeros(10, dtype=np.int64), 2,
                           np.array([0])) is None

    def test_separating_an_even_binary_node(self):
        # [5, 5] parent: gini 0.5 drops to two pure children
        X = np.arange(10, dtype=np.float64)[:, None]
        yi = np.array([0] * 5 + [1] * 5)
        assert _best_split(X, yi, 2, np.array([0])) == (0, 4.5, 0.5)

    def test_four_way_uniform_child(self):
        # [5, 1, 1, 1] parent (gini 36/64) splits into a four-way uniform
        # child (gini 0.75) and a pure one: decrease 36/64 - 4 * 0.75 / 8
        X = np.array([[0.0]] * 4 + [[1.0]] * 4)
        yi = np.array([0, 1, 2, 3, 0, 0, 0, 0])
        assert _best_split(X, yi, 4, np.array([0])) == (0, 0.5, 0.1875)

    def test_decrease_bounded_by_parent_impurity(self):
        r = np.random.default_rng(0)
        for _ in range(20):
            k = int(r.integers(2, 6))
            yi = r.integers(0, k, size=40)
            X = r.normal(size=(40, 3))
            counts = np.bincount(yi, minlength=k)
            parent = 1.0 - ((counts / 40) ** 2).sum()
            out = _best_split(X, yi, k, np.arange(3))
            assert out is not None
            assert 0.0 < out[2] <= parent <= 1.0 - 1.0 / k + 1e-12

    def test_zero_decrease_split_not_taken(self):
        # both children would mirror the parent mix, so no split counts
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        yi = np.array([0, 1, 0, 1])
        assert _best_split(X, yi, 2, np.array([0])) is None


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
        tree = tree_train(np.zeros((5, 2)), [0] * 5, 1, 10,
                          np.random.default_rng(0))
        assert tree.feature.tolist() == [-1]
        assert tree.threshold.tolist() == [0.0]
        assert tree.left.tolist() == tree.right.tolist() == [-1]
        assert tree.value.tolist() == [0]

    def test_two_point_split(self):
        tree = tree_train(np.array([[0.0], [1.0]]), [0, 1], 2, 10,
                          np.random.default_rng(0))
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.left.tolist() == [1, -1, -1]
        assert tree.right.tolist() == [2, -1, -1]
        assert 0.0 < tree.threshold[0] < 1.0
        assert tree_predict(tree, np.array([[0.0], [1.0]])).tolist() == \
            [0, 1]

    def test_depth_one_stump_cannot_solve_xor(self):
        X, yi = grid_xor()
        tree = tree_train(X, yi, 2, 1, np.random.default_rng(0))
        acc = np.mean(tree_predict(tree, X) == yi)
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
            tree = tree_train(X, yi, 2, 5, np.random.default_rng(seed))
            assert tree.feature.tolist() == [-1]
            assert tree.value.tolist() == [0]

    def test_depth_two_pattern_is_solved(self):
        # a class-1 row between class-0 rows: no single cut separates
        # it, two do; with one feature every draw holds it
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        yi = np.array([0, 0, 1, 0])
        tree = tree_train(X, yi, 2, 2, np.random.default_rng(0))
        assert depth(tree) == 2
        assert tree_predict(tree, X).tolist() == yi.tolist()
        stump = tree_train(X, yi, 2, 1, np.random.default_rng(0))
        assert tree_predict(stump, X).tolist() != yi.tolist()

    def test_depth_cap_is_respected(self):
        # d = 9, so each node draws 3 of the 9 features
        r = np.random.default_rng(2)
        X = r.normal(size=(200, 9))
        yi = r.integers(0, 5, size=200)
        tree = tree_train(X, yi, 5, 4, np.random.default_rng(0))
        assert depth(tree) == 4

    @pytest.mark.parametrize("seed", range(3))
    def test_predict_matches_loop_oracle(self, seed):
        # rows that reach only some leaves
        r = np.random.default_rng(seed)
        X = r.normal(size=(120, 4))
        yi = r.integers(0, 5, size=120)
        tree = tree_train(X, yi, 5, 5, np.random.default_rng(seed))
        assert len(tree.feature) > 3
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
        tree = tree_train(np.zeros((2, 1)), [1, 0], 2, 10,
                          np.random.default_rng(0))
        assert tree.value.tolist() == [0]
        data = LabeledDataset(X=np.zeros((2, 1)), labels=["B", "A"],
                              subjects=["s", "s"], feature_names=["f0"])
        assert forest_train_predict(data, np.zeros((3, 1)),
                                    ForestConfig(n_trees=3), 0).tolist() \
            == ["A"] * 3

    def test_rejects_empty_and_mismatched_input(self):
        with pytest.raises(ValidationError):
            tree_train(np.zeros((0, 2)), [], 1, 10,
                       np.random.default_rng(0))
        with pytest.raises(ValidationError):
            tree_train(np.zeros((2, 2)), [0], 1, 10,
                       np.random.default_rng(0))


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
        rng = np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0])
        idx = rng.integers(0, len(data), size=len(data))
        yi = class_indices(data.classes, data.labels)
        tree = tree_train(data.X[idx], yi[idx], len(data.classes),
                          cfg.max_depth, rng)
        assert got.tolist() == \
            [data.classes[i] for i in tree_predict(tree, data.X)]

    def test_first_twenty_trees_are_pinned(self):
        # Preorder (feature, threshold bits, label) of the first 20 trees
        # of a seed-5 forest, each grown from its own stream as in the
        # test above; a split node has label None, a leaf feature -1 and
        # threshold 0. The digest was computed with the per-feature split
        # scan that the batched one replaced, on linked nodes that the
        # node arrays replaced, so any change to a split, a threshold bit,
        # a tie rule or the node order shows here.
        data = clustered_dataset(noise=2.0)
        cfg = ForestConfig()
        classes = data.classes
        yi = class_indices(classes, data.labels)
        digest = hashlib.sha256()
        nodes = 0
        children = np.random.SeedSequence(5).spawn(cfg.n_trees)
        for child in children[:20]:
            rng = np.random.default_rng(child)
            idx = rng.integers(0, len(data), size=len(data))
            tree = tree_train(data.X[idx], yi[idx], len(classes),
                              cfg.max_depth, rng)
            walk = [(int(f), float(t).hex(),
                     classes[v] if f < 0 else None)
                    for f, t, v in zip(tree.feature, tree.threshold,
                                       tree.value)]
            nodes += len(walk)
            digest.update(repr(walk).encode())
        assert nodes == 574
        assert digest.hexdigest() == ("8b72dd842ed2bd22648bd15755ddcd5f"
                                      "e79e524026c350a47cc60232595ad2ef")

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
