"""Kernel, SMO solver, one-against-one ensemble, and model persistence."""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from gesturekit import svm
from gesturekit.errors import ConvergenceError, ParseError, ValidationError
from gesturekit.features import Scaler
from gesturekit.imu import LabeledDataset
from gesturekit.pipeline import IdentificationConfig, SvmTrainer
from gesturekit.svm import (
    KERNEL_KINDS,
    KernelConfig,
    OvoSvmModel,
    gram,
    load_model,
    ovo_train,
    ovo_train_many,
    save_model,
    smo_solve_stack,
    vote_ranking,
    vote_tally,
)

from oracles import (dual_objective, kkt_max_violation, loop_smo_solve,
                     loop_vote_tally, naive_vote_winner, pg_dual_solve)


def random_problem(seed, n=None, d=None, separation=0.3):
    """Linearly-structured binary problem with label noise."""
    r = np.random.default_rng(seed)
    n = n if n is not None else int(r.integers(10, 41))
    d = d if d is not None else int(r.integers(2, 6))
    X = r.normal(size=(n, d))
    w = r.normal(size=d)
    y = np.where(X @ w + separation * r.normal(size=n) > 0, 1.0, -1.0)
    if len(np.unique(y)) < 2:
        y[0] = -y[0]
    return X, y


class TestKernelConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            KernelConfig(kind="rbf")

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValidationError):
            KernelConfig(kind="radial", gamma=0.0)
        with pytest.raises(ValidationError):
            KernelConfig(kind="polynomial", gamma=-1.0)

    def test_linear_ignores_gamma_sign(self):
        cfg = KernelConfig(kind="linear", gamma=-2.0)
        assert cfg.gamma == -2.0

    def test_degree_normalized_to_int(self):
        cfg = KernelConfig(kind="polynomial", gamma=1.0, degree=2.0)
        assert cfg.degree == 2 and isinstance(cfg.degree, int)

    def test_bad_degree_rejected(self):
        with pytest.raises(ValidationError):
            KernelConfig(kind="polynomial", gamma=1.0, degree=0)
        with pytest.raises(ValidationError):
            KernelConfig(kind="polynomial", gamma=1.0, degree=2.5)

    def test_non_linear_kernel_needs_gamma(self):
        with pytest.raises(ValidationError, match="radial kernel needs"):
            KernelConfig(kind="radial")
        assert KernelConfig(kind="linear").gamma is None

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_non_finite_gamma_or_coef0_rejected(self, kind):
        for value in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="gamma must be finite"):
                KernelConfig(kind=kind, gamma=value)
            with pytest.raises(ValidationError, match="coef0 must be finite"):
                KernelConfig(kind=kind, gamma=0.5, coef0=value)

    def test_presets(self):
        ident = IdentificationConfig()
        assert ident.kernel.kind == "polynomial"
        assert ident.kernel.gamma == 0.95
        assert ident.kernel.degree == 3
        assert ident.kernel.coef0 == 2.0
        assert ident.cost == 3.0
        recog = SvmTrainer()
        assert recog.kernel.kind == "radial"
        assert recog.kernel.gamma == 0.005
        assert recog.cost == 1.0


class TestGram:
    @pytest.fixture()
    def vectors(self):
        r = np.random.default_rng(3)
        return r.normal(size=(6, 4)), r.normal(size=(5, 4))

    def test_linear_matches_formula(self, vectors):
        A, B = vectors
        K = gram(KernelConfig(kind="linear"), A, B)
        for i in range(len(A)):
            for j in range(len(B)):
                assert K[i, j] == pytest.approx(float(A[i] @ B[j]))

    def test_polynomial_matches_formula(self, vectors):
        A, B = vectors
        cfg = KernelConfig(kind="polynomial", gamma=0.7, coef0=1.5, degree=3)
        K = gram(cfg, A, B)
        for i in range(len(A)):
            for j in range(len(B)):
                want = (0.7 * float(A[i] @ B[j]) + 1.5) ** 3
                assert K[i, j] == pytest.approx(want)

    def test_radial_matches_formula(self, vectors):
        A, B = vectors
        cfg = KernelConfig(kind="radial", gamma=0.4)
        K = gram(cfg, A, B)
        for i in range(len(A)):
            for j in range(len(B)):
                want = np.exp(-0.4 * float(np.sum((A[i] - B[j]) ** 2)))
                assert K[i, j] == pytest.approx(want)

    def test_sigmoid_matches_formula(self, vectors):
        A, B = vectors
        cfg = KernelConfig(kind="sigmoid", gamma=0.2, coef0=-0.5)
        K = gram(cfg, A, B)
        for i in range(len(A)):
            for j in range(len(B)):
                want = np.tanh(0.2 * float(A[i] @ B[j]) - 0.5)
                assert K[i, j] == pytest.approx(want)

    def test_radial_gram_is_symmetric_with_unit_diagonal(self, vectors):
        A, _ = vectors
        K = gram(KernelConfig(kind="radial", gamma=1.0), A, A)
        assert np.allclose(K, K.T)
        assert np.allclose(np.diag(K), 1.0)

    def test_radial_self_gram_equals_two_array_gram(self):
        # one array as both arguments takes each distance once; the
        # matrix must be the bytes of the two-array path
        r = np.random.default_rng(4)
        cfg = KernelConfig(kind="radial", gamma=0.3)
        for n, d in ((1, 3), (2, 1), (37, 93), (168, 93), (300, 7)):
            X = 5.0 * r.normal(size=(n, d))
            assert gram(cfg, X, X).tobytes() == \
                gram(cfg, X, X.copy()).tobytes()


def solve_one(K, y, cost, **options):
    """``(alpha, bias)`` of one problem, solved as a stack of one."""
    return smo_solve_stack([K], [y], [cost], **options)[0]


class TestSmoSolver:
    def test_matches_projected_gradient_oracle(self):
        kinds = ("linear", "polynomial", "radial")
        for trial in range(6):
            X, y = random_problem(200 + trial)
            cfg = KernelConfig(kind=kinds[trial % 3], gamma=0.5, coef0=1.0,
                               degree=2)
            K = gram(cfg, X, X)
            cost = (0.5, 1.0, 3.0)[trial % 3]
            alpha, bias = solve_one(K, y, cost, tol=2e-4)
            ref = pg_dual_solve(K, y, cost)
            got = dual_objective(K, y, alpha)
            want = dual_objective(K, y, ref)
            assert abs(got - want) < 1e-3
            assert kkt_max_violation(K, y, alpha, bias, cost) < 1e-3

    def test_constraints_hold_exactly(self):
        X, y = random_problem(7, n=30, d=3)
        K = gram(KernelConfig(kind="radial", gamma=0.5), X, X)
        cost = 2.0
        alpha, _ = solve_one(K, y, cost)
        assert np.all(alpha >= 0.0)
        assert np.all(alpha <= cost)
        assert abs(float(alpha @ y)) < 1e-9

    def test_multipliers_snap_to_bounds(self):
        # a capped multiplier lands exactly on its bound, so nothing
        # lingers within the floor of a bound without sitting on it
        floor = 1e-8
        X, y = random_problem(11, n=40, d=4, separation=1.0)
        cost = 1.0
        K = gram(KernelConfig(kind="linear"), X, X)
        alpha, _ = solve_one(K, y, cost)
        near_zero = (alpha > 0.0) & (alpha < floor)
        near_cost = (alpha > cost - floor) & (alpha < cost)
        assert not near_zero.any()
        assert not near_cost.any()

    def test_two_calls_are_bit_equal(self):
        X, y = random_problem(13)
        K = gram(KernelConfig(kind="radial", gamma=0.3), X, X)
        a1, b1 = solve_one(K, y, 1.5)
        a2, b2 = solve_one(K, y, 1.5)
        assert np.array_equal(a1, a2)
        assert b1 == b2

    def test_conflicting_duplicate_rows_converge(self):
        # same row with both labels: the optimum caps every multiplier
        r = np.random.default_rng(5)
        X = np.repeat(r.normal(size=(10, 3)), 2, axis=0)
        y = np.tile([1.0, -1.0], 10)
        cost = 3.0
        K = gram(KernelConfig(kind="polynomial", gamma=0.95, coef0=2.0,
                              degree=3), X, X)
        alpha, _ = solve_one(K, y, cost)
        ref = pg_dual_solve(K, y, cost)
        assert abs(dual_objective(K, y, alpha)
                   - dual_objective(K, y, ref)) < 1e-3

    def test_indefinite_sigmoid_kernel_converges(self):
        # a sigmoid Gram matrix is indefinite, so some pairs have
        # curvature a <= 0; the step then runs to the edge of the box
        for trial in range(5):
            X, y = random_problem(300 + trial, n=40)
            K = gram(KernelConfig(kind="sigmoid", gamma=0.5, coef0=-1.0),
                     X, X)
            assert np.linalg.eigvalsh(K).min() < 0.0
            cost = (0.5, 1.0, 3.0)[trial % 3]
            alpha, bias = solve_one(K, y, cost)
            assert np.all((alpha >= 0.0) & (alpha <= cost))
            assert abs(float(alpha @ y)) < 1e-9
            assert kkt_max_violation(K, y, alpha, bias, cost) <= 1e-3

    @pytest.mark.parametrize("cost", [0.0, -1.0, np.nan, np.inf])
    def test_cost_must_be_positive_and_finite(self, cost):
        X, y = random_problem(19, n=10, d=2)
        with pytest.raises(ValidationError):
            solve_one(gram(KernelConfig(kind="linear"), X, X), y, cost)

    def test_sweep_budget_raises(self):
        X, y = random_problem(17, n=30, d=3)
        K = gram(KernelConfig(kind="radial", gamma=0.5), X, X)
        with pytest.raises(ConvergenceError):
            solve_one(K, y, 1.0, max_iter=1)


KERNELS = (KernelConfig(kind="linear"),
           KernelConfig(kind="polynomial", gamma=0.5, coef0=1.0, degree=2),
           KernelConfig(kind="radial", gamma=0.7),
           KernelConfig(kind="sigmoid", gamma=0.5, coef0=-1.0))


def stacked_problems(r, count):
    """``count`` random (K, y, cost) problems of mixed kernel, cost, size
    (2 to 60) and feature width, some with duplicated or rounded rows, and
    the kernel kind of each."""
    out, kinds = [], []
    for _ in range(count):
        n, d = int(r.integers(2, 61)), int(r.integers(1, 6))
        X = r.normal(size=(n, d))
        if r.random() < 0.3:
            X[n // 2:] = X[:n - n // 2]
        if r.random() < 0.2:
            X = np.round(X)
        y = np.where(r.random(n) < 0.5, 1.0, -1.0)
        y[0], y[-1] = 1.0, -1.0
        kernel = KERNELS[int(r.integers(len(KERNELS)))]
        out.append((gram(kernel, X, X), y, float(r.choice([0.5, 1.0, 3.0]))))
        kinds.append(kernel.kind)
    return out, kinds


class TestSmoStack:
    def test_equals_one_problem_loop_exactly(self):
        # the one-problem WSS2 loop is the oracle, bit for bit, on stacks
        # of 1 to 11 problems whose sizes differ, so padding is exercised
        r = np.random.default_rng(909)
        solved = midpoint = floored = duplicated = 0
        kinds_seen = set()
        while solved < 320:
            problems, kinds = stacked_problems(r, int(r.integers(1, 12)))
            got = smo_solve_stack(*zip(*problems))
            kinds_seen.update(kinds)
            for (K, y, cost), kind, (alpha, bias) in zip(problems, kinds,
                                                        got):
                want_alpha, want_bias = loop_smo_solve(K, y, cost)
                assert alpha.tobytes() == want_alpha.tobytes()
                assert bias == want_bias
                solved += 1
                midpoint += not np.any((alpha > 0.0) & (alpha < cost))
                diag = np.diag(K)
                floored += kind == "sigmoid" and np.any(
                    diag[:, None] + diag - 2.0 * K < 0.0)
                duplicated += len(np.unique(K, axis=0)) < len(K)
        # every kernel, the midpoint-bias branch, the 1e-12 floor under a
        # negative curvature and duplicated rows all took part
        assert kinds_seen == {k.kind for k in KERNELS}
        assert midpoint > 0 and floored > 0 and duplicated > 0

    def test_one_problem_runs_out_of_its_own_budget(self):
        # an explicit budget: the small problems converge within it and the
        # last one does not; the error names that problem as the loop would
        r = np.random.default_rng(31)
        problems = [p for p in stacked_problems(r, 60)[0]
                    if len(p[1]) <= 6][:3]
        X, y = random_problem(17, n=30, d=3)
        problems.append((gram(KERNELS[2], X, X), y, 1.0))
        with pytest.raises(RuntimeError) as want:
            loop_smo_solve(*problems[-1], max_iter=8)
        with pytest.raises(ConvergenceError, match="n=30") as got:
            smo_solve_stack(*zip(*problems), max_iter=8)
        assert str(got.value) == str(want.value)
        for K, y, cost in problems[:-1]:
            loop_smo_solve(K, y, cost, max_iter=8)

    def test_default_budget_is_per_problem(self):
        # with tol=-inf no problem converges; above the MIN_STEPS floor the
        # smallest one (n=101) runs out first, after its own 100n = 10100
        # steps
        problems = []
        for n in (150, 101, 120):
            X, y = random_problem(n, n=n, d=3)
            problems.append((gram(KERNELS[0], X, X), y, 1.0))
        with pytest.raises(RuntimeError) as want:
            loop_smo_solve(*problems[1], tol=-np.inf)
        with pytest.raises(ConvergenceError,
                           match="within 10100 steps .n=101,") as got:
            smo_solve_stack(*zip(*problems), tol=-np.inf)
        assert str(got.value) == str(want.value)

    def test_default_budget_has_a_floor(self):
        # 100n would be 400 steps; the default budget is MIN_STEPS
        X, y = random_problem(4, n=4, d=3)
        problem = (gram(KERNELS[0], X, X), y, 1.0)
        with pytest.raises(RuntimeError) as want:
            loop_smo_solve(*problem, tol=-np.inf)
        with pytest.raises(ConvergenceError,
                           match=f"within {svm.MIN_STEPS} steps") as got:
            smo_solve_stack(*zip(problem), tol=-np.inf)
        assert str(got.value) == str(want.value)


class TestSmoTrain:
    """Binary SMO training: ``ovo_train`` on two classes."""

    @staticmethod
    def two_class(X, y):
        labels = ["a" if v > 0 else "b" for v in y]
        return LabeledDataset(X=X, labels=labels, subjects=["S"] * len(y),
                              feature_names=[f"f{k}" for k in
                                             range(X.shape[1])])

    def test_separable_problem_is_classified(self):
        r = np.random.default_rng(2)
        X = np.vstack([r.normal(loc=-3.0, size=(15, 2)),
                       r.normal(loc=3.0, size=(15, 2))])
        y = np.array([-1.0] * 15 + [1.0] * 15)
        model = ovo_train(self.two_class(X, y), KernelConfig(kind="linear"),
                          1.0)
        assert model.predict(X).tolist() == \
            self.two_class(X, y).labels.tolist()

    def test_keeps_only_support_vectors(self):
        X, y = random_problem(23, n=40, d=3, separation=2.0)
        model = ovo_train(self.two_class(X, y), KernelConfig(kind="linear"),
                          1.0)
        assert 0 < model.sv.shape[0] <= len(X)
        assert np.all(model.coef != 0.0)

    def test_rejects_single_class(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValidationError):
            ovo_train(self.two_class(X, np.ones(4)),
                      KernelConfig(kind="linear"), 1.0)

    def test_rejects_non_finite_features(self):
        X = np.zeros((4, 2))
        X[1, 1] = np.nan
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(ValidationError, match="non-finite"):
            ovo_train(self.two_class(X, y), KernelConfig(kind="linear"), 1.0)


class TestDecisionValue:
    """f(x) = sum_i alpha_i y_i K(s_i, x) + b, one column per class pair."""

    def build_model(self, sv=((0.0, 1.0), (2.0, -1.0), (1.0, 1.0)),
                    coef=((0.5, 0.0, 1.0), (-0.75, 0.25, 0.0),
                          (0.25, -0.5, -1.0))):
        return OvoSvmModel(classes=("A", "B", "C"),
                           cfg=KernelConfig(kind="radial", gamma=0.5),
                           cost=1.0, sv=np.reshape(sv, (-1, 2)), coef=coef,
                           bias=np.array([0.1, -0.2, 0.3]),
                           scaler=Scaler(np.zeros(2), np.ones(2)),
                           feature_names=("f0", "f1"))

    def test_matches_hand_computation(self):
        model = self.build_model()
        x = np.array([0.5, 0.5])
        got = model.decision_matrix(x)
        assert got.shape == (1, 3)
        for p in range(3):
            want = model.bias[p]
            for s, w in zip(model.sv, model.coef[:, p]):
                want += w * np.exp(-0.5 * float(np.sum((s - x) ** 2)))
            assert got[0, p] == pytest.approx(want)

    def test_matrix_input_returns_vector(self):
        model = self.build_model()
        X = np.array([[0.5, 0.5], [1.0, 0.0]])
        out = model.decision_matrix(X)
        assert out.shape == (2, 3)
        assert np.allclose(out[0], model.decision_matrix(X[0])[0],
                           rtol=0.0, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = self.build_model()
        with pytest.raises(ValidationError):
            model.decision_matrix(np.zeros(3))

    def test_empty_support_set_returns_bias(self):
        model = self.build_model(sv=np.empty((0, 2)), coef=np.empty((0, 3)))
        assert np.array_equal(model.decision_matrix(np.zeros(2))[0],
                              model.bias)

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            self.build_model(coef=np.zeros((2, 3)))


def twelve_class_dataset(seed=0, per_class=6, d=3):
    """Well-separated centers, one per class, tiny noise."""
    r = np.random.default_rng(seed)
    classes = [f"G{i:02d}" for i in range(12)]
    centers = 10.0 * r.normal(size=(12, d))
    rows, labels, subjects = [], [], []
    for ci, c in enumerate(classes):
        for k in range(per_class):
            rows.append(centers[ci] + 0.1 * r.normal(size=d))
            labels.append(c)
            subjects.append(f"S{k % 3}")
    names = [f"f{j}" for j in range(d)]
    return LabeledDataset(X=np.array(rows), labels=labels,
                          subjects=subjects, feature_names=names)


@pytest.fixture(scope="module")
def ovo_model():
    return ovo_train(twelve_class_dataset(),
                     KernelConfig(kind="linear"), 1.0)


class TestOvo:
    @pytest.fixture()
    def model(self, ovo_model):
        return ovo_model

    def test_pair_count_is_66(self, model):
        assert len(model.pairs) == len(set(model.pairs)) == 66
        assert model.coef.shape == (len(model.sv), 66)
        assert model.bias.shape == (66,)

    def test_pair_orientation(self, model):
        # the (a, b) member treats a as the +1 side: a row of class a
        # must score positively on that pair
        data = twelve_class_dataset()
        a, b = model.pairs[0]
        row = data.X[np.flatnonzero(data.labels == a)[0]]
        assert model.decision_matrix(row)[0, 0] > 0.0

    def test_training_rows_recovered(self, model):
        data = twelve_class_dataset()
        assert model.predict(data.X).tolist() == data.labels.tolist()

    def test_vote_tally_matches_naive_winner(self, model):
        r = np.random.default_rng(9)
        classes, pairs = model.classes, model.pairs
        D = r.normal(size=(25, len(pairs)))
        D[r.random(size=D.shape) < 0.2] = 0.0
        # whole-number decisions tie on margin sums as well as on votes
        D = np.vstack([D, r.integers(-1, 2, size=D.shape).astype(float)])
        votes, margins = vote_tally(len(classes), D)
        ranking = vote_ranking(votes, margins)
        for i in range(len(D)):
            want = naive_vote_winner(classes, pairs, D[i])
            assert classes[ranking[i, 0]] == want
            assert list(ranking[i]) == sorted(
                range(len(classes)),
                key=lambda c: (-votes[i, c], -margins[i, c], c))

    def test_vote_tally_histogram(self, model):
        data = twelve_class_dataset()
        votes, margins = vote_tally(len(model.classes),
                                    model.decision_matrix(data.X))
        assert votes.shape == (len(data), len(model.classes))
        assert np.all(votes.sum(axis=1) == 66)
        ranking = vote_ranking(votes, margins)
        rows = np.arange(len(data))[:, None]
        assert np.all(np.sort(ranking, axis=1) == np.arange(12))
        assert np.all(np.diff(votes[rows, ranking], axis=1) <= 0)
        assert [model.classes[w] for w in ranking[:, 0]] == \
            data.labels.tolist()

    @pytest.mark.parametrize("k", [2, 12])
    @pytest.mark.parametrize("n", [1, 300])
    def test_vote_tally_equals_loop_oracle(self, k, n):
        # magnitudes over 16 decades, so a margin sum taken in another
        # order would round differently; exact zeros of both signs vote
        # for the pair's first class
        r = np.random.default_rng(100 * k + n)
        classes = [f"c{i:02d}" for i in range(k)]
        pairs = list(combinations(classes, 2))
        D = r.normal(size=(n, len(pairs))) * 10.0 ** r.uniform(-8, 8,
                                                               (n, len(pairs)))
        D[r.random(size=D.shape) < 0.15] = 0.0
        D[r.random(size=D.shape) < 0.15] = -0.0
        votes, margins = vote_tally(k, D)
        want_votes, want_margins = loop_vote_tally(classes, pairs, D)
        assert votes.dtype == want_votes.dtype
        assert (votes == want_votes).all()
        assert margins.tobytes() == want_margins.tobytes()

    @pytest.mark.parametrize("k", [2, 3, 12])
    def test_vote_pair_sides_are_made_once_read_only(self, k):
        """vote_tally's pair sides are ``np.triu_indices(k, 1)``, cached
        per class count, so no caller may write to them."""
        a, b = svm._pair_sides(k)
        want_a, want_b = np.triu_indices(k, 1)
        assert np.array_equal(a, want_a) and np.array_equal(b, want_b)
        assert not a.flags.writeable and not b.flags.writeable
        assert svm._pair_sides(k)[0] is a

    def test_scaler_is_embedded(self, model):
        data = twelve_class_dataset()
        expected = gram(model.cfg, model.scaler.transform(data.X),
                        model.sv) @ model.coef + model.bias
        assert np.array_equal(model.decision_matrix(data.X), expected)

    def test_two_class_minimum(self):
        data = twelve_class_dataset()
        keep = [i for i, c in enumerate(data.labels) if c in ("G00", "G01")]
        small = LabeledDataset(X=data.X[keep],
                               labels=[data.labels[i] for i in keep],
                               subjects=[data.subjects[i] for i in keep],
                               feature_names=data.feature_names)
        trained = ovo_train(small, KernelConfig(kind="linear"), 1.0)
        assert trained.pairs == [("G00", "G01")]

    def test_given_scaler_means_rows_already_scaled(self):
        data = twelve_class_dataset()
        cfg = KernelConfig(kind="linear")
        scaler = Scaler.fit(data.X)
        fitted = ovo_train(data, cfg, 1.0)
        given = ovo_train(replace(data, X=scaler.transform(data.X)), cfg,
                          1.0, scaler=scaler)
        assert given.scaler is scaler
        assert np.array_equal(given.sv, fitted.sv)
        assert np.array_equal(given.coef, fitted.coef)
        assert np.array_equal(given.bias, fitted.bias)

    def test_pair_model_count_validated(self, model):
        with pytest.raises(ValidationError):
            replace(model, coef=model.coef[:, :10])
        with pytest.raises(ValidationError):
            replace(model, bias=model.bias[:10])

    @pytest.mark.parametrize("kind", ["linear", "radial"])
    def test_matches_per_pair_reference(self, kind):
        # every pair rebuilt from its own one-problem loop solve and its own
        # support vectors, sliced as ovo_train does
        data = twelve_class_dataset()
        model = ovo_train(data, KernelConfig(kind=kind, gamma=0.8), 1.0)
        Xs = model.scaler.transform(data.X)
        labels = np.asarray(data.labels)
        pairs = list(combinations(model.classes, 2))
        D = model.decision_matrix(data.X)
        assert model.pairs == pairs and D.shape == (len(data), 66)
        for p, (a, b) in enumerate(pairs):
            mask = (labels == a) | (labels == b)
            X, y = Xs[mask], np.where(labels[mask] == a, 1.0, -1.0)
            alpha, bias = loop_smo_solve(gram(model.cfg, X, X), y, 1.0)
            assert model.bias[p] == bias
            sv = alpha > 0.0
            want = gram(model.cfg, Xs, X[sv]) @ (alpha * y)[sv] + bias
            assert np.max(np.abs(D[:, p] - want)) <= 1e-12
            assert np.count_nonzero(model.coef[:, p]) == np.count_nonzero(sv)

    def test_list_form_equals_one_dataset_at_a_time(self, monkeypatch):
        # datasets of different sizes streamed through one call, in stacks
        # smaller than one dataset's 66 pairs and spanning datasets, give
        # the same bytes as training each dataset on its own; the last two
        # come already scaled, each with its own scaler
        datasets = [twelve_class_dataset(seed=s, per_class=k)
                    for s, k in ((1, 2), (2, 6), (3, 4), (4, 5))]
        items = [(ds, None) for ds in datasets[:2]]
        for ds in datasets[2:]:
            scaler = Scaler.fit(ds.X)
            items.append((replace(ds, X=scaler.transform(ds.X)), scaler))
        kernels = (KernelConfig(kind="radial", gamma=0.8),
                   KernelConfig(kind="polynomial", gamma=0.5, coef0=1.0,
                                degree=2),
                   KernelConfig(kind="linear"))
        alones = [[ovo_train(ds, cfg, 1.0, scaler=sc) for ds, sc in items]
                  for cfg in kernels]
        # the count cap closes the 4-row stacks, the byte budget the others;
        # under it the 24-row dataset's radial pair Grams are cut from one
        # Gram, the others' formed per pair
        monkeypatch.setattr(svm, "_STACK_PROBLEMS", 40)
        monkeypatch.setattr(svm, "_STACK_BYTES", 8 * 12 * 12 * 30)
        for cfg, alone in zip(kernels, alones):
            pulled = []

            def stream():
                for k, item in enumerate(items):
                    pulled.append(k)
                    yield item

            out = 0
            for k, many in enumerate(ovo_train_many(stream(), cfg, 1.0)):
                # model k comes out before dataset k + 2 is pulled
                assert len(pulled) <= k + 2
                one = alone[k]
                assert many.classes == one.classes and many.cfg == one.cfg
                for name in ("sv", "coef", "bias"):
                    assert getattr(many, name).tobytes() == \
                        getattr(one, name).tobytes()
                assert np.array_equal(many.scaler.mean, one.scaler.mean)
                assert np.array_equal(many.scaler.std, one.scaler.std)
                out += 1
            assert out == len(items) and pulled == list(range(len(items)))

    def test_support_vectors_stored_once(self, model):
        assert len(np.unique(model.sv, axis=0)) == len(model.sv)
        # several pairs share rows: fewer rows than per-pair support sets
        assert len(model.sv) < np.count_nonzero(model.coef)


# rows for svm._unique_rows: a first column with no ties, which orders the
# rows alone, or with ties, which np.unique settles
UNIQUE_ROWS = {
    "no-ties": np.random.default_rng(5).normal(size=(40, 3)),
    "first-column-ties": np.array([[1.0, 2.0], [0.5, 9.0], [1.0, -3.0],
                                   [0.5, 1.0]]),
    "duplicate-rows": np.array([[2.0, 1.0], [0.0, 4.0], [2.0, 1.0],
                                [3.0, 0.0], [0.0, 4.0]]),
    "signed-zeros": np.array([[0.0, 1.0], [-0.0, 0.5], [-1.0, 2.0]]),
    "signed-zeros-equal-rows": np.array([[0.0, 1.0], [-0.0, 1.0]]),
    "one-row": np.array([[4.0, -1.0, 2.5]]),
}


@pytest.mark.parametrize("case", sorted(UNIQUE_ROWS))
def test_unique_rows_match_numpy(case):
    X = UNIQUE_ROWS[case]
    sv, row = svm._unique_rows(X)
    want_sv, want_row = np.unique(X, axis=0, return_inverse=True)
    assert sv.tobytes() == want_sv.tobytes()
    assert np.array_equal(row.ravel(), want_row.ravel())


@pytest.fixture(scope="module")
def persisted():
    data = twelve_class_dataset(seed=4, per_class=3)
    cfg = KernelConfig(kind="radial", gamma=0.8)
    return data, ovo_train(data, cfg, 1.0)


class TestPersistence:
    @pytest.fixture()
    def trained(self, persisted):
        return persisted

    def test_round_trip_is_exact(self, trained, tmp_path):
        data, model = trained
        path = tmp_path / "m.gkmodel"
        save_model(model, path)
        back = load_model(path)
        assert back.classes == model.classes
        assert back.pairs == model.pairs
        assert back.feature_names == model.feature_names
        assert np.array_equal(back.scaler.mean, model.scaler.mean)
        assert np.array_equal(back.scaler.std, model.scaler.std)
        assert back.cfg == model.cfg and back.cost == model.cost
        assert np.array_equal(back.sv, model.sv)
        assert np.array_equal(back.coef, model.coef)
        assert np.array_equal(back.bias, model.bias)
        d0 = model.decision_matrix(data.X)
        d1 = back.decision_matrix(data.X)
        assert np.array_equal(d0, d1)

    def test_save_load_save_is_stable(self, trained, tmp_path):
        _, model = trained
        p1, p2 = tmp_path / "a.gkmodel", tmp_path / "b.gkmodel"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unsupported_version(self, trained, tmp_path):
        _, model = trained
        path = tmp_path / "m.gkmodel"
        save_model(model, path)
        text = path.read_text().replace("GKMODEL v2", "GKMODEL v999", 1)
        path.write_text(text)
        with pytest.raises(ParseError, match="unsupported model version"):
            load_model(path)

    def test_v1_file_asks_for_retraining(self, trained, tmp_path):
        _, model = trained
        path = tmp_path / "m.gkmodel"
        save_model(model, path)
        path.write_text(path.read_text().replace("GKMODEL v2", "GKMODEL v1"))
        with pytest.raises(ParseError, match="retrain"):
            load_model(path)

    def test_saved_support_vectors_are_distinct(self, trained, tmp_path):
        _, model = trained
        path = tmp_path / "m.gkmodel"
        save_model(model, path)
        rows = [ln for ln in path.read_text().splitlines()
                if ln.startswith("sv ")]
        assert len(rows) == len(set(rows)) == len(model.sv)

    @pytest.mark.parametrize("key,value", [
        ("sv", "nan"), ("sv", "inf"), ("alpha_y", "-inf"), ("bias", "nan"),
        ("mean", "inf"), ("std", "0"), ("std", "-1"), ("gamma", "inf"),
        ("cost", "nan"), ("cost", "-1"), ("cost", "0")])
    def test_non_finite_or_zero_scale_rejected(self, trained, tmp_path,
                                               key, value):
        _, model = trained
        path = tmp_path / "m.gkmodel"
        save_model(model, path)
        lines = path.read_text().splitlines()
        idx = next(i for i, ln in enumerate(lines)
                   if ln.startswith(key + " "))
        width = len(lines[idx].split()) - 1
        lines[idx] = " ".join([key] + [value] * width)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "m.gkmodel"
        path.write_text("hello world\n")
        with pytest.raises(ParseError, match="not a GKMODEL file"):
            load_model(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.gkmodel"
        path.write_text("")
        with pytest.raises(ParseError, match="empty model file"):
            load_model(path)

    def test_truncations_raise_parse_errors(self, trained, tmp_path):
        _, model = trained
        path = tmp_path / "full.gkmodel"
        save_model(model, path)
        lines = path.read_text().splitlines()
        # cutting the file at any section boundary must fail cleanly
        for cut in (1, 3, 8, 10, len(lines) - 2):
            clipped = tmp_path / f"cut{cut}.gkmodel"
            clipped.write_text("\n".join(lines[:cut]) + "\n")
            with pytest.raises(ParseError):
                load_model(clipped)

    def test_bad_number_rejected(self, trained, tmp_path):
        _, model = trained
        path = tmp_path / "m.gkmodel"
        save_model(model, path)
        lines = path.read_text().splitlines()
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("mean "))
        # nan(1) and 0x10 are numbers to C's strtod but not to float()
        for token in ("oops", "nan(1)", "0x10"):
            lines[idx] = f"mean 1.0 {token} 2.0"
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ParseError, match="bad number in \\[scaler\\]"):
                load_model(path)

    def test_duplicate_feature_name_rejected(self, trained, tmp_path):
        _, model = trained
        path = tmp_path / "m.gkmodel"
        save_model(model, path)
        lines = path.read_text().splitlines()
        first = lines.index("[registry]") + 1
        lines[first + 1] = lines[first]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="inconsistent model: duplicate "
                           "feature names"):
            load_model(path)

    def test_whitespace_class_name_rejected_on_save(self, trained, tmp_path):
        _, model = trained
        victim = model.classes[0]

        def fix(c):
            return "bad name" if c == victim else c

        broken = replace(model, classes=tuple(fix(c) for c in model.classes))
        with pytest.raises(ValidationError):
            save_model(broken, tmp_path / "m.gkmodel")

    def test_rqa_section_round_trip(self, trained, tmp_path):
        _, model = trained
        plain, tagged = tmp_path / "plain.gkmodel", tmp_path / "rqa.gkmodel"
        save_model(model, plain)
        assert "[rqa]" not in plain.read_text()
        save_model(replace(model, rqa=(("step", "25"), ("norm", "L2"))),
                   tagged)
        lines = tagged.read_text().splitlines()
        assert lines[:4] == ["GKMODEL v2", "[rqa]", "step 25", "norm L2"]
        assert lines[4:] == plain.read_text().splitlines()[1:]
        assert load_model(tagged).rqa == (("step", "25"), ("norm", "L2"))
        assert load_model(plain).rqa == ()

    @pytest.mark.parametrize("entry", ["step", "step 25 50", "[rqa]"])
    def test_rqa_line_needs_key_and_value(self, trained, tmp_path, entry):
        _, model = trained
        path = tmp_path / "m.gkmodel"
        save_model(model, path)
        head, rest = path.read_text().split("\n", 1)
        path.write_text(f"{head}\n[rqa]\n{entry}\n{rest}")
        with pytest.raises(ParseError):
            load_model(path)
