"""Kernel, SMO solver, one-against-one ensemble, and model persistence."""

import numpy as np
import pytest

from gesturekit.errors import ConvergenceError, ParseError, ValidationError
from gesturekit.features import Scaler
from gesturekit.imu import LabeledDataset
from gesturekit.svm import (
    ALPHA_FLOOR,
    PRESETS,
    BinarySvmModel,
    KernelConfig,
    OvoSvmModel,
    decision_value,
    dual_objective,
    gram,
    kkt_max_violation,
    load_model,
    ovo_predict,
    ovo_train,
    save_model,
    smo_solve,
    smo_train,
    vote_tally,
    vote_winners,
)

from oracles import dual_objective as oracle_objective
from oracles import naive_vote_winner, pg_dual_solve


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

    def test_resolved_fills_inverse_feature_count(self):
        cfg = KernelConfig(kind="radial")
        assert cfg.gamma is None
        assert cfg.resolved(8).gamma == pytest.approx(1.0 / 8)

    def test_resolved_keeps_explicit_gamma(self):
        cfg = KernelConfig(kind="radial", gamma=0.25)
        assert cfg.resolved(100) is cfg

    def test_presets(self):
        ident, ident_cost = PRESETS["identification"]
        assert ident.kind == "polynomial"
        assert ident.gamma == 0.95
        assert ident.degree == 3
        assert ident.coef0 == 2.0
        assert ident_cost == 3.0
        recog, recog_cost = PRESETS["recognition"]
        assert recog.kind == "radial"
        assert recog.gamma == 0.005
        assert recog_cost == 1.0


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


class TestSmoSolver:
    def test_matches_projected_gradient_oracle(self):
        kinds = ("linear", "polynomial", "radial")
        for trial in range(6):
            X, y = random_problem(200 + trial)
            cfg = KernelConfig(kind=kinds[trial % 3], gamma=0.5, coef0=1.0,
                               degree=2)
            K = gram(cfg, X, X)
            cost = (0.5, 1.0, 3.0)[trial % 3]
            alpha, bias = smo_solve(K, y, cost, np.random.default_rng(trial),
                                    tol=2e-4)
            ref = pg_dual_solve(K, y, cost)
            got = dual_objective(K, y, alpha)
            want = oracle_objective(K, y, ref)
            assert abs(got - want) < 1e-3
            assert kkt_max_violation(K, y, alpha, bias, cost) < 1e-3

    def test_constraints_hold_exactly(self):
        X, y = random_problem(7, n=30, d=3)
        K = gram(KernelConfig(kind="radial", gamma=0.5), X, X)
        cost = 2.0
        alpha, _ = smo_solve(K, y, cost, np.random.default_rng(0))
        assert np.all(alpha >= 0.0)
        assert np.all(alpha <= cost)
        assert abs(float(alpha @ y)) < 1e-9

    def test_multipliers_snap_to_bounds(self):
        # near-bound values are snapped, so nothing lingers within the
        # floor of a bound without sitting exactly on it
        X, y = random_problem(11, n=40, d=4, separation=1.0)
        cost = 1.0
        K = gram(KernelConfig(kind="linear"), X, X)
        alpha, _ = smo_solve(K, y, cost, np.random.default_rng(0))
        near_zero = (alpha > 0.0) & (alpha < ALPHA_FLOOR)
        near_cost = (alpha > cost - ALPHA_FLOOR) & (alpha < cost)
        assert not near_zero.any()
        assert not near_cost.any()

    def test_deterministic_for_fixed_seed(self):
        X, y = random_problem(13)
        K = gram(KernelConfig(kind="radial", gamma=0.3), X, X)
        a1, b1 = smo_solve(K, y, 1.5, np.random.default_rng(42))
        a2, b2 = smo_solve(K, y, 1.5, np.random.default_rng(42))
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
        alpha, _ = smo_solve(K, y, cost, np.random.default_rng(0))
        ref = pg_dual_solve(K, y, cost)
        assert abs(dual_objective(K, y, alpha)
                   - oracle_objective(K, y, ref)) < 1e-3

    def test_sweep_budget_raises(self):
        X, y = random_problem(17, n=30, d=3)
        K = gram(KernelConfig(kind="radial", gamma=0.5), X, X)
        with pytest.raises(ConvergenceError):
            smo_solve(K, y, 1.0, np.random.default_rng(0), max_sweeps=1)


class TestSmoTrain:
    def test_separable_problem_is_classified(self):
        r = np.random.default_rng(2)
        X = np.vstack([r.normal(loc=-3.0, size=(15, 2)),
                       r.normal(loc=3.0, size=(15, 2))])
        y = np.array([-1.0] * 15 + [1.0] * 15)
        model = smo_train(X, y, KernelConfig(kind="linear"), 1.0, seed=0)
        pred = np.sign(decision_value(model, X))
        assert np.array_equal(pred, y)

    def test_keeps_only_support_vectors(self):
        X, y = random_problem(23, n=40, d=3, separation=2.0)
        model = smo_train(X, y, KernelConfig(kind="linear"), 1.0, seed=0)
        assert 0 < model.sv.shape[0] <= len(X)
        assert np.all(model.alpha_y != 0.0)

    def test_rejects_single_class(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValidationError):
            smo_train(X, np.ones(4), KernelConfig(kind="linear"), 1.0)

    def test_rejects_non_pm1_labels(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValidationError):
            smo_train(X, np.array([1.0, 0.0, -1.0, 1.0]),
                      KernelConfig(kind="linear"), 1.0)

    def test_rejects_non_finite_features(self):
        X = np.zeros((4, 2))
        X[1, 1] = np.nan
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(ValidationError):
            smo_train(X, y, KernelConfig(kind="linear"), 1.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            smo_train(np.zeros((4, 2)), np.array([1.0, -1.0]),
                      KernelConfig(kind="linear"), 1.0)


class TestDecisionValue:
    def build_model(self):
        cfg = KernelConfig(kind="radial", gamma=0.5)
        sv = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0]])
        ay = np.array([0.5, -0.75, 0.25])
        return BinarySvmModel(cfg=cfg, cost=1.0, sv=sv, alpha_y=ay, bias=0.1)

    def test_matches_hand_computation(self):
        model = self.build_model()
        x = np.array([0.5, 0.5])
        want = model.bias
        for s, w in zip(model.sv, model.alpha_y):
            want += w * np.exp(-0.5 * float(np.sum((s - x) ** 2)))
        assert decision_value(model, x) == pytest.approx(want)

    def test_matrix_input_returns_vector(self):
        model = self.build_model()
        X = np.array([[0.5, 0.5], [1.0, 0.0]])
        out = decision_value(model, X)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(decision_value(model, X[0]))

    def test_dimension_mismatch_rejected(self):
        model = self.build_model()
        with pytest.raises(ValidationError):
            decision_value(model, np.zeros(3))

    def test_empty_support_set_returns_bias(self):
        cfg = KernelConfig(kind="linear")
        model = BinarySvmModel(cfg=cfg, cost=1.0, sv=np.empty((0, 2)),
                               alpha_y=np.empty(0), bias=-0.25)
        assert decision_value(model, np.zeros(2)) == -0.25

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            BinarySvmModel(cfg=KernelConfig(kind="linear"), cost=1.0,
                           sv=np.zeros((2, 2)), alpha_y=np.zeros(3), bias=0.0)


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
                     KernelConfig(kind="linear"), 1.0, seed=0)


class TestOvo:
    @pytest.fixture()
    def model(self, ovo_model):
        return ovo_model

    def test_pair_count_is_66(self, model):
        assert len(model.models) == 66
        assert len(model.pairs) == len(set(model.pairs)) == 66

    def test_pair_orientation(self, model):
        # the (a, b) member treats a as the +1 side: a row of class a
        # must score positively on that pair
        data = twelve_class_dataset()
        a, b = model.pairs[0]
        row = data.X[data.labels.index(a)]
        scaled = model.scaler.transform(row[None, :])[0]
        assert decision_value(model.models[(a, b)], scaled) > 0.0

    def test_training_rows_recovered(self, model):
        data = twelve_class_dataset()
        assert model.predict(data.X) == data.labels

    def test_vote_tally_matches_naive_winner(self, model):
        r = np.random.default_rng(9)
        classes, pairs = model.classes, model.pairs
        D = r.normal(size=(25, len(pairs)))
        D[r.random(size=D.shape) < 0.2] = 0.0
        winners = vote_winners(*vote_tally(classes, pairs, D))
        for i in range(len(D)):
            want = naive_vote_winner(classes, pairs, D[i])
            assert classes[winners[i]] == want

    def test_ovo_predict_histogram(self, model):
        data = twelve_class_dataset()
        label, hist = ovo_predict(model, data.X[0])
        assert label == data.labels[0]
        assert set(hist) == set(model.classes)
        assert sum(hist.values()) == 66
        assert hist[label] == max(hist.values())

    def test_ovo_predict_rejects_matrix(self, model):
        with pytest.raises(ValidationError):
            ovo_predict(model, np.zeros((2, 3)))

    def test_scaler_is_embedded(self, model):
        data = twelve_class_dataset()
        scaled = model.scaler.transform(data.X)
        assert model.predict(data.X) == model.predict(scaled, prescaled=True)

    def test_two_class_minimum(self):
        data = twelve_class_dataset()
        keep = [i for i, c in enumerate(data.labels) if c in ("G00", "G01")]
        small = LabeledDataset(X=data.X[keep],
                               labels=[data.labels[i] for i in keep],
                               subjects=[data.subjects[i] for i in keep],
                               feature_names=data.feature_names)
        trained = ovo_train(small, KernelConfig(kind="linear"), 1.0)
        assert len(trained.models) == 1

    def test_prescaled_requires_scaler(self):
        with pytest.raises(ValidationError):
            ovo_train(twelve_class_dataset(), KernelConfig(kind="linear"),
                      1.0, prescaled=True)

    def test_pair_model_count_validated(self, model):
        partial = dict(list(model.models.items())[:10])
        with pytest.raises(ValidationError):
            OvoSvmModel(classes=model.classes, models=partial,
                        scaler=model.scaler, registry=model.registry)


@pytest.fixture(scope="module")
def persisted():
    data = twelve_class_dataset(seed=4, per_class=3)
    cfg = KernelConfig(kind="radial", gamma=0.8)
    return data, ovo_train(data, cfg, 1.0, seed=1)


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
        assert list(back.registry.names) == list(model.registry.names)
        assert np.array_equal(back.scaler.mean, model.scaler.mean)
        assert np.array_equal(back.scaler.std, model.scaler.std)
        for pair in model.pairs:
            m0, m1 = model.models[pair], back.models[pair]
            assert np.array_equal(m0.sv, m1.sv)
            assert np.array_equal(m0.alpha_y, m1.alpha_y)
            assert m0.bias == m1.bias
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
        text = path.read_text().replace("GKMODEL v1", "GKMODEL v999", 1)
        path.write_text(text)
        with pytest.raises(ParseError, match="unsupported model version"):
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
        lines[idx] = "mean 1.0 oops 2.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            load_model(path)

    def test_whitespace_class_name_rejected_on_save(self, trained, tmp_path):
        _, model = trained
        victim = model.classes[0]

        def fix(c):
            return "bad name" if c == victim else c

        renamed = {(fix(a), fix(b)): m for (a, b), m in model.models.items()}
        classes = tuple(fix(c) for c in model.classes)
        broken = OvoSvmModel(classes=classes, models=renamed,
                             scaler=model.scaler, registry=model.registry)
        with pytest.raises(ValidationError):
            save_model(broken, tmp_path / "m.gkmodel")

    def test_cost_disagreement_rejected_on_save(self, trained, tmp_path):
        _, model = trained
        models = dict(model.models)
        pair, member = next(iter(models.items()))
        models[pair] = BinarySvmModel(cfg=member.cfg, cost=member.cost + 1.0,
                                      sv=member.sv, alpha_y=member.alpha_y,
                                      bias=member.bias)
        broken = OvoSvmModel(classes=model.classes, models=models,
                             scaler=model.scaler, registry=model.registry)
        with pytest.raises(ValidationError, match="cost"):
            save_model(broken, tmp_path / "m.gkmodel")
