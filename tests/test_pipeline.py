"""Window labeling, identification, selection, augmentation, LOSO."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from gesturekit import pipeline
from gesturekit.errors import ValidationError
from gesturekit.features import feature_names, is_sample_feature
from gesturekit.forest import ForestConfig, forest_train_predict
from gesturekit.imu import ADL_LABEL, ImuStream, LabeledDataset, LabeledInterval
from gesturekit.pipeline import (
    GESTURE_WINDOW_LABEL,
    CentroidTrainer,
    EvaluationReport,
    ForestTrainer,
    IdentificationConfig,
    ImportanceResult,
    SvmTrainer,
    confusion_matrix,
    fold_scores,
    identify_segments,
    label_windows,
    load_identifier,
    loso_evaluate,
    noise_augment,
    permutation_importance,
    select_features,
    train_identifier,
    window_features,
    windows_dataset,
    write_confusion_csv,
    write_importance_csv,
    write_report_csv,
)
from gesturekit.pipeline import (_balanced_subset, _batches,
                                 _identifier_batch, _stratified_split)
from gesturekit.rqa import RqaConfig
from gesturekit.seeding import FOLD, derive_int, derive_rng
from gesturekit.svm import KernelConfig, ovo_train, save_model
from gesturekit.synth import SynthConfig, generate_dataset
from oracles import (loop_confusion_matrix, loop_identifier_batch,
                     loop_identify_segments, loop_label_windows,
                     loop_stratified_split)


def corpus_labels(data, cfg):
    return [label_windows(stream, intervals, cfg.rqa, cfg.overlap_fraction)
            for stream, intervals in data]


def flat_stream(n, subject="s01"):
    return ImuStream(subject_id=subject,
                     channels=np.zeros((n, 9)))


@pytest.fixture(scope="module")
def id_corpus():
    cfg = SynthConfig(n_subjects=2, reps=1, adl_minutes=2.0, seed=9)
    return generate_dataset(cfg).identification


@pytest.fixture(scope="module")
def id_config():
    return IdentificationConfig(n_balance_iters=4)


class TestMetrics:
    def test_confusion_matrix_counts(self):
        conf = confusion_matrix(("a", "b"), ["a", "a", "b", "b", "b"],
                                ["a", "b", "b", "b", "a"])
        assert conf.tolist() == [[1, 1], [1, 2]]

    @pytest.mark.parametrize("seed", range(4))
    def test_confusion_matrix_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        classes = ("Up", "Push", ADL_LABEL, GESTURE_WINDOW_LABEL)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            truth = rng.choice(classes, n)
            # the last class is never predicted, and often more are not
            pred = rng.choice(classes[:int(rng.integers(1, 4))], n)
            got = confusion_matrix(classes, truth, pred)
            assert got.dtype == np.int64
            assert np.array_equal(
                got, loop_confusion_matrix(classes, truth, pred))
            assert not got[:, -1].any()

    def test_confusion_matrix_rejects_an_unknown_label(self):
        with pytest.raises(ValidationError,
                           match="label 'c' not in the class list"):
            confusion_matrix(("a", "b"), np.array(["a", "b"]),
                             np.array(["b", "c"]))

    @staticmethod
    def scores(conf):
        """fold_scores of labels laid out to give the confusion ``conf``."""
        classes = ("a", "b")
        truth, pred = [], []
        for t, row in zip(classes, conf):
            for p, count in zip(classes, row):
                truth += [t] * count
                pred += [p] * count
        acc, bal, got = fold_scores(classes, truth, pred)
        assert got.tolist() == conf
        return acc, bal

    def test_balanced_accuracy_two_class(self):
        acc, bal = self.scores([[90, 10], [30, 70]])
        assert acc == 0.8
        assert bal == pytest.approx(0.8)

    def test_balanced_accuracy_perfect(self):
        assert self.scores([[5, 0], [0, 5]]) == (1.0, 1.0)

    def test_all_positive_predictor_on_balanced_data(self):
        assert self.scores([[50, 0], [50, 0]]) == (0.5, 0.5)

    def test_absent_true_class_left_out_of_balanced(self):
        # no row is truly "b": balanced is the recall of "a" alone
        assert self.scores([[3, 1], [0, 0]]) == (0.75, 0.75)


class TestEvaluationReport:
    def build(self):
        return EvaluationReport(folds=("s01", "s02"),
                                accuracy=[0.5, 1.0], balanced=[0.4, 0.9],
                                classes=("a", "b"),
                                confusion=np.array([[3, 1], [0, 4]]))

    def test_aggregates(self):
        rep = self.build()
        assert rep.mean_accuracy == pytest.approx(0.75)
        assert rep.mean_balanced == pytest.approx(0.65)
        assert "folds=2" in rep.summary()

    def test_validation(self):
        with pytest.raises(ValidationError):
            EvaluationReport(folds=("s01",), accuracy=[0.5, 0.6],
                             balanced=[0.5, 0.6], classes=("a", "b"),
                             confusion=np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            EvaluationReport(folds=("s01",), accuracy=[0.5], balanced=[0.5],
                             classes=("a", "b"), confusion=np.zeros((3, 2)))
        with pytest.raises(ValidationError):
            EvaluationReport(folds=("s01",), accuracy=[1.5], balanced=[0.5],
                             classes=("a", "b"), confusion=np.zeros((2, 2)))


class TestLabelWindows:
    def test_full_containment_is_gesture(self):
        stream = flat_stream(300)
        intervals = [LabeledInterval(100, 160, "Up", "s01")]
        labels = label_windows(stream, intervals,
                               RqaConfig(),
                               overlap_fraction=0.5)
        # starts 0,25,...,175; window [50,175) holds all 60 samples
        assert labels[2] == GESTURE_WINDOW_LABEL

    def test_small_overlap_is_adl(self):
        stream = flat_stream(300)
        intervals = [LabeledInterval(100, 160, "Up", "s01")]
        labels = label_windows(stream, intervals,
                               RqaConfig(),
                               overlap_fraction=0.5)
        # window [150,275) holds only 10 of the 60 samples
        assert labels[6] == ADL_LABEL
        assert labels.tolist() == [ADL_LABEL] + [GESTURE_WINDOW_LABEL] * 5 \
            + [ADL_LABEL] * 2

    def test_adl_interval_marks_no_window(self):
        # the label format allows ADL intervals; only gestures mark windows
        stream = flat_stream(400)
        for label, want in ((ADL_LABEL, [ADL_LABEL] * 12),
                            ("Up", [ADL_LABEL] + [GESTURE_WINDOW_LABEL] * 5
                             + [ADL_LABEL] * 6)):
            labels = label_windows(stream,
                                   [LabeledInterval(100, 160, label, "s01")],
                                   RqaConfig(), overlap_fraction=0.5)
            assert labels.tolist() == want

    def test_no_intervals_is_all_adl(self):
        labels = label_windows(flat_stream(300), [],
                               RqaConfig(),
                               overlap_fraction=0.5)
        assert labels.tolist() == [ADL_LABEL] * 8

    def test_full_fraction_requires_containment(self):
        stream = flat_stream(300)
        intervals = [LabeledInterval(100, 160, "Up", "s01")]
        labels = label_windows(stream, intervals,
                               RqaConfig(),
                               overlap_fraction=1.0)
        want = [ADL_LABEL] * 8
        for i in (2, 3, 4):
            want[i] = GESTURE_WINDOW_LABEL
        assert labels.tolist() == want

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            window_len = int(rng.integers(5, 80))
            win = RqaConfig(window_len=window_len,
                            step=int(rng.integers(1, window_len + 1)))
            n = int(rng.integers(window_len, 600))
            bounds = np.sort(rng.choice(n + 1, size=2 * int(rng.integers(6)),
                                        replace=False))
            if rng.random() < 0.5 and len(bounds):
                bounds[0], bounds[-1] = 0, n     # intervals at both edges
            intervals = [LabeledInterval(int(a), int(b), "Up", "s01")
                         for a, b in bounds.reshape(-1, 2)]
            if rng.random() < 0.3 and intervals:
                # one more interval, gesture or ADL, adjacent to the first
                # one or, when that ends the stream, overlapping its last
                # sample
                iv = intervals[0]
                intervals.append(LabeledInterval(
                    iv.end - 1 if iv.end == n else iv.end,
                    n, rng.choice(["Down", ADL_LABEL]), "s01"))
            fraction = rng.choice([1.0, 1e-9, rng.uniform(1e-9, 1.0)])
            stream = flat_stream(n)
            assert label_windows(stream, intervals, win, fraction).tolist() \
                == loop_label_windows(stream, intervals, win, fraction)

    def test_out_of_bounds_interval_rejected(self):
        with pytest.raises(ValidationError):
            label_windows(flat_stream(300),
                          [LabeledInterval(200, 400, "Up", "s01")],
                          RqaConfig(),
                          overlap_fraction=0.5)


class TestWindowsDataset:
    def test_stacking_and_feature_names(self, id_corpus, id_config):
        data = windows_dataset(id_corpus, id_config.rqa,
                               corpus_labels(id_corpus, id_config))
        per_stream = [(len(s) - 125) // 25 + 1 for s, _ in id_corpus]
        assert len(data) == sum(per_stream)
        assert data.feature_names == ["rr", "tra"]
        assert set(data.subjects) == {"s01", "s02"}
        assert set(data.labels) <= {ADL_LABEL, GESTURE_WINDOW_LABEL}
        assert np.all((data.X >= 0.0) & (data.X <= 1.0))

    def test_window_features_shape(self, id_corpus, id_config):
        stream, _ = id_corpus[0]
        starts, X = window_features(stream, id_config.rqa)
        assert len(starts) == (len(stream) - 125) // 25 + 1
        assert X.shape == (len(starts), 2)
        assert starts[1] - starts[0] == 25


def balance_rows(data):
    """The ascending gesture and ADL row indices of a window dataset."""
    return (np.flatnonzero(data.labels == GESTURE_WINDOW_LABEL),
            np.flatnonzero(data.labels == ADL_LABEL))


class TestBalancedSubset:
    def test_exact_balance_every_draw(self, id_corpus, id_config):
        data = windows_dataset(id_corpus, id_config.rqa,
                               corpus_labels(id_corpus, id_config))
        n_gesture = np.count_nonzero(data.labels == GESTURE_WINDOW_LABEL)
        for it in range(5):
            subset = _balanced_subset(data, *balance_rows(data),
                                      np.random.default_rng(it))
            assert len(subset) == 2 * n_gesture
            assert np.count_nonzero(
                subset.labels == GESTURE_WINDOW_LABEL) == n_gesture
            assert np.count_nonzero(subset.labels == ADL_LABEL) == n_gesture

    def test_requires_gesture_windows(self):
        data = LabeledDataset(X=np.zeros((4, 2)), labels=[ADL_LABEL] * 4,
                              subjects=["s"] * 4, feature_names=["rr", "tra"])
        with pytest.raises(ValidationError, match="no gesture windows in "
                           "the training data"):
            _balanced_subset(data, *balance_rows(data),
                             np.random.default_rng(0))

    def test_requires_enough_adl(self):
        labels = [GESTURE_WINDOW_LABEL] * 3 + [ADL_LABEL]
        data = LabeledDataset(X=np.zeros((4, 2)), labels=labels,
                              subjects=["s"] * 4, feature_names=["rr", "tra"])
        with pytest.raises(ValidationError, match="not enough ADL windows "
                           "for a balanced draw"):
            _balanced_subset(data, *balance_rows(data),
                             np.random.default_rng(0))


@pytest.fixture(scope="module")
def id_windows3():
    """The window dataset of a 3-subject identification corpus, labelled
    as ``train_identifier`` labels it."""
    cfg = IdentificationConfig(n_balance_iters=4)
    data = generate_dataset(SynthConfig(n_subjects=3, reps=1,
                                        adl_minutes=2.0, seed=9)
                            ).identification
    return windows_dataset(data, cfg.rqa, corpus_labels(data, cfg))


def single_gesture_window(data, subject):
    """``data`` with every gesture window of ``subject`` but its first
    relabelled ADL."""
    labels = data.labels.copy()
    rows = np.flatnonzero((data.subjects == subject)
                          & (labels == GESTURE_WINDOW_LABEL))
    labels[rows[1:]] = ADL_LABEL
    return replace(data, labels=labels)


class TestIdentifierBatch:
    @pytest.mark.parametrize("seed, jobs, single", [
        (3, 1, False), (8, 1, False), (3, 2, False), (3, 1, True)],
        ids=["seed3", "seed8", "seed3-jobs2", "single-gesture-window"])
    def test_matches_string_label_oracle(self, id_windows3, seed, jobs,
                                         single):
        """Every batch ``train_identifier`` runs at ``jobs`` gives the
        report rows and the final model of the string-label batch."""
        data = id_windows3
        if single:
            data = single_gesture_window(data, "s02")
            assert np.count_nonzero((data.subjects == "s02") & (
                data.labels == GESTURE_WINDOW_LABEL)) == 1
        cfg = IdentificationConfig(n_balance_iters=4)
        batches = _batches(list(enumerate(data.subject_ids())), jobs)
        assert len(batches) == jobs
        for k, folds in enumerate(batches):
            task = (data, cfg, seed, folds, k == len(batches) - 1)
            rows, model = _identifier_batch(task)
            want_rows, want_model = loop_identifier_batch(task)
            assert len(rows) == len(want_rows) == len(folds)
            for got, want in zip(rows, want_rows):
                assert got[:3] == want[:3]
                assert np.array_equal(got[3], want[3])
            if want_model is None:
                assert model is None
                continue
            assert model.classes == want_model.classes
            for name in ("sv", "coef", "bias"):
                assert np.array_equal(getattr(model, name),
                                      getattr(want_model, name))


class TestTrainIdentifier:
    def test_report_shape_and_determinism(self, id_corpus, id_config):
        model_a, rep_a = train_identifier(id_corpus, id_config, seed=3)
        model_b, rep_b = train_identifier(id_corpus, id_config, seed=3)
        assert rep_a.folds == ("s01", "s02")
        assert rep_a.classes == (ADL_LABEL, GESTURE_WINDOW_LABEL)
        assert np.array_equal(rep_a.accuracy, rep_b.accuracy)
        assert np.array_equal(rep_a.balanced, rep_b.balanced)
        assert np.array_equal(rep_a.confusion, rep_b.confusion)
        probe = np.array([[0.9, 0.9], [0.2, 0.1]])
        assert np.array_equal(model_a.decision_matrix(probe),
                              model_b.decision_matrix(probe))

    def test_confusion_row_sums_match_window_counts(self, id_corpus,
                                                    id_config):
        _, rep = train_identifier(id_corpus, id_config, seed=3)
        data = windows_dataset(id_corpus, id_config.rqa,
                               corpus_labels(id_corpus, id_config))
        assert rep.confusion.sum() == len(data)
        assert rep.confusion[1].sum() == np.count_nonzero(
            data.labels == GESTURE_WINDOW_LABEL)

    def test_single_subject_rejected(self, id_corpus, id_config):
        with pytest.raises(ValidationError):
            train_identifier(id_corpus[:1], id_config, seed=0)

    def test_no_gestures_rejected(self, id_corpus, id_config):
        stripped = [(s, []) for s, _ in id_corpus]
        with pytest.raises(ValidationError):
            train_identifier(stripped, id_config, seed=0)

    def test_subject_without_gestures_named_before_folds(self, id_corpus,
                                                         id_config,
                                                         monkeypatch):
        def no_folds(args):
            pytest.fail("a fold ran")

        monkeypatch.setattr(pipeline, "_identifier_batch", no_folds)
        data = [id_corpus[0], (id_corpus[1][0], [])]
        with pytest.raises(ValidationError, match="no gesture windows in "
                           "subject s02; every held-out subject needs one"):
            train_identifier(data, id_config, seed=0)


def test_geometry_round_trips_through_the_model_file(tmp_path):
    cfg = RqaConfig(series="gyro_z", window_len=150, step=30, dimension=3,
                    delay=2, epsilon=0.3, norm="Linf")
    data = LabeledDataset(X=[[0.0, 0.1], [0.1, 0.0], [1.0, 0.9], [0.9, 1.0]],
                          labels=[ADL_LABEL] * 2 + [GESTURE_WINDOW_LABEL] * 2,
                          subjects=["s01", "s02"] * 2,
                          feature_names=["rr", "tra"])
    path = tmp_path / "id.model"
    save_model(replace(ovo_train(data, KernelConfig(kind="linear"), 1.0),
                       rqa=cfg.text()), path)
    assert load_identifier(path)[1] == cfg
    # the section's exact lines: reordering RqaConfig's fields would change
    # every identifier file
    lines = path.read_text().splitlines()
    assert lines[1:9] == ["[rqa]", "series gyro_z", "window_len 150",
                          "step 30", "dimension 3", "delay 2", "epsilon 0.3",
                          "norm Linf"]


class StubModel:
    """Positional window labels for exercising the assembly rule."""

    def __init__(self, starts, positive_starts):
        self.labels = np.array([GESTURE_WINDOW_LABEL if s in positive_starts
                                else ADL_LABEL for s in starts])

    def predict(self, X):
        assert len(X) == len(self.labels)
        return self.labels


class TestIdentifySegments:
    def stub(self, positive_starts):
        stream = flat_stream(500)
        cfg = RqaConfig()
        starts, _ = window_features(stream, cfg)
        return stream, cfg, StubModel(starts, set(positive_starts))

    def test_run_collapses_to_midpoint_interval(self):
        stream, cfg, model = self.stub({100, 125, 150})
        assert identify_segments(stream, model, cfg) == [(125, 250)]

    def test_isolated_window_kept_as_is(self):
        stream, cfg, model = self.stub({250})
        assert identify_segments(stream, model, cfg) == [(250, 375)]

    def test_no_positive_windows(self):
        stream, cfg, model = self.stub(set())
        assert identify_segments(stream, model, cfg) == []

    def test_overlapping_emission_deduplicated(self):
        # second run starts at 200; its interval would begin inside the
        # first emission, so only the earlier one survives
        stream, cfg, model = self.stub({100, 125, 150, 200})
        assert identify_segments(stream, model, cfg) == [(125, 250)]

    def test_disjoint_runs_both_emitted(self):
        stream, cfg, model = self.stub({0, 250})
        assert identify_segments(stream, model, cfg) == [(0, 125),
                                                         (250, 375)]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_oracle(self, seed):
        # adjacent and gapped runs, emissions that overlap the one
        # before, and no positive window at all
        rng = np.random.default_rng(seed)
        for density in np.repeat([0.0, 0.1, 0.5, 0.9, 1.0], 10):
            step = int(rng.integers(1, 40))
            cfg = RqaConfig(
                window_len=int(rng.integers(max(5, step), 3 * step + 6)),
                step=step)
            stream = flat_stream(int(rng.integers(cfg.window_len, 900)))
            starts = cfg.starts(len(stream))
            positive = set(starts[rng.random(len(starts)) < density])
            model = StubModel(starts, positive)
            assert identify_segments(stream, model, cfg) == \
                loop_identify_segments(starts, model.labels, step,
                                       cfg.window_len)


def informative_dataset(n=40, seed=0):
    """Two features: the class is the sign of f0; f1 is pure noise."""
    r = np.random.default_rng(seed)
    f0 = np.concatenate([r.uniform(-2.0, -1.0, n // 2),
                         r.uniform(1.0, 2.0, n // 2)])
    f1 = r.normal(size=n)
    labels = ["neg"] * (n // 2) + ["pos"] * (n // 2)
    return LabeledDataset(X=np.column_stack([f0, f1]), labels=labels,
                          subjects=["s"] * n, feature_names=["f0", "f1"])


class TestStratifiedSplit:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_oracle(self, seed):
        # uneven class sizes, 1-row classes among them, in shuffled order
        rng = np.random.default_rng(seed)
        names = np.array(["Up", "Push", "Z", ADL_LABEL, GESTURE_WINDOW_LABEL])
        for _ in range(50):
            k = int(rng.integers(1, len(names) + 1))
            labels = np.repeat(names[:k], rng.integers(1, 6, size=k))
            rng.shuffle(labels)
            if len(np.unique(labels)) == len(labels):
                # every class has one row, so there is no test half
                with pytest.raises(ValidationError, match="too small"):
                    _stratified_split(labels)
                continue
            train, test = _stratified_split(labels)
            want_train, want_test = loop_stratified_split(labels.tolist())
            assert train.dtype.kind == test.dtype.kind == "i"
            assert np.array_equal(train, want_train)
            assert np.array_equal(test, want_test)


class TestPermutationImportance:
    def test_informative_feature_drops_more(self):
        data = informative_dataset()
        result = permutation_importance(data, CentroidTrainer(), n_reps=20,
                                        seed=1)
        assert result.drop[0] > result.drop[1]
        assert result.baseline == 1.0

    def test_constant_column_changes_nothing(self):
        data = informative_dataset()
        withc = LabeledDataset(
            X=np.column_stack([data.X, np.full(len(data), 7.0)]),
            labels=list(data.labels), subjects=list(data.subjects),
            feature_names=["f0", "f1", "const"])
        result = permutation_importance(withc, CentroidTrainer(), n_reps=5,
                                        seed=0)
        assert result.drop[2] == 0.0

    def test_reproducible_for_fixed_seed(self):
        data = informative_dataset()
        a = permutation_importance(data, CentroidTrainer(), n_reps=1, seed=9)
        b = permutation_importance(data, CentroidTrainer(), n_reps=1, seed=9)
        assert np.array_equal(a.per_rep, b.per_rep)

    def test_all_constant_rejected(self):
        data = LabeledDataset(X=np.ones((6, 2)), labels=["a", "b"] * 3,
                              subjects=["s"] * 6, feature_names=["x", "y"])
        with pytest.raises(ValidationError):
            permutation_importance(data, CentroidTrainer(), n_reps=1)

    def test_n_reps_validated(self):
        with pytest.raises(ValidationError):
            permutation_importance(informative_dataset(), CentroidTrainer(),
                                   n_reps=0)


class TestSelectFeatures:
    def test_sample_names_detected(self):
        assert is_sample_feature("acc_x_s1")
        assert is_sample_feature("acc_z_s10")
        assert not is_sample_feature("acc_x_mean")
        assert not is_sample_feature("gyro_x_s1")

    def test_default_cut_keeps_73_of_93(self):
        names = feature_names(10)
        r = np.random.default_rng(0)
        mean_acc = r.uniform(0.3, 0.9, len(names))
        idx = select_features(names, mean_acc, baseline=0.95)
        assert len(idx) == 73
        assert idx == sorted(idx)
        kept = [names[i] for i in idx]
        assert sum(is_sample_feature(nm) for nm in kept) == 30

    def test_keep_all_is_identity(self):
        names = feature_names(10)
        mean_acc = np.linspace(0.2, 0.8, len(names))
        idx = select_features(names, mean_acc, baseline=0.9, k=63)
        assert idx == list(range(93))

    def test_tie_at_boundary_keeps_earlier_name(self):
        names = ["a", "b", "c", "acc_x_s1"]
        # b and c tie; k=2 keeps a (biggest drop) and b (earlier)
        mean_acc = np.array([0.1, 0.5, 0.5, 0.4])
        idx = select_features(names, mean_acc, baseline=0.9, k=2)
        assert idx == [0, 1, 3]

    def test_oversized_k_rejected(self):
        # k must lie in 1..len(stats); 0 and -1 used to slice silently
        for k in (3, 0, -1):
            with pytest.raises(ValidationError, match="must lie in 1..2"):
                select_features(["a", "b"], [0.5, 0.5], 0.9, k=k)

    def test_trainer_rejects_select_below_one(self):
        # the lower bound needs no data, so it is checked at construction
        for k in (0, -1):
            with pytest.raises(ValidationError, match=f"select_k={k} "):
                SvmTrainer(select_k=k)
        assert SvmTrainer(select_k=1).select_k == 1


class TestNoiseAugment:
    def test_doubles_rows_and_preserves_marginals(self):
        data = informative_dataset(n=10)
        out = noise_augment(data, sigma=0.5, seed=4)
        assert len(out) == 20
        assert np.array_equal(out.X[:10], data.X)
        assert out.labels.tolist() == data.labels.tolist() * 2
        assert out.subjects.tolist() == data.subjects.tolist() * 2

    def test_sigma_zero_duplicates_exactly(self):
        data = informative_dataset(n=10)
        out = noise_augment(data, sigma=0.0, seed=4)
        assert np.array_equal(out.X[10:], data.X)

    def test_fixed_seed_is_reproducible(self):
        data = informative_dataset(n=10)
        a = noise_augment(data, sigma=0.5, seed=4)
        b = noise_augment(data, sigma=0.5, seed=4)
        assert np.array_equal(a.X, b.X)

    def test_negative_sigma_rejected(self):
        for sigma in (-0.1, np.nan, np.inf):
            with pytest.raises(ValidationError):
                noise_augment(informative_dataset(), sigma=sigma)


def subject_dataset(n_subjects=3, per=8, d=4, seed=0, copy_rows=False):
    r = np.random.default_rng(seed)
    classes = ["u", "v"]
    centers = {"u": r.normal(size=d), "v": r.normal(size=d) + 4.0}
    rows, labels, subjects = [], [], []
    base = []
    for c in classes:
        base.extend(centers[c] + 0.2 * r.normal(size=(per, d)))
    for si in range(n_subjects):
        for ci, c in enumerate(classes):
            for k in range(per):
                if copy_rows:
                    rows.append(base[ci * per + k])
                else:
                    rows.append(centers[c] + 0.2 * r.normal(size=d))
                labels.append(c)
                subjects.append(f"s{si}")
    return LabeledDataset(X=np.array(rows), labels=labels, subjects=subjects,
                          feature_names=[f"f{j}" for j in range(d)])


class TestLosoEvaluate:
    def test_fold_per_subject(self):
        rep = loso_evaluate(subject_dataset(4), CentroidTrainer(), seed=0)
        assert rep.folds == ("s0", "s1", "s2", "s3")
        assert rep.confusion.sum() == 4 * 16

    def test_single_subject_rejected(self):
        with pytest.raises(ValidationError, match="subjects"):
            loso_evaluate(subject_dataset(1), CentroidTrainer())

    def test_identical_subjects_score_identically(self):
        data = subject_dataset(2, copy_rows=True)
        rep = loso_evaluate(data, CentroidTrainer(), seed=0)
        assert rep.accuracy[0] == rep.accuracy[1]

    def test_fold_zero_reproduced_by_hand(self):
        data = subject_dataset(3, seed=5)
        seed = 11
        rep = loso_evaluate(data, CentroidTrainer(), seed=seed)
        mask = data.subjects == "s0"
        test = data.take(mask)
        [pred] = CentroidTrainer()([(data.take(~mask), test.X,
                                     derive_int(seed, FOLD, 0))])
        acc = float(np.mean([p == t for p, t in zip(pred, test.labels)]))
        assert rep.accuracy[0] == acc

    def test_parallel_mapper_matches_serial(self):
        data = subject_dataset(3)
        serial = loso_evaluate(data, CentroidTrainer(), seed=2)
        parallel = loso_evaluate(data, CentroidTrainer(), seed=2, jobs=2)
        assert np.array_equal(serial.accuracy, parallel.accuracy)
        assert np.array_equal(serial.confusion, parallel.confusion)

    def test_svm_trainer_smoke(self):
        data = subject_dataset(2, per=5, seed=3)
        rep = loso_evaluate(data, SvmTrainer(), seed=0)
        assert rep.mean_accuracy == 1.0

    def test_forest_trainer_smoke(self):
        data = subject_dataset(2, per=5, seed=3)
        trainer = ForestTrainer(ForestConfig(n_trees=5, max_depth=4))
        rep = loso_evaluate(data, trainer, seed=0)
        assert rep.mean_accuracy == 1.0


class TestTrainers:
    def test_trainers_pickle_round_trip(self):
        for trainer in (CentroidTrainer(),
                        SvmTrainer(select_k=43, augment_sigma=0.5),
                        ForestTrainer(ForestConfig(n_trees=3))):
            assert pickle.loads(pickle.dumps(trainer)) == trainer

    def test_forest_trainer_uses_the_given_seed(self):
        # random labels: two seeds' forests disagree somewhere, so the
        # trainer's predictions show which seed it grew from
        r = np.random.default_rng(0)
        data = LabeledDataset(X=r.normal(size=(40, 4)),
                              labels=list(r.choice(["A", "B", "C"], 40)),
                              subjects=["s01"] * 40,
                              feature_names=["f0", "f1", "f2", "f3"])
        cfg = ForestConfig(n_trees=3, max_depth=3)
        preds = ForestTrainer(cfg)([(data, data.X, s) for s in (1, 2)])
        assert preds[0].tolist() != preds[1].tolist()
        for s, pred in zip((1, 2), preds):
            assert pred.tolist() == \
                forest_train_predict(data, data.X, cfg, s).tolist()

    def test_column_restriction(self):
        data = informative_dataset()
        accs = []
        for col in (1, 0):
            sliced = data.take(columns=[col])
            [pred] = SvmTrainer()([(sliced, sliced.X, 0)])
            accs.append(np.mean([p == t for p, t in zip(pred, data.labels)]))
        acc_noise, acc_info = accs
        assert acc_info == 1.0 and acc_info > acc_noise

    def test_augment_path_is_deterministic(self):
        data = subject_dataset(2, per=5, seed=3)
        trainer = SvmTrainer(augment_sigma=0.5)
        [a] = trainer([(data, data.X, 7)])
        [b] = trainer([(data, data.X, 7)])
        assert a.tolist() == b.tolist()


class TestCsvWriters:
    def build_report(self):
        return EvaluationReport(folds=("s01", "s02"),
                                accuracy=[0.5, 1.0], balanced=[0.4, 0.9],
                                classes=("a", "b"),
                                confusion=np.array([[3, 1], [0, 4]]))

    def test_report_csv(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(self.build_report(), path)
        assert path.read_text() == ("fold,subject,accuracy,"
                                    "balanced_accuracy\n"
                                    "0,s01,0.5,0.4\n"
                                    "1,s02,1.0,0.9\n")

    def test_confusion_csv(self, tmp_path):
        path = tmp_path / "confusion.csv"
        write_confusion_csv(self.build_report(), path)
        assert path.read_text() == ",a,b\na,3,1\nb,0,4\n"

    def test_importance_csv(self, tmp_path):
        result = ImportanceResult(feature_names=("f0", "f1"), baseline=0.9,
                                  per_rep=np.array([[0.5], [0.8]]),
                                  mean_accuracy=np.array([0.5, 0.8]))
        path = tmp_path / "importance.csv"
        write_importance_csv(result, path)
        text = path.read_text().splitlines()
        assert text[0] == "feature,mean_accuracy,drop"
        assert text[1] == "original,0.9,0.0"
        assert text[2].startswith("f0,0.5,0.4")
        assert len(text) == 4


class TestIdentificationConfig:
    def test_defaults(self):
        cfg = IdentificationConfig()
        assert cfg.rqa == RqaConfig()
        assert cfg.rqa.series == "acc_y"
        assert cfg.overlap_fraction == 0.5
        assert cfg.n_balance_iters == 100
        assert cfg.kernel.kind == "polynomial"
        assert cfg.cost == 3.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            IdentificationConfig(overlap_fraction=0.0)
        with pytest.raises(ValidationError):
            IdentificationConfig(overlap_fraction=1.5)
        with pytest.raises(ValidationError):
            IdentificationConfig(n_balance_iters=0)
        with pytest.raises(ValidationError, match="window shorter than the "
                           "embedding needs"):
            IdentificationConfig(RqaConfig(window_len=5, step=5, dimension=4,
                                           delay=3))
