"""End-to-end orchestration: window labeling, identification training
with ADL rebalancing, segment assembly, permutation importance, feature
selection, noise augmentation, LOSO evaluation, and report files.

Folds, balance iterations, and permutation repetitions each draw from an
rng derived as (master seed, task key), so any of them may run under a
parallel mapper without changing a single output byte. The folds of an
evaluation or an identifier are cut into ``jobs`` contiguous batches;
``loso_evaluate`` and ``train_identifier`` open the pool themselves, one
worker process per batch, so the batch count and the pool size cannot
disagree. Trainers are small picklable callables with the shared
signature ``trainer(folds) -> one 1-D array of predicted labels per
fold``, where ``folds`` is an iterable of ``(train_dataset, test_rows,
seed)`` and may be built lazily; the test labels never reach a trainer,
and scalers / selected feature sets are fit inside the trainer on each
fold's training rows only. The SVM trainer trains a whole batch in one
streaming ``ovo_train_many`` call.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from itertools import chain, islice

import numpy as np

from .errors import ParseError, ValidationError
from .features import Scaler, is_sample_feature
from .forest import ForestConfig, forest_train_predict
from .imu import (ADL_LABEL, ImuStream, LabeledDataset, class_indices,
                  format_float, write_file)
from .rqa import RqaConfig, windowed_rqa
from .seeding import (AUGMENT, BALANCE, FINAL, FOLD, PERMUTE, TRAINER,
                      derive_int, derive_rng)
from .svm import (KernelConfig, OvoSvmModel, check_cost, load_model,
                  ovo_train, ovo_train_many)

GESTURE_WINDOW_LABEL = "gesture"
_WINDOW_CLASSES = (ADL_LABEL, GESTURE_WINDOW_LABEL)
_ADL, _GESTURE = 0, 1   # the window class codes: positions in the above


@dataclass(frozen=True)
class IdentificationConfig:
    """Windowed-RQA settings plus the identification training knobs."""
    rqa: RqaConfig = RqaConfig()
    overlap_fraction: float = 0.5
    n_balance_iters: int = 100
    # tuned on the identification data
    kernel: KernelConfig = KernelConfig("polynomial", gamma=0.95, coef0=2.0,
                                        degree=3)
    cost: float = 3.0

    def __post_init__(self):
        if not 0.0 < self.overlap_fraction <= 1.0:
            raise ValidationError("overlap_fraction must be in (0, 1]")
        if self.n_balance_iters < 1:
            raise ValidationError("n_balance_iters must be >= 1")
        check_cost(self.cost)
        self.rqa.check_window()


@dataclass(frozen=True)
class EvaluationReport:
    """Per-fold metrics and the confusion matrix summed over folds."""
    folds: tuple[str, ...]              # held-out subject per fold
    accuracy: np.ndarray
    balanced: np.ndarray
    classes: tuple[str, ...]
    confusion: np.ndarray               # (K, K) counts, rows = true class

    def __post_init__(self):
        acc = np.asarray(self.accuracy, dtype=np.float64)
        bal = np.asarray(self.balanced, dtype=np.float64)
        conf = np.asarray(self.confusion, dtype=np.int64)
        if not (len(acc) == len(bal) == len(self.folds)):
            raise ValidationError("one metric row per fold required")
        k = len(self.classes)
        if conf.shape != (k, k):
            raise ValidationError("confusion matrix must be K x K")
        for a in (acc, bal):
            if len(a) and (a.min() < 0 or a.max() > 1):
                raise ValidationError("accuracies must lie in [0, 1]")
        object.__setattr__(self, "accuracy", acc)
        object.__setattr__(self, "balanced", bal)
        object.__setattr__(self, "confusion", conf)

    @classmethod
    def from_folds(cls, rows, classes) -> "EvaluationReport":
        """Report from ``(subject, accuracy, balanced, confusion)`` rows."""
        rows = list(rows)
        return cls(folds=tuple(r[0] for r in rows),
                   accuracy=np.array([r[1] for r in rows]),
                   balanced=np.array([r[2] for r in rows]),
                   classes=classes,
                   confusion=np.sum([r[3] for r in rows], axis=0))

    @property
    def mean_accuracy(self) -> float:
        return float(self.accuracy.mean())

    @property
    def mean_balanced(self) -> float:
        return float(self.balanced.mean())

    def summary(self) -> str:
        return (f"folds={len(self.folds)} "
                f"accuracy mean={self.mean_accuracy:.4f} "
                f"min={self.accuracy.min():.4f} max={self.accuracy.max():.4f} "
                f"balanced mean={self.mean_balanced:.4f}")


def confusion_counts(k: int, true_codes, pred_codes) -> np.ndarray:
    """(k, k) counts of class-code pairs, rows = true class."""
    return np.bincount(true_codes * k + pred_codes,
                       minlength=k * k).reshape(k, k)


def confusion_matrix(classes, true_labels, pred_labels) -> np.ndarray:
    return confusion_counts(len(classes), class_indices(classes, true_labels),
                            class_indices(classes, pred_labels))


def scores(conf) -> tuple[float, float]:
    """``(accuracy, balanced accuracy)`` of a confusion matrix. Balanced
    accuracy is the mean recall over the classes present in the truth;
    for two present classes it is (TPR + TNR) / 2."""
    totals = conf.sum(axis=1)
    present = totals > 0
    recalls = np.diag(conf)[present] / totals[present]
    return float(np.trace(conf) / conf.sum()), float(recalls.mean())


def fold_scores(classes, truth, pred) -> tuple[float, float, np.ndarray]:
    """``(accuracy, balanced accuracy, confusion)`` of fold predictions."""
    conf = confusion_matrix(classes, truth, pred)
    return *scores(conf), conf


def label_windows(stream: ImuStream, intervals, cfg: RqaConfig,
                  overlap_fraction: float) -> np.ndarray:
    """Binary window labels: gesture if enough of a gesture interval is inside.

    A window is a gesture window iff at least ``overlap_fraction`` of any
    single gesture interval's duration falls within it; otherwise it is
    ADL. ADL intervals mark no window.
    """
    n = len(stream)
    for iv in intervals:
        if iv.end > n:
            raise ValidationError(
                f"interval [{iv.start}, {iv.end}) exceeds stream length {n}")
    begin, end = np.array([(iv.start, iv.end) for iv in intervals
                           if iv.label != ADL_LABEL],
                          dtype=np.int64).reshape(-1, 2).T
    s = cfg.starts(n)[:, None]
    inside = np.minimum(end, s + cfg.window_len) - np.maximum(begin, s)
    hit = (inside >= overlap_fraction * (end - begin)).any(axis=1)
    return np.where(hit, GESTURE_WINDOW_LABEL, ADL_LABEL)


def window_features(stream: ImuStream, cfg: RqaConfig):
    """``(starts, X)`` of one stream: each window's start and its
    ``rr, tra`` row of ``windowed_rqa`` on ``cfg``'s series."""
    X = windowed_rqa(stream.channel(cfg.series), cfg)
    return cfg.starts(len(stream)), X


def windows_dataset(data, cfg: RqaConfig, labels) -> LabeledDataset:
    """Stack (stream, intervals) pairs into a window-level dataset.

    ``labels`` holds each stream's ``label_windows`` array, in ``data``
    order.
    """
    return LabeledDataset(
        X=np.vstack([window_features(stream, cfg)[1] for stream, _ in data]),
        labels=np.concatenate(labels),
        subjects=np.repeat([stream.subject_id for stream, _ in data],
                           [len(ls) for ls in labels]),
        feature_names=["rr", "tra"])


def _balanced_subset(dataset, gesture, adl, rng) -> LabeledDataset:
    """Rows ``gesture`` plus an equal-size sorted draw from rows ``adl``."""
    if len(gesture) == 0:
        raise ValidationError("no gesture windows in the training data")
    if len(adl) < len(gesture):
        raise ValidationError("not enough ADL windows for a balanced draw")
    pick = rng.choice(adl, size=len(gesture), replace=False)
    return dataset.take(np.concatenate([gesture, np.sort(pick)]))


def _identifier_batch(args):
    """``(rows, model)``: the report rows of a run of folds, and with
    ``final`` the model of the final draw over all subjects, else None.
    Every draw takes rows by index; their SVMs come from one streaming
    ``ovo_train_many`` call and are scored on ``_WINDOW_CLASSES`` codes."""
    dataset, cfg, seed, folds, final = args
    codes = class_indices(_WINDOW_CLASSES, dataset.labels)
    gesture = codes == _GESTURE
    tests = [dataset.subjects == s for _, s in folds]

    def draws():
        for (fi, _), test in zip(folds, tests):
            train = (np.flatnonzero(gesture & ~test),
                     np.flatnonzero(~gesture & ~test))
            for it in range(cfg.n_balance_iters):
                yield _balanced_subset(dataset, *train, derive_rng(
                    seed, BALANCE, fi, it)), None
        if final:
            yield _balanced_subset(dataset, np.flatnonzero(gesture),
                                   np.flatnonzero(~gesture),
                                   derive_rng(seed, FINAL)), None

    models = ovo_train_many(draws(), cfg.kernel, cfg.cost)
    rows = []
    for (_, subject), test in zip(folds, tests):
        X, truth = dataset.X[test], codes[test]
        preds = [np.take([_WINDOW_CLASSES.index(c) for c in model.classes],
                         model.predict_index(X))
                 for model in islice(models, cfg.n_balance_iters)]
        accs, bals = zip(*(scores(confusion_counts(2, truth, pred))
                           for pred in preds))
        # majority vote across iterations; exact ties fall to ADL
        votes = np.sum([pred == _GESTURE for pred in preds], axis=0)
        majority = np.where(2 * votes > cfg.n_balance_iters, _GESTURE, _ADL)
        rows.append((subject, float(np.mean(accs)), float(np.mean(bals)),
                     confusion_counts(2, truth, majority)))
    return rows, next(models, None)


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValidationError("jobs must be >= 1")


@contextmanager
def pool_map(jobs: int):
    """Yield ``map``, or a ``jobs``-process pool's map shut down on exit."""
    _check_jobs(jobs)
    if jobs == 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield pool.map


def _batches(items, jobs: int) -> list:
    """``items`` cut into ``jobs`` contiguous runs (fewer when there are
    fewer items) whose sizes differ by at most one, in order."""
    _check_jobs(jobs)
    n = min(jobs, len(items))
    bounds = [len(items) * k // n for k in range(n + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _run_batches(fn, tasks) -> list:
    """``fn`` of each task, in order: one task runs in this process, more
    in a pool of one process each."""
    with pool_map(len(tasks)) as mapper:
        return list(mapper(fn, tasks))


def train_identifier(data, cfg: IdentificationConfig, seed=0, jobs=1):
    """LOSO-style identification training with per-fold rebalancing.

    ``data`` is a sequence of (stream, intervals) pairs. Each fold holds
    one subject out; every balance iteration trains the pairwise SVM on
    all training gesture windows plus an equal-size ADL draw and tests on
    the held-out subject's windows. The report averages the iterations
    per fold and sums a majority-vote confusion matrix over folds; the
    returned model is trained on one balanced draw over all subjects and
    carries ``cfg``'s window geometry. The folds run in ``jobs``
    contiguous batches, each in its own process when there are more than
    one; the final draw rides with the last.
    """
    # window labels need only the stream lengths, so every check runs
    # before any windowed RQA
    for stream, _ in data:
        cfg.rqa.check_length(len(stream),
                             f"subject {stream.subject_id}: stream")
    labels = [label_windows(stream, intervals, cfg.rqa,
                            cfg.overlap_fraction)
              for stream, intervals in data]
    subjects = sorted({stream.subject_id for stream, _ in data})
    if len(subjects) < 2:
        raise ValidationError("need >=2 subjects")
    spotted = {stream.subject_id for (stream, _), ls in zip(data, labels)
               if GESTURE_WINDOW_LABEL in ls}
    if missing := [s for s in subjects if s not in spotted]:
        raise ValidationError(f"no gesture windows in subject "
                              f"{', '.join(missing)}; every held-out "
                              "subject needs one")
    dataset = windows_dataset(data, cfg.rqa, labels)
    batches = _batches(list(enumerate(subjects)), jobs)
    tasks = [(dataset, cfg, seed, folds, k == len(batches) - 1)
             for k, folds in enumerate(batches)]
    results = _run_batches(_identifier_batch, tasks)
    report = EvaluationReport.from_folds(
        chain.from_iterable(rows for rows, _ in results), _WINDOW_CLASSES)
    return replace(results[-1][1], rqa=cfg.rqa.text()), report


def load_identifier(path) -> tuple[OvoSvmModel, RqaConfig]:
    """An identifier model and the RQA settings its [rqa] section
    records, read back through RqaConfig's own checks."""
    model = load_model(path)
    if not model.rqa:
        raise ParseError(f"{path}: no [rqa] section records the window "
                         "geometry; retrain the model with train-identifier")
    try:
        keys = [f.name for f in fields(RqaConfig)]
        if sorted(k for k, _ in model.rqa) != sorted(keys):
            raise ValueError(f"want one line each for {', '.join(keys)}")
        cfg = RqaConfig.parse(dict(model.rqa))
        cfg.check_window()
    except (ValueError, OverflowError, ValidationError) as exc:
        raise ParseError(f"{path}: bad [rqa] section: {exc}") from None
    return model, cfg


def identify_segments(stream: ImuStream, model,
                      cfg: RqaConfig) -> list[tuple[int, int]]:
    """Candidate gesture intervals from a model's window predictions.

    Runs of consecutive positive windows collapse to one interval of
    window length placed at the run's midpoint start; overlapping
    emissions keep the earlier one.
    """
    starts, X = window_features(stream, cfg)
    hits = starts[model.predict(X) == GESTURE_WINDOW_LABEL]
    if not len(hits):
        return []
    # where in hits each run after the first begins
    new = np.flatnonzero(np.diff(hits) != cfg.step) + 1
    out = []
    for first, last in zip(hits[np.r_[0, new]].tolist(),
                           hits[np.r_[new - 1, -1]].tolist()):
        mid = (first + last) // 2
        if not out or mid >= out[-1][1]:
            out.append((mid, mid + cfg.window_len))
    return out


@dataclass(frozen=True)
class ImportanceResult:
    feature_names: tuple[str, ...]
    baseline: float
    per_rep: np.ndarray          # (n_features, n_reps) accuracies
    mean_accuracy: np.ndarray    # per feature

    @property
    def drop(self) -> np.ndarray:
        return self.baseline - self.mean_accuracy


def _stratified_split(labels):
    """Deterministic half split: per class, even ranks train, odd test."""
    test = np.zeros(len(labels), dtype=bool)
    for c in np.unique(labels):
        test[np.flatnonzero(labels == c)[1::2]] = True
    if not test.any():
        raise ValidationError("dataset too small to split")
    return np.flatnonzero(~test), np.flatnonzero(test)


def _importance_accuracies(dataset, matrices, train_idx, test_idx,
                           trainer, trainer_seed) -> np.ndarray:
    """The trainer's accuracy on the fixed split of each feature matrix of
    ``matrices`` (an iterable, pulled as the trainer asks), as one
    batch."""
    folds = ((replace(dataset, X=X).take(train_idx), X[test_idx],
              trainer_seed) for X in matrices)
    truth = dataset.labels[test_idx]
    return np.array([np.mean(pred == truth) for pred in trainer(folds)])


def _importance_feature(args):
    dataset, f, n_reps, seed, trainer, train_idx, test_idx, t_seed = args

    def permuted():
        for r in range(n_reps):
            rng = derive_rng(seed, PERMUTE, f, r)
            Xp = dataset.X.copy()
            Xp[:, f] = Xp[rng.permutation(len(Xp)), f]
            yield Xp
    return _importance_accuracies(dataset, permuted(), train_idx, test_idx,
                                  trainer, t_seed)


def check_reps(n_reps: int) -> None:
    if n_reps < 1:
        raise ValidationError("n_reps must be >= 1")


def permutation_importance(dataset: LabeledDataset, trainer, n_reps: int,
                           seed=0, mapper=map) -> ImportanceResult:
    """Mean accuracy after permuting each feature column, plus baseline.

    The whole column is shuffled (seeded per feature and repetition)
    before a fixed stratified half split; the trainer is re-run with the
    same trainer seed every time, so permuting a constant column
    reproduces the baseline accuracy exactly.
    """
    check_reps(n_reps)
    if np.all(dataset.X.std(axis=0) == 0):
        raise ValidationError("every feature is constant; nothing to rank")
    train_idx, test_idx = _stratified_split(dataset.labels)
    t_seed = derive_int(seed, TRAINER)
    baseline = float(_importance_accuracies(dataset, [dataset.X], train_idx,
                                            test_idx, trainer, t_seed)[0])
    tasks = [(dataset, f, n_reps, seed, trainer, train_idx, test_idx, t_seed)
             for f in range(dataset.X.shape[1])]
    per_rep = np.vstack(list(mapper(_importance_feature, tasks)))
    return ImportanceResult(feature_names=tuple(dataset.feature_names),
                            baseline=baseline, per_rep=per_rep,
                            mean_accuracy=per_rep.mean(axis=1))


def select_features(feature_names, mean_accuracy, baseline,
                    k: int = 43) -> list[int]:
    """Indices (ascending) of the k highest-drop statistical features
    plus every resampled-acceleration feature.

    Drop ties keep the earlier registry name.
    """
    names = list(feature_names)
    mean_accuracy = np.asarray(mean_accuracy, dtype=np.float64)
    if len(names) != len(mean_accuracy):
        raise ValidationError("one mean accuracy per feature required")
    stats = [i for i, nm in enumerate(names) if not is_sample_feature(nm)]
    samples = [i for i, nm in enumerate(names) if is_sample_feature(nm)]
    check_select(k, len(stats))
    drop = baseline - mean_accuracy
    chosen = sorted(stats, key=lambda i: (-drop[i], i))[:k]
    return sorted(chosen + samples)


def check_select(k: int, n_stats: int) -> None:
    """Reject a selection size outside 1..``n_stats``, the statistical
    feature count."""
    if not 1 <= k <= n_stats:
        raise ValidationError(f"k={k} must lie in 1..{n_stats}, the "
                              "statistical feature count")


def check_sigma(sigma: float) -> None:
    if not 0.0 <= sigma < np.inf:
        raise ValidationError("sigma must be non-negative and finite")


def noise_augment(train: LabeledDataset, sigma: float,
                  seed=0) -> LabeledDataset:
    """Originals plus Gaussian-corrupted copies (2n rows).

    Meant to run after standardization, mirroring how the corrupted copy
    is produced on z-scored features. Labels and subjects duplicate
    one-to-one, so class and subject marginals are preserved exactly.
    """
    check_sigma(sigma)
    rng = derive_rng(seed, AUGMENT)
    n = len(train)
    out = train.take(np.tile(np.arange(n), 2))
    out.X[n:] += rng.normal(0.0, 1.0, train.X.shape) * sigma
    return out


def standardize_augment(train: LabeledDataset, sigma: float, seed=0):
    """``(scaler, augmented)``: z-score ``train`` with a scaler fit on its
    own rows, then append the noisy copies of ``noise_augment``."""
    scaler = Scaler.fit(train.X)
    return scaler, noise_augment(replace(train, X=scaler.transform(train.X)),
                                 sigma, seed=seed)


@dataclass(frozen=True)
class CentroidTrainer:
    """Nearest class centroid on standardized features.

    Cheap deterministic stand-in used to rank features inside folds; each
    fold's seed is accepted and ignored.
    """

    def __call__(self, folds) -> list[np.ndarray]:
        return [self._predict(train, test_rows)
                for train, test_rows, _ in folds]

    @staticmethod
    def _predict(train: LabeledDataset, test_rows) -> np.ndarray:
        scaler = Scaler.fit(train.X)
        Xs, test = scaler.transform(train.X), scaler.transform(test_rows)
        classes = train.classes
        centroids = np.vstack([Xs[train.labels == c].mean(axis=0)
                               for c in classes])
        d = ((test[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        return np.asarray(classes)[np.argmin(d, axis=1)]


# per-fold feature selection ranks features by nearest-centroid
# permutation importance over this many repetitions
SELECTION_RANKER = CentroidTrainer()
SELECTION_REPS = 20


@dataclass(frozen=True)
class SvmTrainer:
    """One-against-one SVM trainer with optional per-fold feature
    selection and noise augmentation.

    ``select_k`` turns on permutation-ranked selection of that many
    statistical features (sample features always kept), computed on the
    training rows. ``augment_sigma`` standardizes, augments, then trains
    on the standardized rows.
    """
    # tuned on the recognition data
    kernel: KernelConfig = KernelConfig("radial", gamma=0.005)
    cost: float = 1.0
    select_k: int | None = None
    augment_sigma: float | None = None

    def __post_init__(self):
        check_cost(self.cost)
        if self.select_k is not None and self.select_k < 1:
            raise ValidationError(f"select_k={self.select_k} must be >= 1")
        if self.augment_sigma is not None:
            check_sigma(self.augment_sigma)

    def model(self, train: LabeledDataset, seed=0) -> OvoSvmModel:
        """The pairwise ensemble fit on all of ``train``, standardized and
        noise-augmented first when ``augment_sigma`` is set; ``seed`` only
        draws the noise."""
        dataset, scaler = self._training_set(train, seed)
        return ovo_train(dataset, self.kernel, self.cost, scaler=scaler)

    def _training_set(self, train: LabeledDataset, seed):
        """``(dataset, scaler)`` as ``ovo_train`` takes them: ``train``
        and None, or its standardized, augmented rows and their scaler."""
        if self.augment_sigma is None:
            return train, None
        scaler, augmented = standardize_augment(train, self.augment_sigma,
                                                seed=seed)
        return augmented, scaler

    def __call__(self, folds) -> list[np.ndarray]:
        """Each fold's predictions; the folds' models come from one
        ``ovo_train_many`` call, which pulls a fold (and runs its
        selection) only when its pairs are needed."""
        tests = deque()

        def training_sets():
            for train, test_rows, seed in folds:
                test = np.atleast_2d(np.asarray(test_rows, dtype=np.float64))
                if self.select_k is not None:
                    imp = permutation_importance(
                        train, SELECTION_RANKER, n_reps=SELECTION_REPS,
                        seed=seed)
                    idx = select_features(train.feature_names,
                                          imp.mean_accuracy, imp.baseline,
                                          k=self.select_k)
                    train = train.take(columns=idx)
                    test = test[:, idx]
                tests.append(test)
                yield self._training_set(train, seed)
        return [model.predict(tests.popleft()) for model in
                ovo_train_many(training_sets(), self.kernel, self.cost)]


@dataclass(frozen=True)
class ForestTrainer:
    config: ForestConfig = ForestConfig()

    def __call__(self, folds) -> list[np.ndarray]:
        return [forest_train_predict(train, test_rows, self.config, seed)
                for train, test_rows, seed in folds]


def _loso_batch(args):
    """The report rows of a run of folds, all handed to one trainer call."""
    dataset, trainer, classes, seed, folds = args
    tests = [dataset.take(dataset.subjects == s) for _, s in folds]
    preds = trainer((dataset.take(dataset.subjects != s), test.X,
                     derive_int(seed, FOLD, fi))
                    for (fi, s), test in zip(folds, tests))
    return [(s, *fold_scores(classes, test.labels, pred))
            for (_, s), test, pred in zip(folds, tests, preds)]


def loso_evaluate(dataset: LabeledDataset, trainer, seed=0,
                  jobs=1) -> EvaluationReport:
    """Leave-one-subject-out evaluation: one fold per distinct subject.

    Balanced accuracy per fold averages recall over the classes actually
    present in that fold's test rows; the confusion matrix sums over
    folds in global canonical class order. The folds run in ``jobs``
    contiguous batches, one trainer call each, each batch in its own
    process when there are more than one.
    """
    subjects = dataset.subject_ids()
    if len(subjects) < 2:
        raise ValidationError("need >=2 subjects")
    classes = tuple(dataset.classes)
    tasks = [(dataset, trainer, classes, seed, folds)
             for folds in _batches(list(enumerate(subjects)), jobs)]
    return EvaluationReport.from_folds(
        chain.from_iterable(_run_batches(_loso_batch, tasks)), classes)


def write_report_csv(report: EvaluationReport, path) -> None:
    """Per-fold metrics: ``fold,subject,accuracy,balanced_accuracy``."""
    rows = zip(report.folds, report.accuracy, report.balanced)
    write_file(path, "fold,subject,accuracy,balanced_accuracy\n" + "".join(
        f"{i},{subject},{format_float(acc)},{format_float(bal)}\n"
        for i, (subject, acc, bal) in enumerate(rows)))


def write_confusion_csv(report: EvaluationReport, path) -> None:
    """K x K counts with class-name header and row labels."""
    write_file(path, "," + ",".join(report.classes) + "\n" + "".join(
        f"{cls},{','.join(str(int(v)) for v in report.confusion[i])}\n"
        for i, cls in enumerate(report.classes)))


def write_importance_csv(result: ImportanceResult, path) -> None:
    """``feature,mean_accuracy,drop`` rows; first row is the unpermuted
    baseline under the name ``original``."""
    rows = [("original", result.baseline, 0.0),
            *zip(result.feature_names, result.mean_accuracy, result.drop)]
    write_file(path, "feature,mean_accuracy,drop\n" + "".join(
        f"{name},{format_float(acc)},{format_float(drop)}\n"
        for name, acc, drop in rows))
