"""End-to-end orchestration: window labeling, identification training
with ADL rebalancing, segment assembly, permutation importance, feature
selection, noise augmentation, LOSO evaluation, and report files.

Folds, balance iterations, and permutation repetitions each draw from an
rng derived as (master seed, task key), so any of them may run under a
parallel mapper without changing a single output byte. Trainers are small
picklable callables with the shared signature
``trainer(train_dataset, test_rows, seed) -> predicted labels``; the test
labels never reach a trainer, and scalers / selected feature sets are fit
inside the trainer on its training rows only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParseError, ValidationError
from .features import Scaler, is_sample_feature
from .forest import ForestConfig, forest_train_predict
from .imu import (ADL_LABEL, CHANNELS, ImuStream, LabeledDataset, format_float,
                  write_file)
from .rqa import EmbeddingConfig, RpConfig, RqaWindowConfig, windowed_rqa
from .seeding import (AUGMENT, BALANCE, FINAL, FOLD, PERMUTE, TRAINER,
                      derive_int, derive_rng)
from .svm import (PRESETS, KernelConfig, OvoSvmModel, load_model, ovo_train,
                  ovo_train_many)

GESTURE_WINDOW_LABEL = "gesture"
_WINDOW_CLASSES = (ADL_LABEL, GESTURE_WINDOW_LABEL)
# an identifier file's [rqa] keys, named as train-identifier's RQA options
RQA_KEYS = ("series", "window_len", "step", "dimension", "delay", "epsilon",
            "norm")


@dataclass(frozen=True)
class IdentificationConfig:
    """Windowed-RQA geometry plus the identification training knobs."""
    window: RqaWindowConfig = field(default_factory=RqaWindowConfig)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    rp: RpConfig = field(default_factory=RpConfig)
    series: str = "acc_y"
    overlap_fraction: float = 0.5
    n_balance_iters: int = 100
    kernel: KernelConfig = field(
        default_factory=lambda: PRESETS["identification"][0])
    cost: float = PRESETS["identification"][1]

    def __post_init__(self):
        if not 0.0 < self.overlap_fraction <= 1.0:
            raise ValidationError("overlap_fraction must be in (0, 1]")
        if self.n_balance_iters < 1:
            raise ValidationError("n_balance_iters must be >= 1")
        if self.series not in CHANNELS:
            raise ValidationError(f"unknown channel {self.series!r}")
        if self.window.window_len < (self.embedding.m - 1) * self.embedding.tau + 2:
            raise ValidationError("window shorter than the embedding needs")

    def rqa_fields(self) -> tuple[tuple[str, str], ...]:
        """The window geometry as ``(key, value)`` pairs in RQA_KEYS order."""
        values = (self.series, self.window.window_len, self.window.step,
                  self.embedding.m, self.embedding.tau,
                  format_float(self.rp.epsilon), self.rp.norm)
        return tuple(zip(RQA_KEYS, map(str, values)))


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


def confusion_matrix(classes, true_labels, pred_labels) -> np.ndarray:
    index = {c: i for i, c in enumerate(classes)}
    out = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(true_labels, pred_labels):
        out[index[t], index[p]] += 1
    return out


def fold_scores(classes, truth, pred) -> tuple[float, float, np.ndarray]:
    """``(accuracy, balanced accuracy, confusion)`` of one fold's
    predictions. Balanced accuracy is the mean recall over the classes
    present in ``truth``; for two present classes it is (TPR + TNR) / 2."""
    conf = confusion_matrix(classes, truth, pred)
    totals = conf.sum(axis=1)
    present = totals > 0
    recalls = np.diag(conf)[present] / totals[present]
    return float(np.trace(conf) / conf.sum()), float(recalls.mean()), conf


def label_windows(stream: ImuStream, intervals, win: RqaWindowConfig,
                  overlap_fraction: float) -> list[str]:
    """Binary window labels: gesture if enough of some interval is inside.

    A window is a gesture window iff at least ``overlap_fraction`` of any
    single interval's duration falls within it; otherwise it is ADL.
    """
    n = len(stream)
    for iv in intervals:
        if iv.end > n:
            raise ValidationError(
                f"interval [{iv.start}, {iv.end}) exceeds stream length {n}")
    begin, end = np.array([(iv.start, iv.end) for iv in intervals],
                          dtype=np.int64).reshape(-1, 2).T
    s = win.starts(n)[:, None]
    inside = np.minimum(end, s + win.window_len) - np.maximum(begin, s)
    hit = (inside >= overlap_fraction * (end - begin)).any(axis=1)
    return [_WINDOW_CLASSES[h] for h in hit.tolist()]


def window_features(stream: ImuStream, cfg: IdentificationConfig):
    """``(starts, X)`` of one stream: each window's start and its
    ``rr, tra`` row of ``windowed_rqa`` on ``cfg``'s series and geometry."""
    X = windowed_rqa(stream.channel(cfg.series), cfg.embedding, cfg.rp,
                     cfg.window)
    return cfg.window.starts(len(stream)), X


def windows_dataset(data, cfg: IdentificationConfig, labels) -> LabeledDataset:
    """Stack (stream, intervals) pairs into a window-level dataset.

    ``labels`` holds each stream's ``label_windows`` list, in ``data``
    order.
    """
    return LabeledDataset(
        X=np.vstack([window_features(stream, cfg)[1] for stream, _ in data]),
        labels=[lab for ls in labels for lab in ls],
        subjects=[stream.subject_id
                  for (stream, _), ls in zip(data, labels) for _ in ls],
        feature_names=["rr", "tra"])


def _balanced_subset(dataset, rng) -> LabeledDataset:
    """All gesture windows plus an equal-size ADL draw (no replacement)."""
    labels = np.asarray(dataset.labels)
    gesture = np.flatnonzero(labels == GESTURE_WINDOW_LABEL)
    adl = np.flatnonzero(labels == ADL_LABEL)
    if len(gesture) == 0:
        raise ValidationError("no gesture windows in the training data")
    if len(adl) < len(gesture):
        raise ValidationError("not enough ADL windows for a balanced draw")
    pick = rng.choice(adl, size=len(gesture), replace=False)
    return dataset.take(np.concatenate([gesture, np.sort(pick)]))


def _identifier_fold(args):
    dataset, cfg, seed, fi, subject = args
    mask = dataset.rows_for_subjects([subject])
    train, test = dataset.take(~mask), dataset.take(mask)
    accs, bals = [], []
    gesture_votes = np.zeros(len(test), dtype=np.int64)
    # every balance iteration's draw, then all their SVMs in one solve
    subsets = [_balanced_subset(train, derive_rng(seed, BALANCE, fi, it))
               for it in range(cfg.n_balance_iters)]
    for model in ovo_train_many(subsets, cfg.kernel, cfg.cost):
        pred = model.predict(test.X)
        acc, bal, _ = fold_scores(_WINDOW_CLASSES, test.labels, pred)
        accs.append(acc)
        bals.append(bal)
        gesture_votes += np.asarray(pred) == GESTURE_WINDOW_LABEL
    # majority vote across iterations; exact ties fall to ADL
    majority = [GESTURE_WINDOW_LABEL
                if 2 * v > cfg.n_balance_iters else ADL_LABEL
                for v in gesture_votes]
    conf = confusion_matrix(_WINDOW_CLASSES, test.labels, majority)
    return subject, float(np.mean(accs)), float(np.mean(bals)), conf


def train_identifier(data, cfg: IdentificationConfig, seed=0, mapper=map):
    """LOSO-style identification training with per-fold rebalancing.

    ``data`` is a sequence of (stream, intervals) pairs. Each fold holds
    one subject out; every balance iteration trains the pairwise SVM on
    all training gesture windows plus an equal-size ADL draw and tests on
    the held-out subject's windows. The report averages the iterations
    per fold and sums a majority-vote confusion matrix over folds; the
    returned model is trained on one balanced draw over all subjects and
    carries ``cfg``'s window geometry.
    """
    # window labels need only the stream lengths, so both checks run
    # before any windowed RQA
    labels = [label_windows(stream, intervals, cfg.window,
                            cfg.overlap_fraction)
              for stream, intervals in data]
    subjects = sorted({stream.subject_id
                       for (stream, _), ls in zip(data, labels) if ls})
    if len(subjects) < 2:
        raise ValidationError("need >=2 subjects")
    spotted = {stream.subject_id for (stream, _), ls in zip(data, labels)
               if GESTURE_WINDOW_LABEL in ls}
    if missing := [s for s in subjects if s not in spotted]:
        raise ValidationError(f"no gesture windows in subject "
                              f"{', '.join(missing)}; every held-out "
                              "subject needs one")
    dataset = windows_dataset(data, cfg, labels)
    tasks = [(dataset, cfg, seed, fi, s) for fi, s in enumerate(subjects)]
    report = EvaluationReport.from_folds(mapper(_identifier_fold, tasks),
                                         _WINDOW_CLASSES)
    final_subset = _balanced_subset(dataset, derive_rng(seed, FINAL))
    model = ovo_train(final_subset, cfg.kernel, cfg.cost)
    return replace(model, rqa=cfg.rqa_fields()), report


def load_identifier(path) -> tuple[OvoSvmModel, IdentificationConfig]:
    """An identifier model and the window geometry its [rqa] section
    records, read back through the RQA configs' own checks."""
    model = load_model(path)
    if not model.rqa:
        raise ParseError(f"{path}: no [rqa] section records the window "
                         "geometry; retrain the model with train-identifier")
    fields = dict(model.rqa)
    try:
        if sorted(k for k, _ in model.rqa) != sorted(RQA_KEYS):
            raise ValueError(f"want one line each for {', '.join(RQA_KEYS)}")
        cfg = IdentificationConfig(
            window=RqaWindowConfig(int(fields["window_len"]),
                                   int(fields["step"])),
            embedding=EmbeddingConfig(int(fields["dimension"]),
                                      int(fields["delay"])),
            rp=RpConfig(float(fields["epsilon"]), fields["norm"]),
            series=fields["series"])
    except (ValueError, ValidationError) as exc:
        raise ParseError(f"{path}: bad [rqa] section: {exc}") from None
    return model, cfg


def identify_segments(stream: ImuStream, model,
                      cfg: IdentificationConfig) -> list[tuple[int, int]]:
    """Candidate gesture intervals from a model's window predictions.

    Runs of consecutive positive windows collapse to one interval of
    window length placed at the run's midpoint start; overlapping
    emissions keep the earlier one.
    """
    starts, X = window_features(stream, cfg)
    hits = starts[np.asarray(model.predict(X)) == GESTURE_WINDOW_LABEL]
    if not len(hits):
        return []
    # where in hits each run after the first begins
    new = np.flatnonzero(np.diff(hits) != cfg.window.step) + 1
    out = []
    for first, last in zip(hits[np.r_[0, new]].tolist(),
                           hits[np.r_[new - 1, -1]].tolist()):
        mid = (first + last) // 2
        if not out or mid >= out[-1][1]:
            out.append((mid, mid + cfg.window.window_len))
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
    train_idx, test_idx = [], []
    by_class = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    for lab in sorted(by_class):
        rows = by_class[lab]
        train_idx.extend(rows[0::2])
        test_idx.extend(rows[1::2])
    if not test_idx:
        raise ValidationError("dataset too small to split")
    return np.sort(train_idx), np.sort(test_idx)


def _importance_accuracy(dataset, train_idx, test_idx, trainer,
                         trainer_seed):
    test = dataset.take(test_idx)
    pred = trainer(dataset.take(train_idx), test.X, trainer_seed)
    return float(np.mean([p == t for p, t in zip(pred, test.labels)]))


def _importance_feature(args):
    dataset, f, n_reps, seed, trainer, train_idx, test_idx, t_seed = args
    out = np.empty(n_reps)
    for r in range(n_reps):
        rng = derive_rng(seed, PERMUTE, f, r)
        Xp = dataset.X.copy()
        Xp[:, f] = Xp[rng.permutation(len(Xp)), f]
        out[r] = _importance_accuracy(replace(dataset, X=Xp), train_idx,
                                      test_idx, trainer, t_seed)
    return out


def permutation_importance(dataset: LabeledDataset, trainer, n_reps: int,
                           seed=0, mapper=map) -> ImportanceResult:
    """Mean accuracy after permuting each feature column, plus baseline.

    The whole column is shuffled (seeded per feature and repetition)
    before a fixed stratified half split; the trainer is re-run with the
    same trainer seed every time, so permuting a constant column
    reproduces the baseline accuracy exactly.
    """
    if n_reps < 1:
        raise ValidationError("n_reps must be >= 1")
    if np.all(dataset.X.std(axis=0) == 0):
        raise ValidationError("every feature is constant; nothing to rank")
    train_idx, test_idx = _stratified_split(dataset.labels)
    t_seed = derive_int(seed, TRAINER)
    baseline = _importance_accuracy(dataset, train_idx, test_idx, trainer,
                                    t_seed)
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
    if not 1 <= k <= len(stats):
        raise ValidationError(f"k={k} must lie in 1..{len(stats)}, the "
                              "statistical feature count")
    drop = baseline - mean_accuracy
    chosen = sorted(stats, key=lambda i: (-drop[i], i))[:k]
    return sorted(chosen + samples)


def _check_sigma(sigma: float) -> None:
    if not 0.0 <= sigma < np.inf:
        raise ValidationError("sigma must be non-negative and finite")


def noise_augment(train: LabeledDataset, sigma: float,
                  seed=0) -> LabeledDataset:
    """Originals plus Gaussian-corrupted copies (2n rows).

    Meant to run after standardization, mirroring how the corrupted copy
    is produced on z-scored features. Labels and subjects duplicate
    one-to-one, so class and subject marginals are preserved exactly.
    """
    _check_sigma(sigma)
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

    Cheap deterministic stand-in used to rank features inside folds; the
    seed argument is accepted and ignored.
    """

    def __call__(self, train: LabeledDataset, test_rows, seed=0):
        scaler = Scaler.fit(train.X)
        Xs, test = scaler.transform(train.X), scaler.transform(test_rows)
        classes = train.classes
        labels = np.asarray(train.labels)
        centroids = np.vstack([Xs[labels == c].mean(axis=0) for c in classes])
        d = ((test[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        return [classes[i] for i in np.argmin(d, axis=1)]


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
    kernel: KernelConfig = PRESETS["recognition"][0]
    cost: float = PRESETS["recognition"][1]
    select_k: int | None = None
    augment_sigma: float | None = None

    def __post_init__(self):
        if self.select_k is not None and self.select_k < 1:
            raise ValidationError(f"select_k={self.select_k} must be >= 1")
        if self.augment_sigma is not None:
            _check_sigma(self.augment_sigma)

    def model(self, train: LabeledDataset, seed=0) -> OvoSvmModel:
        """The pairwise ensemble fit on all of ``train``, standardized and
        noise-augmented first when ``augment_sigma`` is set; ``seed`` only
        draws the noise."""
        if self.augment_sigma is None:
            return ovo_train(train, self.kernel, self.cost)
        scaler, augmented = standardize_augment(train, self.augment_sigma,
                                                seed=seed)
        return ovo_train(augmented, self.kernel, self.cost, scaler=scaler)

    def __call__(self, train: LabeledDataset, test_rows, seed=0):
        test = np.atleast_2d(np.asarray(test_rows, dtype=np.float64))
        if self.select_k is not None:
            imp = permutation_importance(train, SELECTION_RANKER,
                                         n_reps=SELECTION_REPS, seed=seed)
            idx = select_features(train.feature_names, imp.mean_accuracy,
                                  imp.baseline, k=self.select_k)
            train = train.take(columns=idx)
            test = test[:, idx]
        return self.model(train, seed=seed).predict(test)


@dataclass(frozen=True)
class ForestTrainer:
    config: ForestConfig = ForestConfig()

    def __call__(self, train: LabeledDataset, test_rows, seed=0):
        return forest_train_predict(train, test_rows,
                                    replace(self.config, seed=seed))


def _loso_fold(args):
    dataset, trainer, classes, seed, fi, subject = args
    mask = dataset.rows_for_subjects([subject])
    test = dataset.take(mask)
    pred = trainer(dataset.take(~mask), test.X, derive_int(seed, FOLD, fi))
    return (subject, *fold_scores(classes, test.labels, pred))


def loso_evaluate(dataset: LabeledDataset, trainer, seed=0,
                  mapper=map) -> EvaluationReport:
    """Leave-one-subject-out evaluation: one fold per distinct subject.

    Balanced accuracy per fold averages recall over the classes actually
    present in that fold's test rows; the confusion matrix sums over
    folds in global canonical class order.
    """
    subjects = dataset.subject_ids()
    if len(subjects) < 2:
        raise ValidationError("need >=2 subjects")
    classes = tuple(dataset.classes)
    tasks = [(dataset, trainer, classes, seed, fi, s)
             for fi, s in enumerate(subjects)]
    return EvaluationReport.from_folds(mapper(_loso_fold, tasks), classes)


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
