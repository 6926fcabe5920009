"""Recognition features: 63 channel statistics, resampled acceleration
samples, the canonical feature names, and train-set standardization.

The statistical block covers mean, median, RMS, standard deviation,
variance, skewness and kurtosis for each of the 9 sensor channels
(sensor-major, then axis, then statistic). The sample block linearly
resamples each acceleration axis to a fixed length S (default 10), giving
63 + 3*S features per segment. All moments are population moments
(divide by n); skewness and kurtosis of a zero-variance channel are 0 by
convention, and kurtosis is the non-excess m4/m2^2.

``featurize_segments`` is the one featurizer: training, evaluation and
``recognize`` all build their rows through it, one pass per segment
length over all 9 channels of every segment of that length, and it alone
picks columns by name. This module alone
knows the sample-name format ``acc_{axis}_s{i}`` (``is_sample_feature``,
``sample_count``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .imu import CHANNELS, LabeledDataset

STATS = ("mean", "median", "rms", "std", "var", "skew", "kurt")
DEFAULT_SAMPLES = 10
# far above the tuned 10: one segment resampled to S points per axis costs
# O(S) time and memory, so a model's [registry] cannot ask for 10**9
MAX_SAMPLES = 1000
_SAMPLE_NAME = re.compile(r"acc_[xyz]_s([0-9]+)")


# the 63 statistical names: sensor-major, then axis, then statistic
STAT_NAMES = tuple(f"{ch}_{st}" for ch in CHANNELS for st in STATS)


def feature_names(n_samples: int = DEFAULT_SAMPLES) -> tuple[str, ...]:
    """STAT_NAMES followed by the 3*S acceleration-sample names."""
    return STAT_NAMES + tuple(f"acc_{axis}_s{i}" for axis in "xyz"
                              for i in range(1, n_samples + 1))


def is_sample_feature(name: str) -> bool:
    """Whether ``name`` has the form of ``feature_names``' sample names."""
    return _SAMPLE_NAME.fullmatch(name) is not None


def sample_count(names) -> int:
    """The resampled length S that ``names`` ask for: their largest sample
    index, or DEFAULT_SAMPLES when none is a sample name; ValidationError
    unless ``check_samples`` takes it."""
    n_samples = max((int(m[1]) for m in map(_SAMPLE_NAME.fullmatch, names)
                     if m), default=DEFAULT_SAMPLES)
    check_samples(n_samples)
    return n_samples


def check_samples(n_samples: int) -> None:
    if n_samples < 2:
        raise ValidationError("need at least 2 output samples")
    if n_samples > MAX_SAMPLES:
        raise ValidationError(f"need at most {MAX_SAMPLES} output samples")


def resample_linear(series, n_samples: int) -> np.ndarray:
    """Linearly resample a series, or each row of an array of series along
    its last axis, to a fixed length.

    Output sample i interpolates the series at source position
    ``i * (N - 1) / (S - 1)``, so both endpoints are preserved exactly and
    S = N is the identity.
    """
    x = np.asarray(series, dtype=np.float64)
    check_samples(n_samples)
    n = x.shape[-1]
    if n < 2:
        raise ValidationError("need at least 2 input samples")
    pos = np.arange(n_samples, dtype=np.float64) * (n - 1) / (n_samples - 1)
    grid = np.arange(n, dtype=np.float64)
    return np.reshape([np.interp(pos, grid, row) for row in x.reshape(-1, n)],
                      x.shape[:-1] + (n_samples,))


def featurize_segments(segments, names=feature_names()) -> LabeledDataset:
    """A LabeledDataset of (segment, label) pairs with exactly the columns
    ``names``, in order, picked by name from the rows of
    ``feature_names(sample_count(names))``.

    Every segment is checked first, in input order. The rows are then
    made one pass per segment length: the segments of one length n form
    one C-contiguous (segments, 9, n) array, each statistic is one
    reduction along its last axis, and the rows land in ``X`` in input
    order. Each row is bit-equal to reducing its own (9, n) channel copy,
    as the sums run over the same contiguous axis in the same order."""
    names = tuple(names)
    n_samples = sample_count(names)
    full = feature_names(n_samples)
    column = {nm: k for k, nm in enumerate(full)}
    if unknown := [nm for nm in names if nm not in column]:
        raise ValidationError(f"model expects feature {unknown[0]!r}, which "
                              "segment featurization does not produce")
    segments = list(segments)
    if not segments:
        raise ValidationError("no segments to featurize")
    by_length = {}
    for k, (seg, _) in enumerate(segments):
        if len(seg) < 2:
            raise ValidationError("segment must have at least 2 samples")
        if seg.names != CHANNELS:
            raise ValidationError("a segment needs all 9 channels in order")
        by_length.setdefault(len(seg), []).append(k)
    X = np.empty((len(segments), len(full)))
    for rows in by_length.values():
        X[rows] = _length_group_rows([segments[k][0] for k in rows],
                                     n_samples)
    if names != full:   # the whole set keeps X's C order
        X = X[:, [column[nm] for nm in names]]
    return LabeledDataset(X=X, labels=[label for _, label in segments],
                          subjects=[seg.subject_id for seg, _ in segments],
                          feature_names=list(names))


def _length_group_rows(group, n_samples: int) -> np.ndarray:
    """The rows, in ``feature_names`` order, of segments of one length:
    each statistic is one reduction along the last axis of their (g, 9, n)
    channel stack, then the x, y, z acceleration samples."""
    c = np.ascontiguousarray(np.stack([seg.channels for seg in group])
                             .transpose(0, 2, 1))
    mean = c.mean(axis=-1)
    d = c - mean[..., None]
    m2 = (d ** 2).mean(axis=-1)
    # Python-float powers: numpy's array power rounds m2 ** 1.5 and
    # m2 ** 2 differently in the last bit
    shape = [(m3 / v ** 1.5, m4 / v ** 2) if v > 0.0 else (0.0, 0.0)
             for m3, m4, v in zip((d ** 3).mean(axis=-1).ravel().tolist(),
                                  (d ** 4).mean(axis=-1).ravel().tolist(),
                                  m2.ravel().tolist())]
    stats = np.concatenate(
        [np.stack([mean, np.median(c, axis=-1), np.sqrt((c * c).mean(axis=-1)),
                   np.sqrt(m2), m2], axis=-1),
         np.reshape(shape, c.shape[:2] + (2,))], axis=-1)
    return np.hstack([stats.reshape(len(group), -1),
                      resample_linear(c[:, :3], n_samples)
                      .reshape(len(group), -1)])


@dataclass(frozen=True)
class Scaler:
    """Per-feature z-score parameters estimated on training rows only.

    Zero-variance features keep their unit divisor so constant columns map
    to exact zeros instead of NaNs.
    """
    mean: np.ndarray
    std: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != len(self.mean):
            raise ValidationError("column count does not match the scaler")
        return (X - self.mean) / self.std

    @classmethod
    def fit(cls, X: np.ndarray) -> "Scaler":
        """Mean and std of the given (training) rows."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValidationError("training matrix must be non-empty and 2-D")
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std > 0.0, std, 1.0)
        return cls(mean=mean, std=std)
