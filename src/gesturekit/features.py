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
``recognize`` all build their rows through it, one pass per segment over
all 9 channels, and it alone picks columns by name. This module alone
knows the sample-name format ``acc_{axis}_s{i}`` (``is_sample_feature``,
``sample_count``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .imu import (CHANNELS, ImuStream, LabeledDataset, format_float,
                  number_rows, read_lines, write_file)

STATS = ("mean", "median", "rms", "std", "var", "skew", "kurt")
DEFAULT_SAMPLES = 10
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
    index, or DEFAULT_SAMPLES when none is a sample name."""
    return max((int(m[1]) for m in map(_SAMPLE_NAME.fullmatch, names) if m),
               default=DEFAULT_SAMPLES)


def check_samples(n_samples: int) -> None:
    if n_samples < 2:
        raise ValidationError("need at least 2 output samples")


def resample_linear(series, n_samples: int) -> np.ndarray:
    """Linearly resample a series to a fixed length.

    Output sample i interpolates the series at source position
    ``i * (N - 1) / (S - 1)``, so both endpoints are preserved exactly and
    S = N is the identity.
    """
    x = np.asarray(series, dtype=np.float64)
    check_samples(n_samples)
    if len(x) < 2:
        raise ValidationError("need at least 2 input samples")
    pos = np.arange(n_samples, dtype=np.float64) * (len(x) - 1) / (n_samples - 1)
    return np.interp(pos, np.arange(len(x), dtype=np.float64), x)


def featurize_segments(segments, names=feature_names()) -> LabeledDataset:
    """A LabeledDataset of (segment, label) pairs with exactly the columns
    ``names``, in order, picked by name from the rows of
    ``feature_names(sample_count(names))``."""
    names = tuple(names)
    n_samples = sample_count(names)
    full = feature_names(n_samples)
    if unknown := [nm for nm in names if nm not in full]:
        raise ValidationError(f"model expects feature {unknown[0]!r}, which "
                              "segment featurization does not produce")
    segments = list(segments)
    if not segments:
        raise ValidationError("no segments to featurize")
    X = np.vstack([_segment_row(seg, n_samples) for seg, _ in segments])
    if names != full:   # the whole set keeps vstack's C order
        X = X[:, [full.index(nm) for nm in names]]
    return LabeledDataset(X=X, labels=[label for _, label in segments],
                          subjects=[seg.subject_id for seg, _ in segments],
                          feature_names=list(names))


def _segment_row(segment: ImuStream, n_samples: int) -> np.ndarray:
    """One row in ``feature_names`` order: each statistic is one reduction
    over the rows of a (9, n) channel copy, then the x, y, z acceleration
    samples."""
    if len(segment) < 2:
        raise ValidationError("segment must have at least 2 samples")
    if segment.names != CHANNELS:
        raise ValidationError("a segment needs all 9 channels in order")
    c = np.ascontiguousarray(segment.channels.T, dtype=np.float64)
    mean = c.mean(axis=1)
    d = c - mean[:, None]
    m2 = (d ** 2).mean(axis=1)
    # Python-float powers: numpy's array power rounds m2 ** 1.5 and
    # m2 ** 2 differently in the last bit
    shape = [(m3 / v ** 1.5, m4 / v ** 2) if v > 0.0 else (0.0, 0.0)
             for m3, m4, v in zip((d ** 3).mean(axis=1).tolist(),
                                  (d ** 4).mean(axis=1).tolist(),
                                  m2.tolist())]
    stats = np.column_stack([mean, np.median(c, axis=1),
                             np.sqrt((c * c).mean(axis=1)), np.sqrt(m2), m2,
                             np.array(shape)])
    return np.concatenate([stats.ravel()] + [resample_linear(c[axis], n_samples)
                                             for axis in range(3)])


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


def write_feature_csv(dataset: LabeledDataset, path) -> None:
    """Feature matrix CSV: feature names plus ``label,subject`` columns."""
    header = list(dataset.feature_names) + ["label", "subject"]
    rows = ([format_float(v) for v in x] + [label, subject]
            for x, label, subject in zip(dataset.X, dataset.labels, dataset.subjects))
    write_file(path, "".join(",".join(cells) + "\n" for cells in [header, *rows]))


def read_feature_csv(path) -> LabeledDataset:
    """Parse a feature matrix CSV; its feature cells are read in the
    number grammar by ``number_rows``."""
    lines = read_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    if len(header) < 3 or header[-2:] != ["label", "subject"]:
        raise ParseError(f"{path}: feature CSV must end with label,subject columns")
    names = header[:-2]
    entries = [(lineno, ln.split(","))
             for lineno, ln in enumerate(lines[1:], start=2) if ln.strip()]
    values = number_rows([cells[:-2] for _, cells in entries], float)
    rows, labels, subjects = [], [], []
    for lineno, cells in entries:
        if len(cells) != len(header):
            raise ParseError(f"{path}: wrong cell count at line {lineno}")
        try:
            rows.append(next(values))
        except ValueError:
            raise ParseError(f"{path}: non-numeric cell at line {lineno}") from None
        if not np.all(np.isfinite(rows[-1])):
            raise ParseError(f"{path}: non-finite value at line {lineno}")
        labels.append(cells[-2].strip())
        subjects.append(cells[-1].strip())
    if not rows:
        raise ParseError(f"{path}: no feature rows")
    return LabeledDataset(X=np.array(rows), labels=labels, subjects=subjects,
                          feature_names=names)
