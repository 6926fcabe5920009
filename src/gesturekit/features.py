"""Recognition features: 63 channel statistics, resampled acceleration
samples, the canonical feature registry, and train-set standardization.

The statistical block covers mean, median, RMS, standard deviation,
variance, skewness and kurtosis for each of the 9 sensor channels
(sensor-major, then axis, then statistic). The sample block linearly
resamples each acceleration axis to a fixed length S (default 10), giving
63 + 3*S features per segment. All moments are population moments
(divide by n); skewness and kurtosis of a zero-variance channel are 0 by
convention, and kurtosis is the non-excess m4/m2^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .imu import CHANNELS, ImuStream, LabeledDataset, format_float, read_text

STATS = ("mean", "median", "rms", "std", "var", "skew", "kurt")
DEFAULT_SAMPLES = 10


@dataclass(frozen=True)
class FeatureRegistry:
    """Ordered feature-name registry shared by datasets and models."""
    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValidationError("duplicate feature names")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    @staticmethod
    def statistical_names() -> list[str]:
        return [f"{ch}_{st}" for ch in CHANNELS for st in STATS]

    @staticmethod
    def sample_names(n_samples: int = DEFAULT_SAMPLES) -> list[str]:
        return [f"acc_{axis}_s{i}" for axis in "xyz" for i in range(1, n_samples + 1)]

    @classmethod
    def recognition(cls, n_samples: int = DEFAULT_SAMPLES) -> "FeatureRegistry":
        """63 statistical names followed by 3*S acceleration-sample names."""
        return cls(tuple(cls.statistical_names() + cls.sample_names(n_samples)))


def channel_statistics(x: np.ndarray) -> list[float]:
    """The 7 statistics of one channel, in STATS order."""
    x = np.asarray(x, dtype=np.float64)
    mean = float(np.mean(x))
    med = float(np.median(x))
    rms = float(np.sqrt(np.mean(x * x)))
    m2 = float(np.mean((x - mean) ** 2))
    std = float(np.sqrt(m2))
    if m2 > 0.0:
        m3 = float(np.mean((x - mean) ** 3))
        m4 = float(np.mean((x - mean) ** 4))
        skew = m3 / m2 ** 1.5
        kurt = m4 / m2 ** 2
    else:
        skew = 0.0
        kurt = 0.0
    return [mean, med, rms, std, m2, skew, kurt]


def statistical_features(segment: ImuStream) -> np.ndarray:
    """63-vector of channel statistics in registry order."""
    if len(segment) < 2:
        raise ValidationError("segment must have at least 2 samples")
    out = []
    for ch in range(9):
        out.extend(channel_statistics(segment.channels[:, ch]))
    return np.array(out, dtype=np.float64)


def resample_linear(series, n_samples: int) -> np.ndarray:
    """Linearly resample a series to a fixed length.

    Output sample i interpolates the series at source position
    ``i * (N - 1) / (S - 1)``, so both endpoints are preserved exactly and
    S = N is the identity.
    """
    x = np.asarray(series, dtype=np.float64)
    if n_samples < 2:
        raise ValidationError("need at least 2 output samples")
    if len(x) < 2:
        raise ValidationError("need at least 2 input samples")
    pos = np.arange(n_samples, dtype=np.float64) * (len(x) - 1) / (n_samples - 1)
    return np.interp(pos, np.arange(len(x), dtype=np.float64), x)


def sample_features(segment: ImuStream, n_samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """Resampled x, y and z acceleration, concatenated axis-major."""
    if len(segment) < 2:
        raise ValidationError("segment must have at least 2 samples")
    return np.concatenate([resample_linear(segment.acc[:, axis], n_samples)
                           for axis in range(3)])


def feature_vector(segment: ImuStream, n_samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """Full recognition feature row: statistics then samples."""
    return np.concatenate([statistical_features(segment),
                           sample_features(segment, n_samples)])


def featurize_segments(segments, n_samples: int = DEFAULT_SAMPLES) -> LabeledDataset:
    """Build a LabeledDataset from (segment, label) pairs."""
    segments = list(segments)
    if not segments:
        raise ValidationError("no segments to featurize")
    registry = FeatureRegistry.recognition(n_samples)
    X = np.vstack([feature_vector(seg, n_samples) for seg, _ in segments])
    labels = [label for _, label in segments]
    subjects = [seg.subject_id for seg, _ in segments]
    return LabeledDataset(X=X, labels=labels, subjects=subjects,
                          feature_names=list(registry.names))


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
        X = np.asarray(X, dtype=np.float64)
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std > 0.0, std, 1.0)
        return cls(mean=mean, std=std)


def standardize(train_X: np.ndarray, other_X: np.ndarray | None = None):
    """Fit a Scaler on the training rows and apply it to both matrices.

    Returns (scaler, scaled_train, scaled_other); ``scaled_other`` is None
    when no second matrix is given. Test rows never influence the fit.
    """
    train_X = np.asarray(train_X, dtype=np.float64)
    if train_X.ndim != 2 or train_X.shape[0] == 0:
        raise ValidationError("training matrix must be non-empty and 2-D")
    scaler = Scaler.fit(train_X)
    scaled_other = None if other_X is None else scaler.transform(other_X)
    return scaler, scaler.transform(train_X), scaled_other


def write_feature_csv(dataset: LabeledDataset, path) -> None:
    """Feature matrix CSV: registry names plus ``label,subject`` columns."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(list(dataset.feature_names) + ["label", "subject"]) + "\n")
        for i in range(len(dataset)):
            cells = [format_float(v) for v in dataset.X[i]]
            fh.write(",".join(cells + [dataset.labels[i], dataset.subjects[i]]) + "\n")


def read_feature_csv(path) -> LabeledDataset:
    lines = read_text(path).splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    if len(header) < 3 or header[-2:] != ["label", "subject"]:
        raise ParseError(f"{path}: feature CSV must end with label,subject columns")
    names = header[:-2]
    rows, labels, subjects = [], [], []
    for i, ln in enumerate(lines[1:]):
        if not ln.strip():
            continue
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ParseError(f"{path}: wrong cell count at line {i + 2}")
        try:
            rows.append([float(c) for c in cells[:-2]])
        except ValueError:
            raise ParseError(f"{path}: non-numeric cell at line {i + 2}") from None
        if not np.all(np.isfinite(rows[-1])):
            raise ParseError(f"{path}: non-finite value at line {i + 2}")
        labels.append(cells[-2].strip())
        subjects.append(cells[-1].strip())
    if not rows:
        raise ParseError(f"{path}: no feature rows")
    return LabeledDataset(X=np.array(rows), labels=labels, subjects=subjects,
                          feature_names=names)
