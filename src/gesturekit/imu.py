"""IMU data model: streams, gesture labels, datasets, CSV ingestion.

File formats
------------
Stream CSV  header: ``t,acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,mag_x,mag_y,mag_z``
            one row per sample, decimal point, UTF-8, LF or CRLF.
Label CSV   header: ``start,end,label,subject`` with half-open sample
            intervals ``[start, end)`` and labels from the 12-gesture
            dictionary or ``ADL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

# 12-gesture dictionary in canonical order; index = canonical rank.
GESTURES = ("Up", "Down", "Left", "Right", "CW", "CCW",
            "Z", "AZ", "S", "AS", "Push", "Pull")
ADL_LABEL = "ADL"

CHANNELS = ("acc_x", "acc_y", "acc_z",
            "gyro_x", "gyro_y", "gyro_z",
            "mag_x", "mag_y", "mag_z")

STREAM_HEADER = ("t",) + CHANNELS
LABEL_HEADER = ("start", "end", "label", "subject")


def canonical_class_order(labels) -> list[str]:
    """Sort class labels: gestures by dictionary rank, other labels after
    them lexicographically. This ordering is the tie-break authority for
    voting and majority rules everywhere in the package."""
    known = {g: i for i, g in enumerate(GESTURES)}
    return sorted(set(labels), key=lambda c: (0, known[c], "") if c in known else (1, 0, c))


@dataclass(frozen=True)
class ImuStream:
    """Immutable uniformly-sampled 9-channel sensor sequence.

    ``channels`` is an (N, 9) float array in CHANNELS order; ``t`` is the
    contiguous integer sample index. Channel triples are exposed as views.
    """
    subject_id: str
    t: np.ndarray
    channels: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.int64)
        ch = np.asarray(self.channels, dtype=np.float64)
        if ch.ndim != 2 or ch.shape[1] != 9:
            raise ValidationError(f"channels must be (N, 9), got {ch.shape}")
        if len(t) != len(ch):
            raise ValidationError("t and channels length mismatch")
        if len(t) == 0:
            raise ValidationError("empty stream")
        if not np.all(np.isfinite(ch)):
            raise ValidationError("non-finite channel value")
        if len(t) > 1 and not np.all(np.diff(t) == 1):
            raise ValidationError("sample index must be contiguous")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "channels", ch)
        t.setflags(write=False)
        ch.setflags(write=False)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def acc(self) -> np.ndarray:
        return self.channels[:, 0:3]

    @property
    def gyro(self) -> np.ndarray:
        return self.channels[:, 3:6]

    @property
    def mag(self) -> np.ndarray:
        return self.channels[:, 6:9]

    def channel(self, name: str) -> np.ndarray:
        """Single channel by name, e.g. ``acc_y``."""
        try:
            return self.channels[:, CHANNELS.index(name)]
        except ValueError:
            raise ValidationError(f"unknown channel {name!r}") from None


@dataclass(frozen=True)
class LabeledInterval:
    """Half-open sample interval [start, end) carrying a class label."""
    start: int
    end: int
    label: str
    subject_id: str

    def __post_init__(self):
        if self.start < 0 or self.start >= self.end:
            raise ValidationError(f"empty or negative interval [{self.start}, {self.end})")
        if self.label != ADL_LABEL and self.label not in GESTURES:
            raise ValidationError(f"unknown label {self.label!r}")

    def __len__(self) -> int:
        return self.end - self.start


@dataclass
class LabeledDataset:
    """Feature rows paired with class labels and subject ids."""
    X: np.ndarray
    labels: list[str]
    subjects: list[str]
    feature_names: list[str]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValidationError("X must be 2-D")
        if self.X.shape[1] != len(self.feature_names):
            raise ValidationError("column count does not match feature registry")
        if not (len(self.labels) == len(self.subjects) == self.X.shape[0]):
            raise ValidationError("row metadata length mismatch")
        if len(self.subjects) == 0:
            raise ValidationError("empty dataset")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def classes(self) -> list[str]:
        return canonical_class_order(self.labels)

    def subject_ids(self) -> list[str]:
        return sorted(set(self.subjects))

    def rows_for_subjects(self, subject_ids) -> np.ndarray:
        wanted = set(subject_ids)
        return np.array([s in wanted for s in self.subjects], dtype=bool)

    def take(self, rows=None, columns=None) -> "LabeledDataset":
        """A new dataset of the given rows and columns, in the given order.

        ``rows`` is a boolean mask or an index array (default: all rows);
        ``columns`` an index sequence (default: all columns). Labels,
        subjects and feature names follow the rows and columns they
        belong to.
        """
        X = self.X
        labels, subjects = list(self.labels), list(self.subjects)
        if rows is not None:
            rows = np.asarray(rows)
            if rows.dtype == bool:
                rows = np.flatnonzero(rows)
            X = X[rows]
            labels = [labels[i] for i in rows]
            subjects = [subjects[i] for i in rows]
        names = list(self.feature_names)
        if columns is not None:
            columns = list(columns)
            X = X[:, columns]
            names = [names[i] for i in columns]
        return LabeledDataset(X=X, labels=labels, subjects=subjects,
                              feature_names=names)


def format_float(x: float) -> str:
    """Shortest decimal that round-trips the float exactly."""
    return repr(float(x))


def read_text(path) -> str:
    """A UTF-8 text file's contents; bytes that do not decode raise
    ParseError naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None


def write_file(path, data: bytes | str) -> None:
    """Replace the file at ``path`` with ``data`` (text as UTF-8, as given):
    remove what is there, a symlink too, and create the file anew. Truncating
    in place instead stalls tens of ms a rewrite on ext4 mounted ``discard``."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    Path(path).unlink(missing_ok=True)
    with open(path, "xb") as fh:
        fh.write(data)


# stream rows converted per block. It bounds the cell strings alive at
# once; 2048 parsed no faster and raised a forest run's peak RSS by 1 MB.
_BLOCK_ROWS = 1024


def _convert_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """Sample indices and (len, 9) channels of stream CSV rows.

    Cells go through Python's ``int`` and ``float``. Raises ValueError
    for a row without exactly 10 cells or a cell those reject, and
    OverflowError for an index outside int64.
    """
    n = len(rows)
    if list(map(str.count, rows, repeat(","))).count(9) != n:
        raise ValueError("a row without 10 cells")
    cells = ",".join(rows).split(",")
    t = np.fromiter(map(int, cells[0::10]), dtype=np.int64, count=n)
    del cells[0::10]
    ch = np.fromiter(map(float, cells), dtype=np.float64, count=9 * n)
    return t, ch.reshape(n, 9)


def _row_error(row: str, lineno: int) -> str | None:
    """Why one stream row does not convert, or None if it does."""
    cells = row.split(",")
    if len(cells) != 10:
        return f"expected 10 cells at line {lineno}, got {len(cells)}"
    try:
        _convert_rows([row])
    except ValueError as exc:
        return f"non-numeric cell at line {lineno}: {exc}"
    except OverflowError:
        return f"sample index out of int64 range at line {lineno}"
    return None


def parse_imu_csv(path) -> ImuStream:
    """Parse a stream CSV into a validated ImuStream.

    The subject id is the file stem. Errors (bad header, wrong cell
    count, non-numeric cell, index out of int64 range, non-finite value,
    non-monotonic or gapped index) name the 1-based line in the file,
    blank lines included. The first bad row is reported, with the first
    of those problems it has.

    Rows are converted in blocks of ``_BLOCK_ROWS``; a block that fails
    is scanned row by row only to name the row.
    """
    path = Path(path)
    lines = read_text(path).splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = tuple(c.strip() for c in lines[0].split(","))
    if header != STREAM_HEADER:
        missing = set(STREAM_HEADER) - set(header)
        dupes = {c for c in header if list(header).count(c) > 1}
        if dupes:
            raise ParseError(f"{path}: duplicate columns {sorted(dupes)}")
        if missing:
            raise ParseError(f"{path}: missing columns {sorted(missing)}")
        raise ParseError(f"{path}: unexpected header {header}")
    rows = [ln for ln in lines[1:] if ln.strip()]
    if not rows:
        raise ParseError(f"{path}: empty stream")
    def lineno(row: int) -> int:
        # file line of a row: blank lines are skipped but still counted
        return [i for i, ln in enumerate(lines[1:], 2) if ln.strip()][row]
    n = len(rows)
    t = np.empty(n, dtype=np.int64)
    ch = np.empty((n, 9), dtype=np.float64)
    # (row, message) of the first row with each kind of problem, in
    # precedence order: conversion, non-finite, non-monotonic, gap
    problems = []
    for lo in range(0, n, _BLOCK_ROWS):
        block = rows[lo: lo + _BLOCK_ROWS]
        try:
            t[lo: lo + len(block)], ch[lo: lo + len(block)] = _convert_rows(block)
        except (ValueError, OverflowError):
            for j, row in enumerate(block):
                message = _row_error(row, lineno(lo + j))
                if message is not None:
                    break
            t[lo: lo + j], ch[lo: lo + j] = _convert_rows(block[:j])
            n = lo + j
            problems.append((n, message))
            break
    t, ch = t[:n], ch[:n]
    for bad, offset, what in (
            (~np.isfinite(ch).all(axis=1), 0, "non-finite value at line"),
            (t[1:] <= t[:-1], 1, "non-monotonic index at line"),
            (t[1:] != t[:-1] + 1, 1, "missing sample before line")):
        rows_hit = np.flatnonzero(bad)
        if len(rows_hit):
            row = int(rows_hit[0]) + offset
            problems.append((row, f"{what} {lineno(row)}"))
    if problems:
        # min keeps the first of equal rows, so the precedence order holds
        row, message = min(problems, key=lambda p: p[0])
        raise ParseError(f"{path}: {message}")
    return ImuStream(subject_id=path.stem, t=t, channels=ch)


def write_imu_csv(stream: ImuStream, path) -> None:
    """Serialize a stream; numeric content survives a parse round-trip."""
    write_file(path, ",".join(STREAM_HEADER) + "\n" + "".join(
        ",".join([str(int(t))] + [format_float(v) for v in row]) + "\n"
        for t, row in zip(stream.t, stream.channels)))


def parse_label_csv(path) -> list[LabeledInterval]:
    """Parse a label CSV into intervals sorted by start; overlaps are errors."""
    lines = read_text(path).splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = tuple(c.strip() for c in lines[0].split(","))
    if header != LABEL_HEADER:
        raise ParseError(f"{path}: unexpected header {header}, want {LABEL_HEADER}")
    intervals = []
    for i, ln in enumerate(lines[1:]):
        if not ln.strip():
            continue
        lineno = i + 2
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != 4:
            raise ParseError(f"{path}: expected 4 cells at line {lineno}")
        try:
            start, end = int(cells[0]), int(cells[1])
        except ValueError:
            raise ParseError(f"{path}: non-integer bound at line {lineno}") from None
        try:
            intervals.append(LabeledInterval(start, end, cells[2], cells[3]))
        except ValidationError as exc:
            raise ParseError(f"{path}: {exc} at line {lineno}") from None
    intervals.sort(key=lambda iv: iv.start)
    for a, b in zip(intervals, intervals[1:]):
        if b.start < a.end:
            raise ParseError(f"{path}: overlapping intervals "
                             f"[{a.start}, {a.end}) and [{b.start}, {b.end})")
    return intervals


def write_label_csv(intervals, path) -> None:
    write_file(path, ",".join(LABEL_HEADER) + "\n" + "".join(
        f"{iv.start},{iv.end},{iv.label},{iv.subject_id}\n" for iv in intervals))


def extract_segment(stream: ImuStream, interval: LabeledInterval) -> ImuStream:
    """Cut [start, end) out of a stream. The segment is re-originated to
    sample index 0 and keeps the subject id."""
    if interval.end > len(stream):
        raise ValidationError(
            f"interval [{interval.start}, {interval.end}) out of bounds "
            f"for stream of length {len(stream)}")
    n = interval.end - interval.start
    return ImuStream(subject_id=stream.subject_id,
                     t=np.arange(n, dtype=np.int64),
                     channels=stream.channels[interval.start:interval.end].copy())


def cut_segments(pairs) -> list[tuple[ImuStream, str]]:
    """``(segment, label)`` for every interval of ``(stream, intervals)``
    pairs, each cut by ``extract_segment``."""
    return [(extract_segment(stream, iv), iv.label)
            for stream, intervals in pairs for iv in intervals]
