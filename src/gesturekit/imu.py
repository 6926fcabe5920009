"""IMU data model: streams, gesture labels, datasets, CSV ingestion.

A stream is a subject id plus its channel rows, row i being sample i; a
segment is a read-only row view of the stream it is cut from.

File formats
------------
Stream CSV  header: ``t,acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,mag_x,mag_y,mag_z``
            one row per sample, decimal point, UTF-8, LF, CRLF or CR; ``t``
            counts up by one from any start, and is written from 0.
Label CSV   header: ``start,end,label,subject`` with half-open sample
            intervals ``[start, end)`` and labels from the 12-gesture
            dictionary or ``ADL``.

Every reader ends lines at ``"\n"``, ``"\r\n"`` or ``"\r"`` alone
(``_line_runs``), and every number the program reads, from a file or
the command line, is what ``np.loadtxt`` reads (``read_number``; README,
"File formats"). A stream CSV is read ``_READ_BYTES`` at a time and
converted in blocks of ``_BLOCK_ROWS`` rows, one ``np.loadtxt`` call
(``_records``) each, keeping only the channels the caller asks for, so
parsing a long stream for one series holds one column of it. A parse
that keeps fewer than nine channels converts only the index and the
kept cells, and checks each other cell as bytes: a plain cell
(``_CELL``) is one the grammar reads as a finite number, and a block
with any other cell is converted whole, so the grammar and every
message stay the same. A block that fails is converted again row by
row to name its first bad row. A label CSV converts its bounds through
``number_rows``.
"""

from __future__ import annotations

import codecs
import io
import re
import warnings
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
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
    return sorted(np.unique(labels).tolist(),
                  key=lambda c: (0, known[c], "") if c in known else (1, 0, c))


def class_indices(classes, labels) -> np.ndarray:
    """Positions of ``labels`` in ``classes``; an unknown label raises."""
    index = {c: i for i, c in enumerate(classes)}
    present, inverse = np.unique(labels, return_inverse=True)
    try:
        return np.array([index[c] for c in present.tolist()],
                        dtype=np.int64)[inverse]
    except KeyError as e:
        raise ValidationError(f"label {e} not in the class list") from None


def _channel_index(name: str) -> int:
    try:
        return CHANNELS.index(name)
    except ValueError:
        raise ValidationError(f"unknown channel {name!r}") from None


@dataclass(frozen=True)
class ImuStream:
    """One subject's uniformly sampled sequence of some of the 9 channels.

    ``channels`` is a read-only (N, len(names)) float array, one row per
    sample and one column per name of ``names``; the sample index is the
    row number. ``names`` defaults to all of CHANNELS, in order, which is
    what recognition needs; identification keeps only its series.
    """
    subject_id: str
    channels: np.ndarray
    names: tuple[str, ...] = CHANNELS

    def __post_init__(self):
        names = tuple(self.names)
        for name in names:
            _channel_index(name)
        if not names or len(set(names)) != len(names):
            raise ValidationError(f"channel names must be distinct and at "
                                  f"least one, got {names}")
        ch = np.asarray(self.channels, dtype=np.float64)
        if ch.ndim != 2 or ch.shape[1] != len(names):
            raise ValidationError(f"channels must be (N, {len(names)}), "
                                  f"got {ch.shape}")
        if len(ch) == 0:
            raise ValidationError("empty stream")
        if not np.all(np.isfinite(ch)):
            raise ValidationError("non-finite channel value")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "channels", ch)
        ch.setflags(write=False)

    def __len__(self) -> int:
        return len(self.channels)

    def channel(self, name: str) -> np.ndarray:
        """Single channel by name, e.g. ``acc_y``."""
        if name not in self.names:
            _channel_index(name)
            raise ValidationError(f"channel {name!r} is not kept in this "
                                  "stream")
        return self.channels[:, self.names.index(name)]


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
    """Feature rows paired with class labels and subject ids: ``labels``
    and ``subjects`` are 1-D str arrays, one entry per row of ``X``,
    converted here once so that no consumer converts them again."""
    X: np.ndarray
    labels: np.ndarray
    subjects: np.ndarray
    feature_names: list[str]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=str)
        self.subjects = np.asarray(self.subjects, dtype=str)
        if self.X.ndim != 2:
            raise ValidationError("X must be 2-D")
        if self.X.shape[1] != len(self.feature_names):
            raise ValidationError("column count does not match feature registry")
        if not (self.labels.shape == self.subjects.shape == self.X.shape[:1]):
            raise ValidationError("row metadata length mismatch")
        if len(self.subjects) == 0:
            raise ValidationError("empty dataset")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def classes(self) -> list[str]:
        return canonical_class_order(self.labels)

    def subject_ids(self) -> list[str]:
        return np.unique(self.subjects).tolist()

    def take(self, rows=None, columns=None) -> "LabeledDataset":
        """A new dataset of the given rows and columns, in the given order.

        ``rows`` is a boolean mask or an index array (default: all rows)
        for ``X``, labels and subjects alike; ``columns`` an index sequence
        (default: all columns). The result shares no array with this one.
        """
        if rows is None:
            rows = np.arange(len(self))
        X = self.X[rows]
        names = list(self.feature_names)
        if columns is not None:
            columns = list(columns)
            X = X[:, columns]
            names = [names[i] for i in columns]
        return LabeledDataset(X=X, labels=self.labels[rows],
                              subjects=self.subjects[rows],
                              feature_names=names)


def format_float(x: float) -> str:
    """Shortest decimal that round-trips the float exactly."""
    return repr(float(x))


def _not_utf8(path, exc: UnicodeDecodeError, start: int) -> ParseError:
    return ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                      f"{start})")


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, as ``_line_runs`` reads them."""
    with open(path, "rb") as fh:
        return [line for run in _line_runs(path, fh) for line in run]


def write_file(path, data: bytes | bytearray | str | Iterable[str]) -> None:
    """Replace the file at ``path`` with ``data``: bytes, text, or text
    chunks written one at a time (text as UTF-8, as given). Remove what is
    there, a symlink too, and create the file anew. Truncating in place
    instead stalls tens of ms a rewrite on ext4 mounted ``discard``."""
    if isinstance(data, (bytes, bytearray, str)):
        data = (data,)
    Path(path).unlink(missing_ok=True)
    with open(path, "xb") as fh:
        for chunk in data:
            fh.write(chunk.encode("utf-8") if isinstance(chunk, str)
                     else chunk)


# stream rows written or converted per block. It bounds the row strings
# and the converted rows alive at once.
_BLOCK_ROWS = 1024

# bytes of a text file read and decoded at a time
_READ_BYTES = 1 << 18


def loadtxt_or_none(rows, **kwargs) -> np.ndarray | None:
    """``np.loadtxt(rows, **kwargs)``, or None if it raises or warns.

    A warning counts as a failure: from numpy 1.23 until that deprecation
    expired, an integer cell such as ``2049.0`` parses with a
    DeprecationWarning, and no rows at all parse with a UserWarning.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = np.loadtxt(rows, **kwargs)
        except (ValueError, OverflowError):
            return None
    return None if caught else out


def read_number(cell: str, kind: type[int] | type[float]) -> int | float:
    """``cell`` as one int64 or float64, as ``np.loadtxt`` reads it: the
    number grammar of every input (README, "File formats"). A cell
    outside the grammar raises ValueError with the message Python's
    ``int`` or ``float`` gives for a literal it rejects, and an integer
    outside the int64 range raises OverflowError."""
    value = loadtxt_or_none([cell], delimiter=",", comments=None, ndmin=1,
                            dtype=np.int64 if kind is int else np.float64)
    if value is not None and value.shape == (1,):
        return value[0].item()
    if kind is float:
        raise ValueError(f"could not convert string to float: {cell!r}")
    if re.fullmatch("[+-]?[0-9]+", cell.strip()):
        raise OverflowError(f"{cell.strip()} is outside the int64 range")
    raise ValueError("invalid literal for int() with base 10: "
                     + repr(cell)[:200])


def number_rows(rows):
    """An iterator of the int64 values of each row of ``rows`` (lists of
    cells), read by ``read_number``'s grammar: all rows by one
    ``np.loadtxt`` call, or, if that call fails, a row at a time, so that
    a bad cell raises ValueError or OverflowError when its row is
    reached."""
    block = loadtxt_or_none([",".join(cells) for cells in rows],
                            dtype=np.int64, delimiter=",", comments=None,
                            ndmin=2)
    # loadtxt skips a line of whitespace, so the count is checked
    if block is not None and len(block) == len(rows):
        return iter(block.tolist())
    return ([read_number(cell, int) for cell in cells] for cells in rows)


# A cell a kept-subset parse need not convert: np.loadtxt reads an unkept
# cell as _CELL bytes, and the cell is plain if it is -?D+(.D+)?(e[+-]D{1,2})?
# with D an ASCII digit and leaves at least one NUL in its 24 bytes, so
# that a longer cell, which loadtxt cuts to 24, is not. np.loadtxt reads
# every plain cell as a finite float, and repr writes every sensor-range
# value as one. An automaton reads a cell two bytes at a time: _PAIR maps
# a "<u2" pair to 7 * class(first byte) + class(second byte), and _STEP
# maps a state times 49 plus a pair code to the next state times 49.
_CELL = np.dtype("S24")
# byte classes: digit 1, "." 2, "e" 3, "+" 4, "-" 5, NUL 6, any other 0
_CLASS = np.zeros(256, np.uint8)
_CLASS[list(b"0123456789.e+-\0")] = [1] * 10 + [2, 3, 4, 5, 6]
_PAIR = np.add.outer(_CLASS, 7 * _CLASS).ravel()
# each state's moves by byte class: start, sign, digits, point, fraction,
# "e", exponent sign, first and second exponent digit, NUL after a number;
# a missing move goes to the dead state 10
_MOVES = ({1: 2, 5: 1}, {1: 2}, {1: 2, 2: 3, 3: 5, 6: 9}, {1: 4},
          {1: 4, 3: 5, 6: 9}, {4: 6, 5: 6}, {1: 7}, {1: 8, 6: 9}, {6: 9},
          {6: 9}, {})
_STEP = np.array([49 * _MOVES[_MOVES[s].get(a, 10)].get(b, 10)
                  for s in range(11) for a in range(7) for b in range(7)],
                 np.uint16)


def _plain(cells) -> np.ndarray:
    """Whether each ``_CELL`` cell of ``cells`` is plain (see ``_CELL``)."""
    codes = _PAIR.take(cells.view("<u2").reshape(cells.shape + (12,)))
    state = np.zeros(cells.shape, np.uint16)
    for j in range(12):
        state += codes[..., j]
        _STEP.take(state, out=state, mode="clip")
    return state == 49 * 9


def _records(rows, keep) -> np.ndarray | None:
    """Stream CSV rows as records from one ``np.loadtxt`` call: the
    sample index ``t``, then each channel by name, a float if ``keep``
    holds its index, else ``_CELL`` bytes; None if the call fails or
    warns, or a byte cell is not plain."""
    other = [name for i, name in enumerate(CHANNELS) if i not in keep]
    # a _CELL drops the NULs that end a cell, so no row may hold a NUL
    if other and "\0" in "".join(rows):
        return None
    dtype = np.dtype([("t", np.int64)] + [
        (name, _CELL if name in other else np.float64) for name in CHANNELS])
    if not rows:
        return np.empty(0, dtype)
    records = loadtxt_or_none(rows, dtype=dtype, delimiter=",",
                              comments=None, ndmin=1)
    if records is not None and other and not _plain(
            np.stack([records[name] for name in other], axis=1)).all():
        return None
    return records


def _row_problem(row: str):
    """``(head, tail)`` of the message for a stream CSV row that
    ``_records`` rejects when it converts all nine channels: a cell count
    other than 10, else its first cell outside the grammar, in column
    order; such a call rejects a row for nothing else."""
    cells = row.split(",")
    if len(cells) != 10:
        return "expected 10 cells at line", f", got {len(cells)}"
    try:
        for cell, kind in zip(cells, [int] + [float] * 9):
            read_number(cell, kind)
    except OverflowError:
        return "sample index out of int64 range at line", ""
    except ValueError as exc:
        return "non-numeric cell at line", f": {exc}"


def _line_runs(path, fh):
    """The lines of the binary file ``fh``, decoded as UTF-8
    ``_READ_BYTES`` at a time, in runs: each read with a line end yields
    the lines it ends, and the text after the last line end comes last.
    Lines end at ``"\n"``, ``"\r\n"`` or ``"\r"``, and nowhere else.
    Bytes that do not decode raise ParseError naming the file and the
    byte. Reads with no line end are held, not joined, until one comes,
    so the work stays linear in the text however long its lines are.
    """
    # reads "\r\n" and "\r" as "\n", holding back a read's last "\r"
    # until it sees whether a "\n" follows
    decoder = io.IncrementalNewlineDecoder(
        codecs.getincrementaldecoder("utf-8")(), translate=True)
    done = 0        # bytes read before this read
    held = []       # the text since the last line end
    while True:
        data = fh.read(_READ_BYTES)
        # the decoder holds back the bytes of a character cut at the end
        cut = len(decoder.getstate()[0])
        try:
            text = decoder.decode(data, final=not data)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc, done - cut + exc.start) from None
        ended, newline, rest = text.rpartition("\n")
        if newline:
            held.append(ended)
            yield "".join(held).split("\n")
            held = []
        held.append(rest)
        if not data:
            break
        done += len(data)
    last = "".join(held)
    if last:
        yield [last]


def _check_header(path, line: str) -> None:
    header = tuple(c.strip() for c in line.split(","))
    if header != STREAM_HEADER:
        missing = set(STREAM_HEADER) - set(header)
        dupes = {c for c, k in Counter(header).items() if k > 1}
        if dupes:
            raise ParseError(f"{path}: duplicate columns {sorted(dupes)}")
        if missing:
            raise ParseError(f"{path}: missing columns {sorted(missing)}")
        raise ParseError(f"{path}: unexpected header {header}")


def _convert_block(rows, before, keep):
    """``(t, ch, problem)`` of one block of stream CSV rows: the sample
    indices and ``keep`` columns of its rows up to the first bad one,
    from one ``_records(rows, keep)`` call, or, if it fails, with all
    nine channels converted, a whole block and then row by row.

    ``problem`` is None, or ``(row, head, tail)`` for the block's first
    bad row, its message being ``head``, the row's file line, then
    ``tail``: a row that conversion rejects (see ``_row_problem``), then
    a non-finite value, an index not above the one before, then a gap.
    ``before`` is the previous block's last index, or None for the first
    block.
    """
    # (row, head, tail) of the first row with each kind of problem, in
    # precedence order
    problems = []
    records = _records(rows, keep)
    if records is None:
        nine = range(len(CHANNELS))
        records = _records(rows, nine)
        if records is None:
            bad = next(j for j, row in enumerate(rows)
                       if _records([row], nine) is None)
            problems.append((bad, *_row_problem(rows[bad])))
            records = _records(rows[:bad], nine)
    t = records["t"]
    # the converted channels; the byte cells are plain, so finite
    finite = np.logical_and.reduce(
        [np.isfinite(records[name]) for name in CHANNELS
         if records.dtype[name] != _CELL])
    ch = np.stack([records[CHANNELS[i]] for i in keep], axis=1)
    if before is None:
        steps, offset = t, 1
    else:
        steps, offset = np.concatenate(([before], t)), 0
    for bad, shift, head in (
            (~finite, 0, "non-finite value at line"),
            (steps[1:] <= steps[:-1], offset, "non-monotonic index at line"),
            (steps[1:] != steps[:-1] + 1, offset,
             "missing sample before line")):
        rows_hit = np.flatnonzero(bad)
        if len(rows_hit):
            problems.append((int(rows_hit[0]) + shift, head, ""))
    # min keeps the first of equal rows, so the precedence order holds
    return t, ch, min(problems, key=lambda p: p[0], default=None)


def _parse_rows(path, runs, keep) -> np.ndarray:
    """The ``keep`` columns of every row of a stream CSV given as line
    runs (see ``_line_runs``), after its header and every cell check."""
    header = None
    pending = []            # rows read but not yet converted
    converted = 0           # rows converted so far
    # per blank line, the count of rows before it
    blanks = []
    before = None           # the last converted row's index
    parts = []

    def convert(rows):
        nonlocal converted, before
        t, ch, problem = _convert_block(rows, before, keep)
        if problem is not None:
            row, head, tail = problem
            row += converted
            # file line of the row: blank lines are skipped but counted
            line = row + 2 + bisect_right(blanks, row)
            raise ParseError(f"{path}: {head} {line}{tail}")
        parts.append(ch)
        converted += len(rows)
        before = t[-1]

    for lines in runs:
        if header is None:
            _check_header(path, lines[0])
            header, lines = lines[0], lines[1:]
        rows = [ln for ln in lines if ln.strip()]
        if len(rows) != len(lines):
            seen = converted + len(pending)
            for ln in lines:
                if ln.strip():
                    seen += 1
                else:
                    blanks.append(seen)
        pending += rows
        while len(pending) >= _BLOCK_ROWS:
            convert(pending[:_BLOCK_ROWS])
            del pending[:_BLOCK_ROWS]
    if header is None:
        raise ParseError(f"{path}: empty file")
    if pending:
        convert(pending)
    if not parts:
        raise ParseError(f"{path}: empty stream")
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def parse_imu_csv(path, channels=CHANNELS) -> ImuStream:
    """Parse a stream CSV into a validated ImuStream of ``channels``.

    The subject id is the file stem. Errors (bad header, wrong cell
    count, non-numeric cell, index out of int64 range, non-finite value,
    non-monotonic or gapped index) name the 1-based line in the file,
    blank lines included. The first bad row is reported, with the first
    of those problems it has, and a byte that does not decode as UTF-8
    anywhere in the file is reported before any of them. Every cell of
    every row is checked, whatever ``channels`` keeps, and only the
    columns of ``channels`` are held: see the module docstring, and
    README's "File formats" for the grammar.
    """
    path = Path(path)
    channels = tuple(channels)
    keep = [_channel_index(name) for name in channels]
    with open(path, "rb") as fh:
        runs = _line_runs(path, fh)
        try:
            return ImuStream(path.stem, _parse_rows(path, runs, keep),
                             channels)
        except ParseError:
            # the rest of the file is still decoded, so that a byte that
            # does not decode wins, as when the whole text was read first
            for _ in runs:
                pass
            raise


def write_imu_csv(stream: ImuStream, path) -> None:
    """Serialize a stream of all nine channels indexed from 0,
    ``_BLOCK_ROWS`` rows at a time; values survive a parse round-trip."""
    if stream.names != CHANNELS:
        raise ValidationError(f"a stream CSV holds all of {CHANNELS}, "
                              f"got {stream.names}")
    def blocks():
        yield ",".join(STREAM_HEADER) + "\n"
        for lo in range(0, len(stream), _BLOCK_ROWS):
            yield "".join(
                f"{i},{','.join(map(repr, row))}\n"
                for i, row in enumerate(
                    stream.channels[lo: lo + _BLOCK_ROWS].tolist(), lo))
    write_file(path, blocks())


def parse_label_csv(path) -> list[LabeledInterval]:
    """Parse a label CSV into intervals sorted by start; overlaps are errors.
    All bounds are read in the number grammar by ``number_rows``."""
    lines = read_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = tuple(c.strip() for c in lines[0].split(","))
    if header != LABEL_HEADER:
        raise ParseError(f"{path}: unexpected header {header}, want {LABEL_HEADER}")
    rows = [(lineno, [c.strip() for c in ln.split(",")])
            for lineno, ln in enumerate(lines[1:], start=2) if ln.strip()]
    bounds = number_rows([cells[:2] for _, cells in rows])
    intervals = []
    for lineno, cells in rows:
        if len(cells) != 4:
            raise ParseError(f"{path}: expected 4 cells at line {lineno}")
        try:
            start, end = next(bounds)
        except (ValueError, OverflowError):
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
    """Rows [start, end) of a stream as a segment with the same subject id:
    a read-only view that shares the stream's memory."""
    if interval.end > len(stream):
        raise ValidationError(
            f"interval [{interval.start}, {interval.end}) out of bounds "
            f"for stream of length {len(stream)}")
    return ImuStream(stream.subject_id,
                     stream.channels[interval.start:interval.end],
                     stream.names)


def cut_segments(pairs) -> list[tuple[ImuStream, str]]:
    """``(segment, label)`` for every interval of ``(stream, intervals)``
    pairs, each cut by ``extract_segment``."""
    return [(extract_segment(stream, iv), iv.label)
            for stream, intervals in pairs for iv in intervals]
