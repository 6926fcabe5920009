import ast
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gesturekit
from gesturekit import imu
from gesturekit.cli import dispatch
from gesturekit.errors import ParseError, ValidationError
from gesturekit.imu import (_BLOCK_ROWS, ADL_LABEL, CHANNELS, GESTURES,
                            ImuStream, LabeledDataset, LabeledInterval,
                            canonical_class_order, extract_segment,
                            parse_imu_csv, parse_label_csv, write_file,
                            write_imu_csv, write_label_csv)
from oracles import loop_parse_imu_csv, loop_take


def make_stream(n=40, subject="s01", seed=0):
    rng = np.random.default_rng(seed)
    return ImuStream(subject_id=subject,
                     channels=rng.normal(size=(n, 9)))


def test_gesture_dictionary():
    assert len(GESTURES) == 12
    assert len(set(GESTURES)) == 12
    assert ADL_LABEL not in GESTURES
    assert len(CHANNELS) == 9


def test_canonical_order_gestures_first():
    order = canonical_class_order(["Down", ADL_LABEL, "Up", "zzz"])
    assert order == ["Up", "Down", ADL_LABEL, "zzz"]


def test_channel_views():
    s = make_stream()
    assert np.array_equal(s.channel("acc_y"), s.channels[:, 1])
    with pytest.raises(ValidationError):
        s.channel("acc_w")


def test_imu_csv_roundtrip(tmp_path):
    s = make_stream(25)
    p = tmp_path / "s.csv"
    write_imu_csv(s, p)
    back = parse_imu_csv(p)
    assert back.subject_id == "s"          # default: file stem
    assert np.array_equal(back.channels, s.channels)


def test_imu_csv_rejects_gaps(tmp_path):
    s = make_stream(10)
    p = tmp_path / "s.csv"
    write_imu_csv(s, p)
    lines = p.read_text().splitlines()
    del lines[5]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="missing sample"):
        parse_imu_csv(p)


def test_imu_csv_rejects_bad_cells(tmp_path):
    p = tmp_path / "s.csv"
    header = "t," + ",".join(CHANNELS)
    p.write_text(header + "\n0,1,2,3,4,5,6,7,8,oops\n")
    with pytest.raises(ParseError, match="non-numeric"):
        parse_imu_csv(p)
    p.write_text("t,a,b\n")
    with pytest.raises(ParseError):
        parse_imu_csv(p)


BIG_ROWS = 5500      # several write blocks, the last one partial


@pytest.fixture(scope="module")
def big_stream(tmp_path_factory):
    """A valid multi-block stream: (its parsed stream, its CSV lines)."""
    # BAD_STREAMS's rows 2048 and 4096 start blocks of the writer and of
    # the block-loop oracle, and more follow
    assert 2048 % _BLOCK_ROWS == 0 and BIG_ROWS > 4096 + _BLOCK_ROWS
    path = tmp_path_factory.mktemp("big") / "s.csv"
    stream = make_stream(BIG_ROWS, seed=4)
    write_imu_csv(stream, path)
    return stream, path.read_text().splitlines()


def set_cell(line, col, value):
    cells = line.split(",")
    cells[col] = value
    return ",".join(cells)


def drop_last_cell(line):
    return line[:line.rindex(",")]


# ({data row: edit}, expected message, or None if the edited stream
# parses); data row k is file line k + 2 unless an edit adds blank lines,
# and rows 2047/2048 and 4095/4096 straddle block boundaries
BAD_STREAMS = {
    "nine-cells-at-boundary": (
        {2048: drop_last_cell},
        "expected 10 cells at line 2050, got 9"),
    "eleven-cells": (
        {3001: lambda ln: ln + ",1"},
        "expected 10 cells at line 3003, got 11"),
    "nine-then-eleven-across-blocks": (
        {2047: drop_last_cell, 2048: lambda ln: ln + ",1"},
        "expected 10 cells at line 2049, got 9"),
    "nine-then-eleven-in-block": (
        {3000: drop_last_cell, 3001: lambda ln: ln + ",1"},
        "expected 10 cells at line 3002, got 9"),
    "non-numeric-channel": (
        {4096: lambda ln: set_cell(ln, 4, "oops")},
        "non-numeric cell at line 4098: "
        "could not convert string to float: 'oops'"),
    "non-numeric-index": (
        {2049: lambda ln: set_cell(ln, 0, "2049.0")},
        "non-numeric cell at line 2051: "
        "invalid literal for int() with base 10: '2049.0'"),
    # the grammar strips a "\x1f" around a cell as whitespace, as
    # np.loadtxt does, though Python's float() and int() reject it
    "unit-separator-after-channel": (
        {1500: lambda ln: ln + "\x1f"}, None),
    "unit-separator-after-index": (
        {3000: lambda ln: set_cell(ln, 0, "3000\x1f")}, None),
    # the right index written as a float, the stream's only defect: from
    # numpy 1.23 until that deprecation expired, loadtxt parses it with a
    # DeprecationWarning
    "float-index-in-first-row": (
        {0: lambda ln: set_cell(ln, 0, "0.0")},
        "non-numeric cell at line 2: "
        "invalid literal for int() with base 10: '0.0'"),
    "index-beyond-int64": (
        {2048: lambda ln: set_cell(ln, 0, "99999999999999999999")},
        "sample index out of int64 range at line 2050"),
    "nan": (
        {2048: lambda ln: set_cell(ln, 9, "nan")},
        "non-finite value at line 2050"),
    "1e999": (
        {4095: lambda ln: set_cell(ln, 1, "1e999")},
        "non-finite value at line 4097"),
    "non-monotonic": (
        {2048: lambda ln: set_cell(ln, 0, "2047")},
        "non-monotonic index at line 2050"),
    "gap": (
        {4096: lambda ln: set_cell(ln, 0, "4097")},
        "missing sample before line 4098"),
    # one line, several problems: the first in the order above wins
    "cells-before-non-numeric": (
        {2500: lambda ln: drop_last_cell(set_cell(ln, 2, "x"))},
        "expected 10 cells at line 2502, got 9"),
    "non-numeric-before-non-finite": (
        {2500: lambda ln: set_cell(set_cell(ln, 2, "inf"), 3, "x")},
        "non-numeric cell at line 2502: "
        "could not convert string to float: 'x'"),
    "non-finite-before-non-monotonic": (
        {2500: lambda ln: set_cell(set_cell(ln, 0, "7"), 5, "-inf")},
        "non-finite value at line 2502"),
    # an earlier line wins over an earlier problem kind in a later block
    "non-finite-before-later-cell-count": (
        {2100: lambda ln: set_cell(ln, 1, "nan"),
         4500: drop_last_cell},
        "non-finite value at line 2102"),
    "gap-before-later-non-numeric": (
        {3000: lambda ln: set_cell(ln, 0, "3001"),
         3001: lambda ln: set_cell(ln, 1, "?")},
        "missing sample before line 3002"),
    "cell-count-before-later-non-finite": (
        {2047: drop_last_cell, 2048: lambda ln: set_cell(ln, 1, "nan")},
        "expected 10 cells at line 2049, got 9"),
    # blank lines still count: file lines 3-4 are blank, so data row 2
    # is file line 6
    "non-numeric-after-blank-lines": (
        {1: lambda ln: "\n\n" + ln, 2: lambda ln: set_cell(ln, 9, "oops")},
        "non-numeric cell at line 6: "
        "could not convert string to float: 'oops'"),
    "gap-after-blank-line": (
        {3000: lambda ln: "  \n" + ln,
         4096: lambda ln: set_cell(ln, 0, "4097")},
        "missing sample before line 4099"),
}


def parse_outcome(parse, path):
    """``(subject, channel bytes)`` of a parse, or its ParseError text."""
    try:
        parsed = parse(path)
    except ParseError as exc:
        return str(exc)
    if isinstance(parsed, ImuStream):
        parsed = parsed.subject_id, parsed.channels
    return parsed[0], parsed[1].tobytes()


def edited_outcome(big_stream, path, case):
    """``BAD_STREAMS[case]``'s edits written to ``path``, and the outcome
    ``parse_outcome`` must give: its error, or the unedited channels."""
    edits, message = BAD_STREAMS[case]
    lines = list(big_stream[1])
    for row, edit in edits.items():
        lines[row + 1] = edit(lines[row + 1])
    path.write_text("\n".join(lines) + "\n")
    if message is None:
        return "s", big_stream[0].channels.tobytes()
    return f"{path}: {message}"


@pytest.mark.parametrize("case", sorted(BAD_STREAMS))
def test_big_stream_errors_name_first_bad_line(big_stream, tmp_path, case):
    want = edited_outcome(big_stream, tmp_path / "s.csv", case)
    assert parse_outcome(parse_imu_csv, tmp_path / "s.csv") == want


def test_big_stream_crlf_and_blank_lines(big_stream, tmp_path):
    stream, lines = big_stream
    spaced = list(lines)
    for k in (4096, 2048, 2047, 10):      # blank lines around block edges
        spaced.insert(k, "  " if k % 2 else "")
    p = tmp_path / "s.csv"
    p.write_bytes(("\r\n".join(spaced) + "\r\n").encode())
    back = parse_imu_csv(p)
    assert np.array_equal(back.channels, stream.channels)


def test_kept_subset_parse_never_converts_a_written_block_whole(
        big_stream, tmp_path, monkeypatch):
    """Every block of a written stream parsed for fewer than nine channels
    takes the kept-subset path: a ``_records`` call converting all nine
    channels raises here."""
    stream, lines = big_stream
    p = tmp_path / "s.csv"
    p.write_text("\n".join(lines) + "\n")
    records = imu._records

    def subset_only(rows, keep):
        assert len(set(keep)) < len(CHANNELS), "a block was converted whole"
        return records(rows, keep)
    monkeypatch.setattr(imu, "_records", subset_only)
    for names in (("acc_y",), ("gyro_z", "acc_x")):
        kept = [CHANNELS.index(c) for c in names]
        assert parse_imu_csv(p, names).channels.tobytes() == \
            stream.channels[:, kept].tobytes()


# (rows per block, bytes per read): each row a block of its own, so every
# BAD_STREAMS edit is on a block's first row; or reads shorter than a
# row, so every line spans two reads, in blocks that rows 2048 and 4096
# open
SMALL_SIZES = [(1, 4099), (8, 173)]


@pytest.fixture(params=SMALL_SIZES,
                ids=[f"rows{r}-bytes{b}" for r, b in SMALL_SIZES])
def small_blocks(request, monkeypatch):
    monkeypatch.setattr(imu, "_BLOCK_ROWS", request.param[0])
    monkeypatch.setattr(imu, "_READ_BYTES", request.param[1])


@pytest.mark.parametrize("case", sorted(BAD_STREAMS))
def test_small_blocks_match_block_loop(big_stream, tmp_path, small_blocks,
                                       case):
    p = tmp_path / "s.csv"
    want = edited_outcome(big_stream, p, case)
    assert parse_outcome(parse_imu_csv, p) == \
        parse_outcome(loop_parse_imu_csv, p) == want


def test_small_blocks_crlf_and_blank_lines(big_stream, tmp_path,
                                           small_blocks):
    stream, lines = big_stream
    spaced = list(lines)
    for k in (4097, 4096, 2048, 2047, 10):
        spaced.insert(k, "  " if k % 2 else "")
    p = tmp_path / "s.csv"
    p.write_bytes(("\r\n".join(spaced) + "\r\n").encode())
    assert parse_outcome(parse_imu_csv, p) == \
        parse_outcome(loop_parse_imu_csv, p) == \
        ("s", stream.channels.tobytes())


# a lone "\r" ends a line; NEL and U+2028, which str.splitlines also
# splits at, do not, so the rows they join are one line of 49 501 cells
@pytest.mark.parametrize("sep", ["\r", "\x85", "\u2028"],
                         ids=["cr", "nel", "line-separator"])
def test_small_blocks_other_line_ends(big_stream, tmp_path, small_blocks,
                                      sep):
    stream, lines = big_stream
    spaced = list(lines[1:])
    for k in (4096, 4095, 2047, 2046, 9):
        spaced.insert(k, "" if k % 2 else "  ")
    p = tmp_path / "s.csv"
    p.write_bytes((lines[0] + "\n" + sep.join(spaced) + sep).encode())
    want = ("s", stream.channels.tobytes()) if sep == "\r" else \
        f"{p}: expected 10 cells at line 2, got {9 * BIG_ROWS + 1}"
    assert parse_outcome(parse_imu_csv, p) == \
        parse_outcome(loop_parse_imu_csv, p) == want


@pytest.mark.parametrize("column", [0, 9], ids=["index", "channel"])
def test_long_bad_cell_message_is_pythons(tmp_path, column):
    # Python's int cuts the repr in its message at 200 characters; float
    # does not
    cell = "7" * 150 + "x" * 150
    try:
        (int if column == 0 else float)(cell)
    except ValueError as exc:
        python_message = str(exc)
    p = tmp_path / "s.csv"
    p.write_text("t," + ",".join(CHANNELS) + "\n"
                 + set_cell("0,1,1,1,1,1,1,1,1,1", column, cell) + "\n")
    assert parse_outcome(parse_imu_csv, p) == \
        parse_outcome(loop_parse_imu_csv, p) == \
        f"{p}: non-numeric cell at line 2: {python_message}"


def test_header_of_a_whole_stream_is_checked_in_linear_time(big_stream,
                                                           tmp_path):
    # with no line end the header line is the whole file, 49 510 cells;
    # looking for duplicate columns once per cell took minutes
    p = tmp_path / "s.csv"
    p.write_text("\x85".join(big_stream[1]))
    with pytest.raises(ParseError, match=r"missing columns \['mag_z'\]$"):
        parse_imu_csv(p)


SMALL_ROWS = [f"{i},0.5,-1.25,{i}e-3,2,3,4,5,6,7" for i in range(7)]


def small_csv(rows=SMALL_ROWS, sep="\n") -> bytes:
    """A stream CSV of ``rows``; a lone surrogate ``"\\udcXX"`` writes
    the byte XX, which is not UTF-8."""
    return sep.join(["t," + ",".join(CHANNELS), *rows, ""]).encode(
        "utf-8", "surrogateescape")


def with_rows(**edits) -> list[str]:
    """SMALL_ROWS with row ``r<k>`` replaced by the given text."""
    return [edits.get(f"r{k}", row) for k, row in enumerate(SMALL_ROWS)]


# (file bytes, the bytes before the read boundary the case is about,
# and the parse's ParseError message, or None if it parses)
READ_CASES = {
    "crlf-across-reads": (
        small_csv(sep="\r\n"), b"\r\n2,", None),
    "multibyte-across-reads": (
        small_csv(with_rows(r3="3,\xa01,\u30001.5,1,1,1,1,1,1,1")),
        b"3,\xc2", None),
    "three-byte-character-across-reads": (
        small_csv(with_rows(r3="3,\xa01,\u30001.5,1,1,1,1,1,1,1")),
        b"\xe3\x80", None),
    "blank-lines-across-reads": (
        small_csv(with_rows(r2="\r\n  \r\n2,1,1,1,1,1,1,1,1,1"),
                  sep="\r\n"), b"\r\n  \r", None),
    "bad-cell-after-blank-lines": (
        small_csv(with_rows(r2="\n\n2,1,1,1,1,1,1,1,1,1",
                            r4="4,1,1,1,1,1,1,1,1,x")), b"\n\n",
        "non-numeric cell at line 8: could not convert string to float: "
        "'x'"),
    "gap-on-block-first-row": (
        small_csv(with_rows(r4="5,1,1,1,1,1,1,1,1,1")), b"\n5",
        "missing sample before line 6"),
    "non-monotonic-on-block-first-row": (
        small_csv(with_rows(r4="3,1,1,1,1,1,1,1,1,1")), b"\n3,1",
        "non-monotonic index at line 6"),
    # the whole file is decoded before a bad row is reported
    "decode-error-after-bad-row": (
        small_csv(with_rows(r1="1,oops,1,1,1,1,1,1,1,1",
                            r6="6,1,1,1,1,1,1,1,1,\udcff")), b"1,oops",
        "not UTF-8 text (invalid start byte at byte 245)"),
    "character-cut-at-end": (
        small_csv() + b"\xe3\x80", b"\xe3", None),
    "cr-only-across-reads": (
        small_csv(sep="\r"), b"\r2,", None),
    "cr-blank-lines-across-reads": (
        small_csv(with_rows(r2="\r\r2,1,1,1,1,1,1,1,1,1"), sep="\r"),
        b"\r\r", None),
    "bad-cell-after-cr-blank-lines": (
        small_csv(with_rows(r2="\r\r2,1,1,1,1,1,1,1,1,1",
                            r4="4,1,1,1,1,1,1,1,1,x"), sep="\r"),
        b"\r\r\r",
        "non-numeric cell at line 8: could not convert string to float: "
        "'x'"),
    # NEL and U+2028 end no line, so the seven rows are one line
    "nel-across-reads": (
        small_csv(["\x85".join(SMALL_ROWS)]), b"\xc2",
        "expected 10 cells at line 2, got 64"),
    "line-separator-across-reads": (
        small_csv(["\u2028".join(SMALL_ROWS)]), b"\xe2\x80\xa8",
        "expected 10 cells at line 2, got 64"),
}


@pytest.mark.parametrize("case", sorted(READ_CASES))
@pytest.mark.parametrize("block_rows", [1, 2, 4, 1024])
def test_read_boundaries_match_block_loop(tmp_path, monkeypatch, case,
                                          block_rows):
    data, before, message = READ_CASES[case]
    p = tmp_path / "s.csv"
    p.write_bytes(data)
    want = parse_outcome(loop_parse_imu_csv, p)
    if message is not None:
        assert want == f"{p}: {message}"
    monkeypatch.setattr(imu, "_BLOCK_ROWS", block_rows)
    # a read ends just after ``before``, then reads of 1 to 7 bytes put a
    # boundary everywhere
    split = data.index(before) + len(before)
    for size in (split, 1, 2, 3, 7, 1 << 18):
        monkeypatch.setattr(imu, "_READ_BYTES", size)
        assert parse_outcome(parse_imu_csv, p) == want


def test_kept_channels_and_every_cell_checked(big_stream, tmp_path):
    stream, lines = big_stream
    p = tmp_path / "s.csv"
    p.write_text("\n".join(lines) + "\n")
    back = parse_imu_csv(p, ("gyro_z", "acc_x"))
    assert back.names == ("gyro_z", "acc_x")
    assert back.channels.tobytes() == stream.channels[:, [5, 0]].tobytes()
    assert np.array_equal(back.channel("acc_x"), stream.channels[:, 0])
    with pytest.raises(ValidationError, match="'acc_y' is not kept"):
        back.channel("acc_y")
    with pytest.raises(ValidationError, match="unknown channel 'acc_w'"):
        parse_imu_csv(p, ("acc_w",))
    # a channel that is not kept is still checked
    lines = list(lines)
    lines[3001] = set_cell(lines[3001], 9, "oops")
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="non-numeric cell at line 3002"):
        parse_imu_csv(p, ("acc_y",))


def test_stream_names_validated():
    with pytest.raises(ValidationError, match=r"\(N, 2\)"):
        ImuStream("s", np.zeros((3, 9)), ("acc_x", "acc_y"))
    with pytest.raises(ValidationError, match="distinct"):
        ImuStream("s", np.zeros((3, 2)), ("acc_x", "acc_x"))
    with pytest.raises(ValidationError, match="unknown channel"):
        ImuStream("s", np.zeros((3, 1)), ("acc_w",))


@pytest.mark.parametrize("sep", ["\n", "\r"], ids=["lf", "cr"])
def test_one_kept_column_parses_in_flat_memory(tmp_path, sep):
    """Parsing one column of a stream ten times as long takes at most
    1 MB more memory at its peak, whatever ends its lines: the text is
    read and converted in bounded pieces, and nine of ten channels are
    dropped per block."""
    peaks = []
    for n in (4000, 40000):
        p = tmp_path / f"s{n}.csv"
        write_imu_csv(make_stream(n, seed=n), p)
        p.write_bytes(p.read_bytes().replace(b"\n", sep.encode()))
        tracemalloc.start()
        try:
            stream = parse_imu_csv(p, ("acc_y",))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(stream) == n
    assert peaks[1] - peaks[0] <= 1 << 20, peaks


def test_one_row_stream(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("t," + ",".join(CHANNELS) + "\n7," +
                 ",".join(map(str, range(9))) + "\n")
    back = parse_imu_csv(p)
    assert back.channels.shape == (1, 9)
    assert back.channels.tolist() == [list(map(float, range(9)))]


def test_interval_validation():
    with pytest.raises(ValidationError):
        LabeledInterval(5, 5, "Up", "s01")
    with pytest.raises(ValidationError):
        LabeledInterval(0, 5, "NotAGesture", "s01")
    iv = LabeledInterval(3, 10, "Up", "s01")
    assert len(iv) == 7


def test_label_csv_roundtrip(tmp_path):
    ivs = [LabeledInterval(0, 10, "Up", "s01"),
           LabeledInterval(20, 35, ADL_LABEL, "s01")]
    p = tmp_path / "l.csv"
    write_label_csv(ivs, p)
    assert parse_label_csv(p) == ivs


def test_label_csv_rejects_overlap(tmp_path):
    p = tmp_path / "l.csv"
    write_label_csv([LabeledInterval(0, 10, "Up", "s"),
                     LabeledInterval(5, 15, "Down", "s")], p)
    with pytest.raises(ParseError, match="overlap"):
        parse_label_csv(p)


def test_extract_segment_reoriginates():
    s = make_stream(50)
    seg = extract_segment(s, LabeledInterval(10, 30, "Up", "s01"))
    assert len(seg) == 20
    assert np.array_equal(seg.channels, s.channels[10:30])
    # a read-only row view of the stream, not a copy
    assert seg.subject_id == s.subject_id
    assert np.shares_memory(seg.channels, s.channels)
    with pytest.raises(ValueError, match="read-only"):
        seg.channels[0, 0] = 1.0
    with pytest.raises(ValidationError):
        extract_segment(s, LabeledInterval(40, 60, "Up", "s01"))


def test_extract_segment_keeps_the_streams_channels():
    s = make_stream(50)
    kept = ImuStream(s.subject_id, s.channels[:, [5]], ("gyro_z",))
    seg = extract_segment(kept, LabeledInterval(10, 30, "Up", "s01"))
    assert seg.names == ("gyro_z",)
    assert np.array_equal(seg.channel("gyro_z"), s.channels[10:30, 5])


def test_stream_is_its_subject_and_channels():
    assert [f.name for f in fields(ImuStream)] == ["subject_id", "channels",
                                                   "names"]
    assert make_stream().names == CHANNELS
    with pytest.raises(ValueError, match="read-only"):
        make_stream().channels[0, 0] = 1.0


def test_write_imu_csv_numbers_rows_from_zero(tmp_path):
    # a parsed index that starts above 0 is checked, dropped, and written
    # back from 0
    p = tmp_path / "s.csv"
    p.write_text("t," + ",".join(CHANNELS) + "\n" + "".join(
        f"{t},{','.join(['0.5'] * 9)}\n" for t in range(5, 9)))
    out = tmp_path / "back.csv"
    write_imu_csv(parse_imu_csv(p), out)
    lines = out.read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines] == ["t", "0", "1", "2", "3"]
    assert [ln.split(",", 1)[1] for ln in lines[1:]] == \
        [",".join(["0.5"] * 9)] * 4


def test_write_imu_csv_needs_all_nine_channels(tmp_path):
    kept = ImuStream("s", make_stream(5).channels[:, [1]], ("acc_y",))
    p = tmp_path / "s.csv"
    with pytest.raises(ValidationError, match="holds all of"):
        write_imu_csv(kept, p)
    assert not p.exists()


def test_dataset_validation():
    with pytest.raises(ValidationError):
        LabeledDataset(X=np.zeros((2, 3)), labels=["a"], subjects=["s", "s"],
                       feature_names=["f1", "f2", "f3"])
    ds = LabeledDataset(X=np.zeros((3, 2)), labels=["b", "a", "b"],
                        subjects=["s2", "s1", "s2"],
                        feature_names=["f1", "f2"])
    assert ds.classes == ["a", "b"]
    assert ds.subject_ids() == ["s1", "s2"]
    # plain str, so model files and reports print them as text
    assert {type(v) for v in ds.classes + ds.subject_ids()} == {str}
    assert ds.labels.ndim == ds.subjects.ndim == 1
    assert ds.labels.dtype.kind == ds.subjects.dtype.kind == "U"
    assert list(ds.subjects == "s2") == [True, False, True]


def small_dataset():
    return LabeledDataset(X=np.arange(12.0).reshape(4, 3),
                          labels=["a", "b", "c", "d"],
                          subjects=["s1", "s2", "s1", "s2"],
                          feature_names=["f0", "f1", "f2"])


def test_take_mask_matches_boolean_indexing():
    ds = small_dataset()
    mask = ds.subjects == "s2"
    part = ds.take(mask)
    assert np.array_equal(part.X, ds.X[mask])
    assert part.labels.tolist() == ["b", "d"]
    assert part.subjects.tolist() == ["s2", "s2"]
    assert part.feature_names == ds.feature_names


def test_take_keeps_index_order_and_repeats():
    ds = small_dataset()
    part = ds.take(np.array([3, 0, 3]))
    assert np.array_equal(part.X, ds.X[[3, 0, 3]])
    assert part.labels.tolist() == ["d", "a", "d"]
    assert part.subjects.tolist() == ["s2", "s1", "s2"]


@pytest.mark.parametrize("seed", range(4))
def test_take_matches_list_oracle(seed):
    # boolean masks and index arrays with repeats, over labels of
    # different widths
    rng = np.random.default_rng(seed)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        ds = LabeledDataset(X=rng.normal(size=(n, 3)),
                            labels=rng.choice(["Up", "Push", "gesture"], n),
                            subjects=rng.choice(["s01", "s02", "s10"], n),
                            feature_names=["f0", "f1", "f2"])
        mask = rng.random(n) < 0.5
        mask[rng.integers(n)] = True
        index = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))
        for rows in (mask, index):
            part = ds.take(rows)
            X, labels, subjects = loop_take(ds.X, ds.labels.tolist(),
                                            ds.subjects.tolist(), rows)
            assert part.X.tobytes() == X.tobytes()
            assert part.labels.tolist() == labels
            assert part.subjects.tolist() == subjects


def test_take_columns():
    ds = small_dataset()
    part = ds.take([1, 2], columns=[2, 0])
    assert np.array_equal(part.X, ds.X[[1, 2]][:, [2, 0]])
    assert part.feature_names == ["f2", "f0"]
    assert part.labels.tolist() == ["b", "c"]
    whole = ds.take(columns=[1])
    assert np.array_equal(whole.X, ds.X[:, [1]])
    assert whole.labels.tolist() == ds.labels.tolist()
    assert whole.feature_names == ["f1"]
    # the slice owns its metadata
    whole.labels[0] = "e"
    assert ds.labels.tolist() == ["a", "b", "c", "d"]


def test_write_file_replaces_longer_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"x" * 100 + b"\r\n")
    write_file(path, "\u00e9,b\n")
    assert path.read_bytes() == b"\xc3\xa9,b\n"
    write_file(path, b"\x00\xff")
    assert path.read_bytes() == b"\x00\xff"
    write_file(path, (chunk for chunk in ["a,", "\u00e9\n", ""]))
    assert path.read_bytes() == b"a,\xc3\xa9\n"


def test_write_file_replaces_symlink_not_its_target(tmp_path):
    target = tmp_path / "target.csv"
    target.write_bytes(b"kept\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    write_file(link, "new\n")
    assert not link.is_symlink()
    assert link.read_bytes() == b"new\n"
    assert target.read_bytes() == b"kept\n"


def test_directory_output_path_is_an_io_error(tmp_path, capsys):
    stream = tmp_path / "s01.csv"
    write_imu_csv(make_stream(n=300), stream)
    out = tmp_path / "out"
    (out / "inner").mkdir(parents=True)
    assert dispatch(["rqa-features", "--in", str(stream),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert (out / "inner").is_dir()


def _writes_outside_helper(tree):
    """(line, call) of each file write in ``tree`` outside ``write_file``."""
    inside = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              and f.name == "write_file" for n in ast.walk(f)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name in ("write_text", "write_bytes"):
            yield node.lineno, name
        elif name == "open":
            # open(path, mode) or Path.open(mode)
            at = 1 if isinstance(func, ast.Name) else 0
            mode = node.args[at] if len(node.args) > at else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is None:
                continue
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wxa")):
                yield node.lineno, ast.unparse(node)


def test_every_file_write_goes_through_write_file():
    src = Path(gesturekit.__file__).parent
    found = [f"{path.name}:{line}: {call}" for path in sorted(src.glob("*.py"))
             for line, call in _writes_outside_helper(ast.parse(path.read_text()))]
    assert found == []
