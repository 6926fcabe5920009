"""Fuzzed parser input: a damaged model, parameter or CSV file either parses
or raises ParseError, never another exception; a damaged model loads as the
line-loop oracle loads it, and a damaged stream CSV parses as the
block-loop oracle parses it."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gesturekit.cli import read_params
from gesturekit.errors import ParseError
from gesturekit.features import read_feature_csv, write_feature_csv
from gesturekit.imu import (ImuStream, LabeledDataset, LabeledInterval,
                            parse_imu_csv, parse_label_csv, write_file,
                            write_imu_csv, write_label_csv)
from gesturekit.pipeline import load_identifier
from gesturekit.rqa import RqaConfig
from gesturekit.svm import KernelConfig, OvoSvmModel, load_model, ovo_train, \
    save_model
from oracles import loop_load_model, loop_parse_imu_csv

# fixed examples, no example database, bounded count: a few seconds in all
FUZZ = settings(derandomize=True, deadline=None, database=None,
                max_examples=150)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def model_bytes(workdir):
    r = np.random.default_rng(0)
    classes = ["G01", "G02", "G03"]
    X = np.vstack([r.normal(loc=3.0 * i, size=(4, 2))
                   for i in range(len(classes))])
    data = LabeledDataset(X=X, labels=[c for c in classes for _ in range(4)],
                          subjects=["s01", "s02"] * 6,
                          feature_names=["f0", "f1"])
    path = workdir / "valid.model"
    save_model(ovo_train(data, KernelConfig(kind="radial", gamma=0.5), 1.0),
               path)
    return path.read_bytes()


def read_or_parse_error(reader, path, data: bytes):
    write_file(path, data)
    try:
        return reader(path)
    except ParseError:
        return None


def load_or_parse_error(path, data: bytes):
    model = read_or_parse_error(load_model, path, data)
    assert model is None or isinstance(model, OvoSvmModel)


def test_valid_file_loads(workdir, model_bytes):
    path = workdir / "m.model"
    write_file(path, model_bytes)
    assert load_model(path).pairs == [("G01", "G02"), ("G01", "G03"),
                                      ("G02", "G03")]


@FUZZ
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_model(workdir, model_bytes, cut):
    load_or_parse_error(workdir / "m.model",
                        model_bytes[:int(cut * len(model_bytes))])


@FUZZ
@given(drop=st.sets(st.integers(0, 10 ** 6), min_size=1, max_size=3))
def test_model_with_lines_dropped(workdir, model_bytes, drop):
    lines = model_bytes.splitlines(keepends=True)
    gone = {i % len(lines) for i in drop}
    load_or_parse_error(workdir / "m.model",
                        b"".join(ln for i, ln in enumerate(lines)
                                 if i not in gone))


@FUZZ
@given(flips=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                st.integers(1, 255)), min_size=1, max_size=4))
def test_model_with_bytes_flipped(workdir, model_bytes, flips):
    data = bytearray(model_bytes)
    for at, mask in flips:
        data[at % len(data)] ^= mask
    load_or_parse_error(workdir / "m.model", bytes(data))


# tokens where numpy's loadtxt and float() may part, or that a model must
# refuse: a digit separator and non-ASCII digits numpy rejects, signs and
# zeros, non-finite and overflowing values, hex and Fortran literals
# neither takes, whitespace both split on, no value and one value too many
MODEL_TOKENS = ("1_0", "\u0661\u0662", "+1", "-0", "nan", "inf", "1e999",
                "0x1p3", "1d5", "\x1f", "\xa0", "", "1 2")


def load_outcome(load, path):
    """The bytes of a loaded model's arrays, or its ParseError text."""
    try:
        model = load(path)
    except ParseError as exc:
        return str(exc)
    return tuple((a.shape, a.tobytes())
                 for a in (model.sv, model.coef, model.bias))


@FUZZ
@given(subs=st.lists(st.tuples(st.sampled_from(("sv", "alpha_y")),
                               st.integers(0, 10 ** 6),
                               st.integers(0, 10 ** 6),
                               st.sampled_from(MODEL_TOKENS),
                               st.sampled_from(("cell", "prefix", "suffix"))),
                     max_size=3),
       flips=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                st.integers(1, 255)), max_size=2))
# numpy rejects these but float() takes them, so they load line by line
@example(subs=[("sv", 0, 1, "1_0", "cell")], flips=[])
@example(subs=[("alpha_y", 1, 2, "\u0661\u0662", "cell"),
               ("sv", 3, 0, "\xa0", "suffix")], flips=[])
# numpy takes these, but a model must refuse them
@example(subs=[("sv", 2, 0, "nan", "cell")], flips=[])
@example(subs=[("alpha_y", 0, 0, "1e999", "cell")], flips=[])
# a line with no values, which loadtxt skips as blank
@example(subs=[("sv", 0, 0, "", "cell"), ("sv", 0, 1, "", "cell")], flips=[])
def test_model_load_matches_line_loop(workdir, model_bytes, subs, flips):
    lines = model_bytes.decode().split("\n")
    for kind, at, col, token, where in subs:
        rows = [i for i, ln in enumerate(lines) if ln.startswith(kind + " ")]
        k = rows[at % len(rows)]
        cells = lines[k].split(" ")
        j = 1 + col % (len(cells) - 1)
        cells[j] = {"cell": token, "prefix": token + cells[j],
                    "suffix": cells[j] + token}[where]
        lines[k] = " ".join(cells)
    data = bytearray("\n".join(lines).encode())
    for at, mask in flips:
        data[at % len(data)] ^= mask
    path = workdir / "diff.model"
    write_file(path, bytes(data))
    assert load_outcome(load_model, path) == \
        load_outcome(loop_load_model, path)


@pytest.fixture(scope="module")
def identifier_bytes(workdir):
    """An identifier file: the [rqa] section, then a two-class model."""
    r = np.random.default_rng(3)
    data = LabeledDataset(X=r.uniform(size=(8, 2)) + [[0.0], [1.0]] * 4,
                          labels=["ADL", "gesture"] * 4,
                          subjects=["s01", "s01", "s02", "s02"] * 2,
                          feature_names=["rr", "tra"])
    model = ovo_train(data, KernelConfig(kind="polynomial", gamma=0.95,
                                         coef0=2.0), 3.0)
    path = workdir / "identifier.model"
    save_model(replace(model, rqa=RqaConfig().text()), path)
    return path.read_bytes()


def identify_or_parse_error(path, data: bytes):
    """Read through the loader ``identify`` uses."""
    loaded = read_or_parse_error(load_identifier, path, data)
    assert loaded is None or isinstance(loaded[1], RqaConfig)


def test_valid_identifier_loads(workdir, identifier_bytes):
    path = workdir / "id.model"
    write_file(path, identifier_bytes)
    assert load_identifier(path)[1] == RqaConfig()


@FUZZ
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_identifier(workdir, identifier_bytes, cut):
    data = identifier_bytes
    identify_or_parse_error(workdir / "id.model", data[:int(cut * len(data))])


@FUZZ
@given(drop=st.sets(st.integers(0, 10 ** 6), min_size=1, max_size=3))
def test_identifier_with_lines_dropped(workdir, identifier_bytes, drop):
    lines = identifier_bytes.splitlines(keepends=True)
    gone = {i % len(lines) for i in drop}
    identify_or_parse_error(workdir / "id.model",
                            b"".join(ln for i, ln in enumerate(lines)
                                     if i not in gone))


@FUZZ
@given(flips=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                st.integers(1, 255)), min_size=1, max_size=4))
def test_identifier_with_bytes_flipped(workdir, identifier_bytes, flips):
    data = bytearray(identifier_bytes)
    for at, mask in flips:
        data[at % len(data)] ^= mask
    identify_or_parse_error(workdir / "id.model", bytes(data))


@FUZZ
@given(text=st.text())
def test_params_text(workdir, text):
    path = workdir / "p.params"
    write_file(path, text)
    try:
        params = read_params(path)
    except ParseError:
        return
    assert all(isinstance(k, str) and k and isinstance(v, str) and v
               for k, v in params.items())


def write_stream(path, n=6):
    r = np.random.default_rng(1)
    write_imu_csv(ImuStream(subject_id="s01",
                            channels=r.normal(size=(n, 9))), path)


def write_long_stream(path):
    """More rows than two parse blocks of 1024, so damage can land in
    any of three blocks."""
    write_stream(path, n=2100)


def write_labels(path):
    write_label_csv([LabeledInterval(0, 40, "Up", "s01"),
                     LabeledInterval(40, 95, "ADL", "s01"),
                     LabeledInterval(120, 160, "Pull", "s01")], path)


def write_features(path):
    r = np.random.default_rng(2)
    write_feature_csv(LabeledDataset(X=r.normal(size=(4, 3)),
                                     labels=["Up", "Down", "Up", "Down"],
                                     subjects=["s01", "s01", "s02", "s02"],
                                     feature_names=["f0", "f1", "f2"]), path)


# each CSV reader with a writer for a small valid file it must accept
CSV_READERS = {"stream": (parse_imu_csv, write_stream),
               "long-stream": (parse_imu_csv, write_long_stream),
               "labels": (parse_label_csv, write_labels),
               "features": (read_feature_csv, write_features)}


@pytest.fixture(scope="module", params=sorted(CSV_READERS))
def csv_case(request, workdir):
    """(reader, path to fuzz into, bytes of a valid file)."""
    reader, write = CSV_READERS[request.param]
    path = workdir / f"{request.param}.csv"
    write(path)
    assert reader(path) is not None
    return reader, path, path.read_bytes()


@FUZZ
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_csv(csv_case, cut):
    reader, path, valid = csv_case
    read_or_parse_error(reader, path, valid[:int(cut * len(valid))])


@FUZZ
@given(drop=st.sets(st.integers(0, 10 ** 6), min_size=1, max_size=3))
def test_csv_with_lines_dropped(csv_case, drop):
    reader, path, valid = csv_case
    lines = valid.splitlines(keepends=True)
    gone = {i % len(lines) for i in drop}
    read_or_parse_error(reader, path, b"".join(
        ln for i, ln in enumerate(lines) if i not in gone))


@FUZZ
@given(flips=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                st.integers(1, 255)), min_size=1, max_size=4))
def test_csv_with_bytes_flipped(csv_case, flips):
    reader, path, valid = csv_case
    data = bytearray(valid)
    for at, mask in flips:
        data[at % len(data)] ^= mask
    read_or_parse_error(reader, path, bytes(data))


# cells where numpy's loadtxt grammar and Python's int and float may part:
# separators, digits and spaces numpy rejects, whitespace it strips, line
# ends, and values at the edges of the int64 and float64 ranges
DIFF_TOKENS = ("1_0", "\u0663", "\x1f", "\x1e", "\xa0", "\u3000", "\x85",
               " 1.5 ", "+5", "0005", "2049.0", "9223372036854775808", "nan",
               "1e999", "0x1p3", "\x0c", "\r\n", "")


@pytest.fixture(scope="module")
def long_stream_lines(workdir):
    path = workdir / "diff-valid.csv"
    write_long_stream(path)
    return path.read_text().split("\n")


def parse_outcome(parse, path):
    """``(subject, channel bytes)`` of a parse, or its ParseError text."""
    try:
        stream = parse(path)
    except ParseError as exc:
        return str(exc)
    if isinstance(stream, ImuStream):
        return stream.subject_id, stream.channels.tobytes()
    subject, channels = stream
    return subject, channels.tobytes()


@FUZZ
@given(subs=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 9),
                               st.sampled_from(DIFF_TOKENS),
                               st.sampled_from(("cell", "prefix", "suffix"))),
                     max_size=4),
       flips=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                st.integers(1, 255)), max_size=3))
# the draws above rarely leave a stream numpy would accept whole, so the
# cases where the two grammars part are also given outright
@example(subs=[(1500, 9, "\x1f", "suffix")], flips=[])
@example(subs=[(3000, 0, "\x1f", "suffix")], flips=[])
@example(subs=[(0, 0, "2049.0", "cell")], flips=[])
@example(subs=[(10, 0, "1_0", "cell"), (20, 4, "\u0663", "cell"),
               (30, 5, "\u3000", "prefix")], flips=[])
def test_stream_parse_matches_block_loop(workdir, long_stream_lines, subs,
                                         flips):
    lines = list(long_stream_lines)
    for at, col, token, where in subs:
        if token == "2049.0":
            # as the index of data row 2049: the right value, as a float
            at, col, where = 2049, 0, "cell"
        k = 1 + at % (len(lines) - 2)
        cells = lines[k].split(",")
        cells[col] = {"cell": token, "prefix": token + cells[col],
                      "suffix": cells[col] + token}[where]
        lines[k] = ",".join(cells)
    data = bytearray("\n".join(lines).encode())
    for at, mask in flips:
        data[at % len(data)] ^= mask
    path = workdir / "diff.csv"
    write_file(path, bytes(data))
    assert parse_outcome(parse_imu_csv, path) == \
        parse_outcome(loop_parse_imu_csv, path)
