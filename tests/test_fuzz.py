"""Fuzzed parser input: a damaged model, parameter or CSV file either parses
or raises ParseError, never another exception; a damaged model loads as the
line-loop oracle loads it, and a damaged stream CSV parses as the
block-loop oracle parses it, whatever channels the parse keeps, both
oracles reading numbers by a regex of README's grammar. Each fuzz token's
outcome in a cell is pinned in a table."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gesturekit import imu
from gesturekit.cli import _typed_overrides, build_parser, read_params
from gesturekit.errors import ParseError
from gesturekit.imu import (CHANNELS, ImuStream, LabeledDataset,
                            LabeledInterval, parse_imu_csv, parse_label_csv,
                            read_number, write_file, write_imu_csv,
                            write_label_csv)
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
                          feature_names=["acc_x_mean", "acc_x_median"])
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


# tokens at the edges of the grammar, or that a model must refuse: a digit
# separator and non-ASCII digits it rejects (float() takes them), signs
# and zeros, non-finite and overflowing values, hex and Fortran literals,
# whitespace that splits values, no value and one value too many
MODEL_TOKENS = ("1_0", "\u0661\u0662", "+1", "-0", "nan", "inf", "1e999",
                "0x1p3", "1d5", "\x1f", "\xa0", "", "1 2")


def token_id(token):
    """A test id for a token: ASCII, no spaces, never empty."""
    return ascii(token)[1:-1].replace(" ", "\\x20") or "empty"


def token_cell(token):
    """The cell a grammar table puts a token in: a token of whitespace
    only follows a 2, any other token stands alone."""
    return "2" + token if token and not token.strip() else token


# MODEL_TOKENS token: the value an sv cell made of it loads as, or the
# load's message; values that split a cell in two or leave it empty
# change the line's value count
MODEL_GRAMMAR = {
    "1_0": "bad number in [sv] section",
    "\u0661\u0662": "bad number in [sv] section",
    "+1": 1.0,
    "-0": -0.0,
    "nan": "non-finite value in [sv] section",
    "inf": "non-finite value in [sv] section",
    "1e999": "non-finite value in [sv] section",
    "0x1p3": "bad number in [sv] section",
    "1d5": "bad number in [sv] section",
    "\x1f": 2.0,
    "\xa0": 2.0,
    "": "wrong value count in [sv] section",
    "1 2": "wrong value count in [sv] section",
}


def test_model_grammar_covers_the_tokens():
    assert sorted(MODEL_GRAMMAR) == sorted(MODEL_TOKENS)


@pytest.mark.parametrize("token", MODEL_TOKENS, ids=token_id)
def test_model_cell_grammar(workdir, model_bytes, token):
    """The token as the second value of the first sv line: the value it
    loads as, or the message; the line-loop oracle agrees."""
    lines = model_bytes.decode().split("\n")
    k = next(i for i, ln in enumerate(lines) if ln.startswith("sv "))
    cells = lines[k].split(" ")
    cells[2] = token_cell(token)
    lines[k] = " ".join(cells)
    path = workdir / "grammar.model"
    write_file(path, "\n".join(lines))
    want = MODEL_GRAMMAR[token]
    got = load_outcome(load_model, path)
    assert got == load_outcome(loop_load_model, path)
    if isinstance(want, str):
        assert got == f"{path}: {want}"
    else:
        sv = load_model(path).sv
        assert np.float64(want).tobytes() == sv[0, 1].tobytes()


def test_kernel_scalars_read_by_the_grammar(workdir, model_bytes):
    """The [kernel] numbers go through the same grammar as the rest."""
    path = workdir / "kernel.model"
    for edit, message in (
            (("gamma 0.5", "gamma 1_0"),
             "could not convert string to float: '1_0'"),
            (("cost 1\n", "cost \u0661\n"),
             "could not convert string to float: '\u0661'"),
            (("degree 3", "degree 3.0"),
             "invalid literal for int() with base 10: '3.0'"),
            (("degree 3", "degree 99999999999999999999"),
             "99999999999999999999 is outside the int64 range")):
        assert edit[0] in model_bytes.decode()
        write_file(path, model_bytes.decode().replace(*edit))
        assert load_outcome(load_model, path) == \
            load_outcome(loop_load_model, path) == \
            f"{path}: bad [kernel] section: {message}"
    write_file(path, model_bytes.decode().replace("gamma 0.5",
                                                  "gamma \xa0+0.5\x1f"))
    assert load_model(path).cfg.gamma == 0.5


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
# float() takes these but the grammar does not: the file is refused
@example(subs=[("sv", 0, 1, "1_0", "cell")], flips=[])
@example(subs=[("alpha_y", 1, 2, "\u0661\u0662", "cell"),
               ("sv", 3, 0, "\xa0", "suffix")], flips=[])
# the grammar takes these, but a model must refuse them
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


def test_rqa_values_read_by_the_grammar(workdir, identifier_bytes):
    """The [rqa] numbers go through the same grammar as the rest."""
    path = workdir / "rqa.model"
    text = identifier_bytes.decode()
    for edit, message in (
            (("window_len 125", "window_len 1_25"),
             "invalid literal for int() with base 10: '1_25'"),
            (("delay 1\n", "delay 99999999999999999999\n"),
             "99999999999999999999 is outside the int64 range"),
            (("epsilon 0.1", "epsilon \u0660.1"),
             "could not convert string to float: '\u0660.1'")):
        assert edit[0] in text
        write_file(path, text.replace(*edit))
        with pytest.raises(ParseError) as info:
            load_identifier(path)
        assert str(info.value) == f"{path}: bad [rqa] section: {message}"
    write_file(path, text.replace("window_len 125", "window_len +0125"))
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


# each CSV reader with a writer for a small valid file it must accept
CSV_READERS = {"stream": (parse_imu_csv, write_stream),
               "long-stream": (parse_imu_csv, write_long_stream),
               "labels": (parse_label_csv, write_labels)}


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


def read_digest(reader, path):
    """What a reader gives, in a form == compares, or "ParseError"."""
    try:
        out = reader(path)
    except ParseError:
        return "ParseError"
    if isinstance(out, ImuStream):
        return out.channels.tobytes()
    if isinstance(out, OvoSvmModel):
        return out.sv.tobytes(), out.coef.tobytes(), out.bias.tobytes()
    return out


@pytest.mark.parametrize("name", ["stream", "labels", "params", "model"])
def test_every_reader_ends_lines_alike(workdir, model_bytes, name):
    """LF, CRLF and CR end lines in every reader; NEL and U+2028, which
    str.splitlines also splits at, end none."""
    path = workdir / f"line-ends-{name}"
    if name == "model":
        reader, text = load_model, model_bytes.decode()
    elif name == "params":
        reader, text = read_params, "delay = 2\nnorm = L1\n"
    else:
        reader, write = CSV_READERS[name]
        write(path)
        text = path.read_text()
    digests = []
    for sep in ("\n", "\r\n", "\r", "\x85", "\u2028"):
        write_file(path, text.replace("\n", sep))
        digests.append(read_digest(reader, path))
    assert digests[0] != "ParseError"
    assert digests[1] == digests[2] == digests[0]
    assert digests[3] != digests[0] and digests[4] != digests[0]


# cells at the edges of the grammar, where Python's int and float may
# part from it: separators and non-ASCII digits it rejects, whitespace it
# strips (float() rejects "\x1f" and "\x1e"), line ends, signs, zeros and
# bare points, and values at the edges of the int64 and float64 ranges;
# then cells at the edges of the plain cells a kept-subset parse checks
# without converting: exponents without a sign, points without digits on
# one side, a leading "+", the largest doubles, and mantissas of 23 and
# 24 bytes, the longest plain one and the shortest a 24-byte cell cuts
DIFF_TOKENS = ("1_0", "\u0663", "\x1f", "\x1e", "\xa0", "\u3000", "\x85",
               " 1.5 ", "+5", "0005", "2049.0", "9223372036854775808", "nan",
               "1e999", "0x1p3", "\x0c", "\r\n", "", "-0", ".5", "5.",
               "1e-400", "1e5", "1.", "+1.5", "1e+308",
               "1.7976931348623157e+308", "-0.0", "1" * 23, "1" * 24)


def bad_cell(cell, kind="float"):
    if kind == "int":
        return ("non-numeric cell at line 2: invalid literal for int() "
                f"with base 10: {cell!r}")
    return f"non-numeric cell at line 2: could not convert string to " \
        f"float: {cell!r}"


# DIFF_TOKENS token: (the value of a channel cell made of it, or the
# parse's message; the same as the index cell of a one-row stream)
STREAM_GRAMMAR = {
    "1_0": (bad_cell("1_0"), bad_cell("1_0", "int")),
    "\u0663": (bad_cell("\u0663"), bad_cell("\u0663", "int")),
    "\x1f": (2.0, 2),
    "\x1e": (2.0, 2),
    "\xa0": (2.0, 2),
    "\u3000": (2.0, 2),
    "\x85": (2.0, 2),
    " 1.5 ": (1.5, bad_cell(" 1.5 ", "int")),
    "+5": (5.0, 5),
    "0005": (5.0, 5),
    "2049.0": (2049.0, bad_cell("2049.0", "int")),
    "9223372036854775808": (9223372036854775808.0,
                            "sample index out of int64 range at line 2"),
    "nan": ("non-finite value at line 2", bad_cell("nan", "int")),
    "1e999": ("non-finite value at line 2", bad_cell("1e999", "int")),
    "0x1p3": (bad_cell("0x1p3"), bad_cell("0x1p3", "int")),
    "\x0c": (2.0, 2),
    # the line ends after the 2: a last cell parses, a first one is alone
    "\r\n": (2.0, "expected 10 cells at line 2, got 1"),
    "": (bad_cell(""), bad_cell("", "int")),
    "-0": (-0.0, 0),
    ".5": (0.5, bad_cell(".5", "int")),
    "5.": (5.0, bad_cell("5.", "int")),
    "1e-400": (0.0, bad_cell("1e-400", "int")),
    "1e5": (1e5, bad_cell("1e5", "int")),
    "1.": (1.0, bad_cell("1.", "int")),
    "+1.5": (1.5, bad_cell("+1.5", "int")),
    "1e+308": (1e308, bad_cell("1e+308", "int")),
    "1.7976931348623157e+308": (1.7976931348623157e+308,
                                bad_cell("1.7976931348623157e+308", "int")),
    "-0.0": (-0.0, bad_cell("-0.0", "int")),
    "1" * 23: (1.1111111111111111e+22,
               "sample index out of int64 range at line 2"),
    "1" * 24: (1.1111111111111111e+23,
               "sample index out of int64 range at line 2"),
}

# the channels a parse keeps: all nine, or fewer, whose other cells a
# kept-subset parse checks without converting them
KEPT = (CHANNELS, ("acc_y",), ("gyro_z", "acc_x"))


def assert_parses_match_block_loop(path):
    """Each KEPT parse gives the block-loop oracle's columns, or its
    message."""
    for names in KEPT:
        assert parse_outcome(lambda p: parse_imu_csv(p, names), path) == \
            parse_outcome(loop_parse_imu_csv, path, names)


def test_stream_grammar_covers_the_tokens():
    assert sorted(STREAM_GRAMMAR) == sorted(DIFF_TOKENS)


@pytest.mark.parametrize("token", DIFF_TOKENS, ids=token_id)
def test_stream_cell_grammar(workdir, token):
    """The token as the last channel cell, then as the index cell, of a
    one-row stream: the value it parses as, or the message; the
    block-loop oracle agrees, whatever channels the parse keeps."""
    path = workdir / "grammar.csv"
    cell = token_cell(token)
    header = "t," + ",".join(CHANNELS) + "\n"
    for row, want in ((",".join(["7"] + ["1"] * 8 + [cell]),
                       STREAM_GRAMMAR[token][0]),
                      (",".join([cell] + ["1"] * 9),
                       STREAM_GRAMMAR[token][1])):
        write_file(path, header + row + "\n")
        got = parse_outcome(parse_imu_csv, path)
        assert_parses_match_block_loop(path)
        if isinstance(want, str):
            assert got == f"{path}: {want}"
        elif isinstance(want, float):
            assert got == ("grammar", np.array(
                [[1.0] * 8 + [want]]).tobytes())
        else:
            assert got == ("grammar", np.ones((1, 9)).tobytes())
            assert read_number(cell, int) == want


# label CSV bounds are read as a stream's index cell: "1_0", "\u0663" and
# a bound past int64 are refused, padded signed digits are taken (a line
# end in a cell would split its line, so that token is left out)
LABEL_BOUND_TOKENS = tuple(t for t in DIFF_TOKENS if t != "\r\n") + (" +12 ",)


@pytest.mark.parametrize("token", LABEL_BOUND_TOKENS, ids=token_id)
def test_label_bound_grammar(workdir, token):
    """The token as the start, then as the end, of a one-row label CSV:
    the bound it reads as, or the parse's message."""
    path = workdir / "grammar-labels.csv"
    cell = token_cell(token)
    want = 12 if token == " +12 " else STREAM_GRAMMAR[token][1]
    cases = [(f"{cell},100", (want, 100))]
    if want != 0:
        cases.append((f"0,{cell}", (0, want)))
    for bounds, interval in cases:
        write_file(path, f"start,end,label,subject\n{bounds},Up,s01\n")
        if isinstance(want, int):
            assert parse_label_csv(path) == [LabeledInterval(*interval, "Up",
                                                             "s01")]
        else:
            with pytest.raises(ParseError) as got:
                parse_label_csv(path)
            assert str(got.value) == f"{path}: non-integer bound at line 2"


# a model's feature values and numeric option values are read as a
# stream's cells: "1_0" and "\u0663" are refused, a value wrapped in "\x1f"
# is taken
GRAMMAR_CELL_TOKENS = tuple(t for t in DIFF_TOKENS if t != "\r\n")


@pytest.mark.parametrize("token", GRAMMAR_CELL_TOKENS, ids=token_id)
def test_feature_cell_grammar(workdir, model_bytes, token):
    """The token as the second feature value of a model's first support
    vector: the value it reads as, as a stream's channel cell, or a load
    error naming the [sv] section; the line-loop oracle agrees."""
    lines = model_bytes.decode().split("\n")
    k = next(i for i, ln in enumerate(lines) if ln.startswith("sv "))
    lines[k] = " ".join(lines[k].split(" ")[:2] + [token_cell(token)])
    path = workdir / "grammar-features.model"
    write_file(path, "\n".join(lines))
    want = STREAM_GRAMMAR[token][0]
    got = load_outcome(load_model, path)
    assert got == load_outcome(loop_load_model, path)
    if isinstance(want, float):
        assert load_model(path).sv[0, 1].tobytes() == \
            np.float64(want).tobytes()
    else:
        assert got.startswith(f"{path}: ") and got.endswith(" [sv] section")


@pytest.mark.parametrize("token", GRAMMAR_CELL_TOKENS, ids=token_id)
def test_option_value_grammar(workdir, token, capsys):
    """The token as an int and a float option value, on the command line
    and in a ``--params`` file: the value it reads as, as a stream's
    index or channel cell, or a usage error and a ParseError."""
    cell = token_cell(token)
    parser, subs = build_parser("rqa-features")
    path = workdir / "grammar-params.txt"
    for key, column, kind in (("window_len", 1, "int"),
                              ("epsilon", 0, "float")):
        want = STREAM_GRAMMAR[token][column]
        write_file(path, f"{key} = {cell}\n")
        argv = ["rqa-features", "--in", "a.csv", "--out", "b.csv",
                f"--{key.replace('_', '-')}={cell}"]
        if isinstance(want, str) and not want.startswith("non-finite"):
            with pytest.raises(SystemExit) as code:
                parser.parse_args(argv)
            assert code.value.code == 1
            assert f"invalid {kind} value" in capsys.readouterr().err
            with pytest.raises(ParseError) as got:
                _typed_overrides(subs["rqa-features"], path)
            # read_params strips a value and refuses an empty one
            assert (f"invalid value for {key!r}" if cell.strip()
                    else "expected `key = value`") in str(got.value)
            continue
        got = (vars(parser.parse_args(argv))[key],
               _typed_overrides(subs["rqa-features"], path)[key])
        if isinstance(want, str):       # a non-finite float
            assert not any(np.isfinite(got))
        else:
            assert [type(v) for v in got] == [type(want)] * 2
            assert np.array(got).tobytes() == np.array([want] * 2).tobytes()


@pytest.fixture(scope="module")
def long_stream_lines(workdir):
    path = workdir / "diff-valid.csv"
    write_long_stream(path)
    return path.read_text().split("\n")


def parse_outcome(parse, path, names=CHANNELS):
    """``(subject, channel bytes)`` of a parse, or its ParseError text; of
    an oracle's nine channels, the bytes of the ``names`` columns."""
    try:
        stream = parse(path)
    except ParseError as exc:
        return str(exc)
    if isinstance(stream, ImuStream):
        return stream.subject_id, stream.channels.tobytes()
    subject, channels = stream
    return subject, channels[:, [CHANNELS.index(c) for c in names]].tobytes()


@FUZZ
@given(subs=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 9),
                               st.sampled_from(DIFF_TOKENS),
                               st.sampled_from(("cell", "prefix", "suffix"))),
                     max_size=4),
       flips=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                st.integers(1, 255)), max_size=3))
# the draws above rarely leave a stream the grammar accepts whole, so the
# cases where it parts from Python's int and float are also given outright
@example(subs=[(1500, 9, "\x1f", "suffix")], flips=[])
@example(subs=[(3000, 0, "\x1f", "suffix")], flips=[])
@example(subs=[(0, 0, "2049.0", "cell")], flips=[])
@example(subs=[(10, 0, "1_0", "cell"), (20, 4, "\u0663", "cell"),
               (30, 5, "\u3000", "prefix")], flips=[])
# plain cells and cells a 24-byte cell cuts, in channels a kept-subset
# parse checks without converting
@example(subs=[(700, 3, "1.7976931348623157e+308", "cell"),
               (1200, 9, "-0.0", "cell"), (1900, 6, "1e5", "suffix")],
         flips=[])
@example(subs=[(1500, 7, "1" * 24, "cell")], flips=[])
# non-finite values in the kept channels of a kept-subset parse
@example(subs=[(300, 2, "nan", "cell")], flips=[])
@example(subs=[(1800, 6, "1e999", "cell"), (1900, 1, "nan", "cell")],
         flips=[])
@example(subs=[(400, 3, "1" * 23, "cell"), (2050, 8, "\x1f", "prefix")],
         flips=[])
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
    assert_parses_match_block_loop(path)


def plain_cell(cell):
    """Whether a parse keeping acc_y checks ``cell``, as an acc_z cell,
    without converting it: never if its row holds a NUL, else if
    ``_plain`` takes the 24 bytes that ``np.loadtxt`` reads it as."""
    return "\0" not in cell and bool(imu._plain(np.array([cell],
                                                        imu._CELL))[0])


@FUZZ
@given(cell=st.one_of(
    st.text(alphabet="0123456789.eE+- \x00", max_size=26),
    st.from_regex(r"-?[0-9]{1,26}(\.[0-9]{1,12})?(e[+-][0-9]{1,3})?\x00?",
                  fullmatch=True)))
@example(cell="1\x00")
@example(cell="9" * 19 + "e+99")
@example(cell="9" * 20 + "e+99")
@example(cell="1" * 24 + "-")
def test_plain_cells_read_as_finite(cell):
    """A cell a kept-subset parse takes without converting it is one the
    grammar reads as a finite float. The byte read drops the NULs that
    end a cell, so "1\x00", which the grammar rejects, is not taken."""
    if plain_cell(cell):
        assert np.isfinite(read_number(cell, float))


@FUZZ
@given(x=st.floats(-1e100, 1e100, exclude_min=True, exclude_max=True,
                   allow_subnormal=False).filter(
                       lambda x: x == 0 or abs(x) >= 1e-99))
@example(x=-1.2345678901234567e-05)
@example(x=-9.999999999999999e+99)
def test_repr_of_a_double_is_plain(x):
    """Every double whose decimal exponent is at most 99 is written, by
    repr, as a plain cell."""
    assert plain_cell(repr(x))
