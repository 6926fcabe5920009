"""Fuzzed parser input: a damaged model or parameter file either parses or
raises ParseError, never another exception."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturekit.cli import read_params
from gesturekit.errors import ParseError
from gesturekit.imu import LabeledDataset
from gesturekit.svm import KernelConfig, OvoSvmModel, load_model, ovo_train, \
    save_model

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


def load_or_parse_error(path, data: bytes):
    path.write_bytes(data)
    try:
        assert isinstance(load_model(path), OvoSvmModel)
    except ParseError:
        pass


def test_valid_file_loads(workdir, model_bytes):
    path = workdir / "m.model"
    path.write_bytes(model_bytes)
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


@FUZZ
@given(text=st.text())
def test_params_text(workdir, text):
    path = workdir / "p.params"
    path.write_bytes(text.encode("utf-8"))
    try:
        params = read_params(path)
    except ParseError:
        return
    assert all(isinstance(k, str) and k and isinstance(v, str) and v
               for k, v in params.items())
