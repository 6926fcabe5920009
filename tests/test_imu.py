import numpy as np
import pytest

from gesturekit.errors import ParseError, ValidationError
from gesturekit.imu import (ADL_LABEL, CHANNELS, GESTURES, ImuStream,
                            LabeledDataset, LabeledInterval,
                            canonical_class_order, extract_segment,
                            parse_imu_csv, parse_label_csv, write_imu_csv,
                            write_label_csv)


def make_stream(n=40, subject="s01", seed=0):
    rng = np.random.default_rng(seed)
    return ImuStream(subject_id=subject, rate_hz=50.0,
                     t=np.arange(n, dtype=np.int64),
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
    assert np.array_equal(s.acc, s.channels[:, :3])
    assert np.array_equal(s.gyro, s.channels[:, 3:6])
    assert np.array_equal(s.mag, s.channels[:, 6:9])
    assert np.array_equal(s.channel("acc_y"), s.channels[:, 1])
    with pytest.raises(ValidationError):
        s.channel("acc_w")


def test_imu_csv_roundtrip(tmp_path):
    s = make_stream(25)
    p = tmp_path / "s.csv"
    write_imu_csv(s, p)
    back = parse_imu_csv(p)
    assert back.subject_id == "s"          # default: file stem
    assert np.array_equal(back.t, s.t)
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
    assert seg.t[0] == 0
    assert np.array_equal(seg.channels, s.channels[10:30])
    with pytest.raises(ValidationError):
        extract_segment(s, LabeledInterval(40, 60, "Up", "s01"))


def test_dataset_validation():
    with pytest.raises(ValidationError):
        LabeledDataset(X=np.zeros((2, 3)), labels=["a"], subjects=["s", "s"],
                       feature_names=["f1", "f2", "f3"])
    ds = LabeledDataset(X=np.zeros((3, 2)), labels=["b", "a", "b"],
                        subjects=["s2", "s1", "s2"],
                        feature_names=["f1", "f2"])
    assert ds.classes == ["a", "b"]
    assert ds.subject_ids() == ["s1", "s2"]
    assert list(ds.rows_for_subjects(["s2"])) == [True, False, True]


def small_dataset():
    return LabeledDataset(X=np.arange(12.0).reshape(4, 3),
                          labels=["a", "b", "c", "d"],
                          subjects=["s1", "s2", "s1", "s2"],
                          feature_names=["f0", "f1", "f2"])


def test_take_mask_matches_boolean_indexing():
    ds = small_dataset()
    mask = ds.rows_for_subjects(["s2"])
    part = ds.take(mask)
    assert np.array_equal(part.X, ds.X[mask])
    assert part.labels == ["b", "d"]
    assert part.subjects == ["s2", "s2"]
    assert part.feature_names == ds.feature_names


def test_take_keeps_index_order_and_repeats():
    ds = small_dataset()
    part = ds.take(np.array([3, 0, 3]))
    assert np.array_equal(part.X, ds.X[[3, 0, 3]])
    assert part.labels == ["d", "a", "d"]
    assert part.subjects == ["s2", "s1", "s2"]


def test_take_columns():
    ds = small_dataset()
    part = ds.take([1, 2], columns=[2, 0])
    assert np.array_equal(part.X, ds.X[[1, 2]][:, [2, 0]])
    assert part.feature_names == ["f2", "f0"]
    assert part.labels == ["b", "c"]
    whole = ds.take(columns=[1])
    assert np.array_equal(whole.X, ds.X[:, [1]])
    assert whole.labels == ds.labels and whole.feature_names == ["f1"]
    # the slice owns its metadata
    whole.labels.append("e")
    assert ds.labels == ["a", "b", "c", "d"]
