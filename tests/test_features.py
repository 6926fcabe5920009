import numpy as np
import pytest

from gesturekit.errors import ParseError, ValidationError
from gesturekit.features import (DEFAULT_SAMPLES, STATS, FeatureRegistry,
                                 Scaler, channel_statistics,
                                 featurize_segments, feature_vector,
                                 read_feature_csv, resample_linear,
                                 sample_features, standardize,
                                 statistical_features, write_feature_csv)
from gesturekit.imu import ImuStream


def make_segment(n=60, seed=0, subject="s01"):
    rng = np.random.default_rng(seed)
    return ImuStream(subject_id=subject,
                     t=np.arange(n, dtype=np.int64),
                     channels=rng.normal(size=(n, 9)))


def test_registry_shapes_and_names():
    reg = FeatureRegistry.recognition()
    assert len(reg.names) == 63 + 3 * DEFAULT_SAMPLES == 93
    assert reg.names[0] == "acc_x_mean"
    assert reg.names[62] == "mag_z_kurt"
    assert reg.names[63] == "acc_x_s1"
    assert reg.names[-1] == f"acc_z_s{DEFAULT_SAMPLES}"
    with pytest.raises(ValidationError):
        FeatureRegistry(("a", "a"))


def test_channel_statistics_known_values():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    mean, med, rms, std, var, skew, kurt = channel_statistics(x)
    assert mean == 2.5
    assert med == 2.5
    assert rms == pytest.approx(np.sqrt(7.5))
    assert var == pytest.approx(1.25)
    assert std == pytest.approx(np.sqrt(1.25))
    assert skew == pytest.approx(0.0)
    # population kurtosis (not excess) of a symmetric 4-point grid
    assert kurt == pytest.approx(np.mean((x - 2.5) ** 4) / 1.25 ** 2)


def test_channel_statistics_constant_input():
    mean, med, rms, std, var, skew, kurt = channel_statistics(np.full(10, 3.0))
    assert (mean, med, std, var) == (3.0, 3.0, 0.0, 0.0)
    assert rms == pytest.approx(3.0)
    assert skew == 0.0 and kurt == 0.0


def test_statistical_features_layout():
    seg = make_segment()
    v = statistical_features(seg)
    assert v.shape == (63,)
    # block c holds the 7 stats of channel c, in STATS order
    for c in range(9):
        want = channel_statistics(seg.channels[:, c])
        assert np.allclose(v[7 * c: 7 * c + 7], want)
    assert len(STATS) == 7


def test_resample_linear_identity_and_endpoints():
    x = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
    assert np.array_equal(resample_linear(x, 5), x)
    y = resample_linear(x, 9)
    assert y[0] == x[0] and y[-1] == x[-1]
    assert y[1] == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        resample_linear(x, 1)
    with pytest.raises(ValidationError):
        resample_linear(np.array([1.0]), 4)


def test_sample_features_axis_major():
    seg = make_segment(30)
    v = sample_features(seg, n_samples=10)
    assert v.shape == (30,)
    assert np.allclose(v[:10], resample_linear(seg.acc[:, 0], 10))
    assert np.allclose(v[20:], resample_linear(seg.acc[:, 2], 10))


def test_feature_vector_width():
    assert feature_vector(make_segment()).shape == (93,)
    assert feature_vector(make_segment(), n_samples=4).shape == (75,)


def test_featurize_segments_dataset():
    pairs = [(make_segment(40, seed=i, subject=f"s{i % 2}", ), "Up")
             for i in range(4)]
    ds = featurize_segments(pairs)
    assert ds.X.shape == (4, 93)
    assert ds.labels == ["Up"] * 4
    assert ds.subjects == ["s0", "s1", "s0", "s1"]
    with pytest.raises(ValidationError):
        featurize_segments([])


def test_scaler_and_standardize():
    rng = np.random.default_rng(3)
    X = rng.normal(5.0, 3.0, size=(50, 4))
    X[:, 2] = 7.0                           # constant column
    scaler, Xs, _ = standardize(X)
    assert np.allclose(Xs.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(Xs.std(axis=0)[[0, 1, 3]], 1.0)
    # constant columns divide by 1, not 0
    assert np.all(Xs[:, 2] == 0.0)
    other = rng.normal(size=(5, 4))
    s2, Xt, Xo = standardize(X, other)
    assert np.allclose(Xo, (other - s2.mean) / s2.std)
    with pytest.raises(ValidationError):
        scaler.transform(np.zeros((3, 5)))


def test_feature_csv_roundtrip(tmp_path):
    pairs = [(make_segment(40, seed=i), "Up" if i % 2 else "Down")
             for i in range(4)]
    ds = featurize_segments(pairs)
    p = tmp_path / "f.csv"
    write_feature_csv(ds, p)
    back = read_feature_csv(p)
    assert np.array_equal(back.X, ds.X)     # repr round-trips exactly
    assert back.labels == ds.labels
    assert back.subjects == ds.subjects
    assert back.feature_names == list(ds.feature_names)


def test_feature_csv_rejects_garbage(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("")
    with pytest.raises(ParseError):
        read_feature_csv(p)
    p.write_text("a,b,label,subject\n1.0,nope,Up,s01\n")
    with pytest.raises(ParseError, match="non-numeric"):
        read_feature_csv(p)
    p.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ParseError):
        read_feature_csv(p)
