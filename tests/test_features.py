import numpy as np
import pytest

from gesturekit.errors import ValidationError
from gesturekit.features import (DEFAULT_SAMPLES, MAX_SAMPLES, STAT_NAMES,
                                 STATS, Scaler, check_samples, feature_names,
                                 featurize_segments, is_sample_feature,
                                 resample_linear, sample_count)
from gesturekit.imu import ImuStream
from oracles import loop_channel_statistics


def make_segment(n=60, seed=0, subject="s01"):
    rng = np.random.default_rng(seed)
    return ImuStream(subject_id=subject,
                     channels=rng.normal(size=(n, 9)))


def row(segment, n_samples=DEFAULT_SAMPLES):
    """The featurizer's row for one segment."""
    return featurize_segments([(segment, "Up")],
                              feature_names(n_samples)).X[0]


def channel_block(segment, c):
    """The 7 statistics of channel c, cut out of the segment's row."""
    return row(segment)[7 * c: 7 * c + 7].tolist()


def test_registry_shapes_and_names():
    names = feature_names()
    assert len(names) == 63 + 3 * DEFAULT_SAMPLES == 93
    assert len(set(names)) == len(names)
    assert names[:63] == STAT_NAMES
    assert names[0] == "acc_x_mean"
    assert names[62] == "mag_z_kurt"
    assert names[63] == "acc_x_s1"
    assert names[-1] == f"acc_z_s{DEFAULT_SAMPLES}"


def test_channel_statistics_known_values():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    seg = ImuStream(subject_id="s01", channels=np.tile(x[:, None], (1, 9)))
    for c in range(9):
        mean, med, rms, std, var, skew, kurt = channel_block(seg, c)
        assert mean == 2.5
        assert med == 2.5
        assert rms == pytest.approx(np.sqrt(7.5))
        assert var == pytest.approx(1.25)
        assert std == pytest.approx(np.sqrt(1.25))
        assert skew == pytest.approx(0.0)
        # population kurtosis (not excess) of a symmetric 4-point grid
        assert kurt == pytest.approx(np.mean((x - 2.5) ** 4) / 1.25 ** 2)


def test_channel_statistics_constant_input():
    ch = np.random.default_rng(0).normal(size=(10, 9))
    ch[:, 4] = 3.0
    seg = ImuStream(subject_id="s01", channels=ch)
    mean, med, rms, std, var, skew, kurt = channel_block(seg, 4)
    assert (mean, med, std, var) == (3.0, 3.0, 0.0, 0.0)
    assert rms == pytest.approx(3.0)
    assert skew == 0.0 and kurt == 0.0


def test_statistical_features_layout():
    seg = make_segment()
    v = row(seg)[:63]
    # block c holds the 7 stats of channel c, in STATS order
    for c in range(9):
        x = seg.channels[:, c]
        d = x - x.mean()
        m2 = np.mean(d ** 2)
        want = [x.mean(), np.median(x), np.sqrt(np.mean(x * x)),
                np.sqrt(m2), m2, np.mean(d ** 3) / m2 ** 1.5,
                np.mean(d ** 4) / m2 ** 2]
        assert np.allclose(v[7 * c: 7 * c + 7], want)
    assert len(STATS) == 7


def test_featurize_segments_matches_channel_oracle_bytes():
    # lengths 2-120, three segments each; noisy channels sit near 0 or
    # near 50 (as the magnetometer does), and some channels are exactly
    # constant (m2 == 0) or constant up to rounding of the mean (tiny m2)
    rng = np.random.default_rng(11)
    segments, zero_var, tiny_var = [], 0, 0
    for n in np.repeat(np.arange(2, 121), 3):
        ch = rng.normal(size=(n, 9)) * rng.uniform(0.01, 5.0, 9)
        ch[:, 6:] += rng.uniform(45.0, 55.0, 3)
        for c in rng.choice(9, size=rng.integers(0, 4), replace=False):
            ch[:, c] = rng.choice([0.0, 3.0, 50.3, 49.7 + 1e-9, -0.1])
        if rng.random() < 0.3:
            ch[rng.integers(n), rng.integers(9)] += 1e-13
        segments.append((ImuStream(subject_id="s01", channels=ch), "Up"))
    want = []
    for seg, _ in segments:
        cells = []
        for c in range(9):
            stats = loop_channel_statistics(seg.channels[:, c])
            zero_var += stats[4] == 0.0
            tiny_var += 0.0 < stats[4] < 1e-20
            cells += stats
        want.append(np.concatenate(
            [cells] + [resample_linear(seg.channels[:, a], DEFAULT_SAMPLES)
                       for a in range(3)]))
    got = featurize_segments(segments).X
    assert len(segments) >= 300 and zero_var > 50 and tiny_var > 50
    assert got.tobytes() == np.vstack(want).tobytes()


def oracle_row(segment, n_samples=DEFAULT_SAMPLES):
    """A segment's row with one reduction per channel and statistic."""
    return np.concatenate(
        [sum((loop_channel_statistics(segment.channels[:, c])
              for c in range(9)), [])]
        + [resample_linear(segment.channels[:, a], n_samples)
           for a in range(3)])


def test_length_groups_come_back_in_input_order():
    # lengths 2-40 three times each and 41-120 once each, shuffled, so the
    # length groups interleave and half of them hold one segment; each
    # row is the channel oracle's, bit for bit, at its input position
    rng = np.random.default_rng(12)
    lengths = rng.permutation(np.concatenate(
        [np.repeat(np.arange(2, 41), 3), np.arange(41, 121)]))
    segments = []
    for k, n in enumerate(lengths):
        ch = rng.normal(size=(n, 9)) * rng.uniform(0.01, 5.0, 9)
        ch[:, 6:] += rng.uniform(45.0, 55.0, 3)
        ch[:, rng.integers(9)] = rng.choice([0.0, 50.3, 49.7 + 1e-9])
        segments.append((ImuStream(subject_id=f"s{k}", channels=ch), f"c{k}"))
    got = featurize_segments(segments)
    assert got.labels.tolist() == [label for _, label in segments]
    assert got.subjects.tolist() == [seg.subject_id for seg, _ in segments]
    assert got.X.tobytes() == np.vstack(
        [oracle_row(seg) for seg, _ in segments]).tobytes()


def test_first_bad_segment_in_input_order_is_reported():
    good = (make_segment(30), "Up")
    short = (make_segment(1), "Up")
    one_channel = (ImuStream("s01", np.zeros((20, 1)), ("acc_y",)), "Up")
    with pytest.raises(ValidationError, match="all 9 channels"):
        featurize_segments([good, one_channel, short])
    with pytest.raises(ValidationError, match="at least 2 samples"):
        featurize_segments([good, short, one_channel])


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
    v = row(seg, n_samples=10)[63:]
    assert v.shape == (30,)
    assert np.allclose(v[:10], resample_linear(seg.channels[:, 0], 10))
    assert np.allclose(v[20:], resample_linear(seg.channels[:, 2], 10))


def test_feature_vector_width():
    assert row(make_segment()).shape == (93,)
    assert row(make_segment(), n_samples=4).shape == (75,)
    with pytest.raises(ValidationError, match="at least 2 samples"):
        row(make_segment(1))


def test_sample_names_and_count():
    assert is_sample_feature("acc_x_s1")
    assert not is_sample_feature("gyro_x_s1")
    assert sample_count(feature_names(4)) == 4
    assert sample_count(STAT_NAMES) == DEFAULT_SAMPLES
    # --samples and a model's [registry] pass one bound, so no name can
    # make a segment resample to 10**9 points
    check_samples(MAX_SAMPLES)
    assert sample_count([f"acc_y_s{MAX_SAMPLES}"]) == MAX_SAMPLES
    for names in ([f"acc_x_s{MAX_SAMPLES + 1}"], ["acc_x_s1000000000"]):
        with pytest.raises(ValidationError, match="at most 1000 output"):
            sample_count(names)
    with pytest.raises(ValidationError, match="at most 1000 output"):
        check_samples(MAX_SAMPLES + 1)


def test_featurize_segments_dataset():
    pairs = [(make_segment(40, seed=i, subject=f"s{i % 2}", ), "Up")
             for i in range(4)]
    ds = featurize_segments(pairs)
    assert ds.X.shape == (4, 93)
    assert ds.labels.tolist() == ["Up"] * 4
    assert ds.subjects.tolist() == ["s0", "s1", "s0", "s1"]
    with pytest.raises(ValidationError):
        featurize_segments([])


def test_featurize_segments_picks_columns_by_name():
    pairs = [(make_segment(30 + i, seed=i), "Up") for i in range(5)]
    full = featurize_segments(pairs, feature_names(7))
    names = list(np.random.default_rng(8).permutation(feature_names(7)))[:40]
    got = featurize_segments(pairs, names)
    assert got.feature_names == names
    for k, nm in enumerate(names):
        col = full.X[:, full.feature_names.index(nm)]
        assert got.X[:, k].tobytes() == col.tobytes()


def test_shuffled_subset_at_the_sample_bound_is_the_full_rows_columns():
    # every name but one of feature_names(MAX_SAMPLES), shuffled, with the
    # largest sample index kept so the subset asks for the same length
    pairs = [(make_segment(30 + i, seed=i), "Up") for i in range(5)]
    full = featurize_segments(pairs, feature_names(MAX_SAMPLES))
    last = f"acc_z_s{MAX_SAMPLES}"
    names = [last] + [nm for nm in np.random.default_rng(8).permutation(
        full.feature_names).tolist() if nm != last][1:]
    got = featurize_segments(pairs, names)
    assert got.feature_names == names
    column = {nm: k for k, nm in enumerate(full.feature_names)}
    want = full.X[:, [column[nm] for nm in names]]
    assert len(names) == len(full.feature_names) - 1
    assert got.X.tobytes() == np.ascontiguousarray(want).tobytes()


def test_featurize_segments_rejects_an_unknown_name():
    with pytest.raises(ValidationError) as info:
        featurize_segments([(make_segment(), "Up")],
                           STAT_NAMES + ("acc_w_mean",))
    assert str(info.value) == ("model expects feature 'acc_w_mean', which "
                               "segment featurization does not produce")


def test_featurize_segments_needs_all_nine_channels():
    segment = ImuStream("s01", np.zeros((20, 1)), ("acc_y",))
    with pytest.raises(ValidationError, match="all 9 channels"):
        featurize_segments([(segment, "Up")])


def test_full_feature_set_is_c_ordered():
    # Scaler.fit's column means round by layout, and the model files'
    # [scaler] bits were fixed with the stacked, C-ordered rows
    pairs = [(make_segment(40, seed=i), "Up") for i in range(6)]
    for n in (4, DEFAULT_SAMPLES):
        assert featurize_segments(pairs, feature_names(n)).X.flags.c_contiguous


def test_scaler_and_standardize():
    rng = np.random.default_rng(3)
    X = rng.normal(5.0, 3.0, size=(50, 4))
    X[:, 2] = 7.0                           # constant column
    scaler = Scaler.fit(X)
    Xs = scaler.transform(X)
    assert np.allclose(Xs.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(Xs.std(axis=0)[[0, 1, 3]], 1.0)
    # constant columns divide by 1, not 0
    assert np.all(Xs[:, 2] == 0.0)
    other = rng.normal(size=(5, 4))
    assert np.allclose(scaler.transform(other),
                       (other - scaler.mean) / scaler.std)
    with pytest.raises(ValidationError):
        scaler.transform(np.zeros((3, 5)))
    for bad in (np.zeros((0, 4)), np.zeros(4)):
        with pytest.raises(ValidationError, match="non-empty and 2-D"):
            Scaler.fit(bad)
