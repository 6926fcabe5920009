"""Synthetic corpus generator: trajectories, sensor model, dataset layout."""

import hashlib
import json

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from gesturekit.errors import ValidationError
from gesturekit.features import featurize_segments
from gesturekit.imu import (GESTURES, cut_segments, parse_imu_csv,
                            parse_label_csv)
from gesturekit.synth import (
    GRAVITY_MS2,
    GESTURE_S,
    MAG_FIELD_UT,
    TEMPLATES,
    SubjectProfile,
    SynthConfig,
    box_filter,
    first_order_filter,
    gesture_trajectory,
    generate_dataset,
    make_subject_profile,
    rotation_matrix,
    trajectory_to_imu,
    write_dataset,
)

# the identity profile is noise-free, so its draws are multiplied by zero
RNG = np.random.default_rng(0)


def identity_profile(subject_id="s00", **overrides) -> SubjectProfile:
    """Noise-free unit profile, with ``overrides`` replacing its fields."""
    fields = dict(subject_id=subject_id, amplitude_scale=1.0, speed_scale=1.0,
                  tilt=np.eye(3), noise_acc=0.0, noise_gyro=0.0,
                  noise_mag=0.0)
    fields.update(overrides)
    return SubjectProfile(**fields)


class TestTemplatesAndProfiles:
    def test_every_gesture_has_a_template(self):
        assert set(TEMPLATES) == set(GESTURES)
        assert GESTURE_S == 1.2

    def test_template_paths_are_smooth(self):
        # finite second differences at a fine sampling, no jumps
        u = np.linspace(0.0, 1.0, 400)
        for path in TEMPLATES.values():
            p = path(u)
            assert p.shape == (400, 3)
            assert np.all(np.isfinite(p))
            assert np.max(np.abs(np.diff(p, n=2, axis=0))) < 0.1

    def test_profile_validation(self):
        with pytest.raises(ValidationError):
            identity_profile(amplitude_scale=0.0)
        with pytest.raises(ValidationError):
            identity_profile(speed_scale=-1.0)
        with pytest.raises(ValidationError):
            identity_profile(tilt=np.eye(4))
        with pytest.raises(ValidationError):
            identity_profile(noise_acc=-0.1)
        big = Rotation.from_rotvec([0.0, np.radians(20.0), 0.0]).as_matrix()
        with pytest.raises(ValidationError):
            identity_profile(tilt=big)

    def test_drawn_profiles_respect_invariants(self):
        for seed in range(30):
            p = make_subject_profile(f"s{seed}",
                                     np.random.default_rng(seed))
            assert p.amplitude_scale > 0 and p.speed_scale > 0
            cos_angle = np.clip((np.trace(p.tilt) - 1.0) / 2.0, -1.0, 1.0)
            assert np.degrees(np.arccos(cos_angle)) <= 15.0 + 1e-9
            assert min(p.noise_acc, p.noise_gyro, p.noise_mag) >= 0.0


class TestGestureTrajectory:
    def test_sample_count_from_duration(self):
        p = gesture_trajectory(TEMPLATES["CW"], identity_profile(), 50.0)
        assert len(p) == 60

    def test_speed_scale_changes_length(self):
        p = gesture_trajectory(TEMPLATES["CW"],
                               identity_profile(speed_scale=2.0), 50.0)
        assert len(p) == 120

    def test_up_down_mirror_through_horizontal_plane(self):
        up = gesture_trajectory(TEMPLATES["Up"], identity_profile(), 50.0)
        down = gesture_trajectory(TEMPLATES["Down"], identity_profile(), 50.0)
        assert np.array_equal(up[:, :2], down[:, :2])
        assert np.array_equal(up[:, 2], -down[:, 2])

    def test_amplitude_scales_positions_linearly(self):
        base = gesture_trajectory(TEMPLATES["S"], identity_profile(), 50.0)
        twice = gesture_trajectory(TEMPLATES["S"],
                                   identity_profile(amplitude_scale=2.0),
                                   50.0)
        assert np.allclose(twice, 2.0 * base)

    def test_rest_at_both_ends(self):
        for name in ("Up", "CW", "Z"):
            p = gesture_trajectory(TEMPLATES[name], identity_profile(), 50.0)
            assert np.array_equal(p[0], p[1])
            assert np.array_equal(p[-1], p[-2])

    def test_minimum_length_floor(self):
        # 1.2 s x 0.01 x 50 Hz rounds to 1 sample, below the floor
        p = gesture_trajectory(TEMPLATES["Up"],
                               identity_profile(speed_scale=0.01), 50.0)
        assert len(p) == 12


class TestTrajectoryToImu:
    def test_stationary_positions_read_pure_gravity(self):
        P = np.tile([0.1, 0.2, 0.3], (50, 1))
        s = trajectory_to_imu(P, identity_profile(), 50.0, RNG)
        acc = s.channels[:, :3]
        assert np.allclose(np.linalg.norm(acc, axis=1), GRAVITY_MS2)
        assert np.allclose(s.channels[:, 3:6], 0.0)

    def test_uniform_motion_reads_pure_gravity(self):
        u = np.arange(100)[:, None]
        P = u * np.array([[0.001, 0.002, -0.001]])
        s = trajectory_to_imu(P, identity_profile(), 50.0, RNG)
        assert np.allclose(s.channels[:, :3],
                           [0.0, 0.0, GRAVITY_MS2], atol=1e-9)

    def test_dynamic_acceleration_scales_with_rate_squared(self):
        t = np.linspace(0.0, 1.0, 80)[:, None]
        P = t ** 2 * np.array([[0.05, -0.02, 0.03]])
        lo = trajectory_to_imu(P, identity_profile(), 50.0, RNG)
        hi = trajectory_to_imu(P, identity_profile(), 100.0, RNG)
        g = np.array([0.0, 0.0, GRAVITY_MS2])
        assert np.allclose(hi.channels[:, :3] - g,
                           4.0 * (lo.channels[:, :3] - g))

    def test_tilt_rotates_gravity_and_field(self):
        tilt = Rotation.from_rotvec([np.radians(10.0), 0.0, 0.0]).as_matrix()
        P = np.zeros((10, 3))
        s = trajectory_to_imu(P, identity_profile(tilt=tilt), 50.0, RNG)
        assert np.allclose(s.channels[0, :3],
                           tilt @ [0.0, 0.0, GRAVITY_MS2])
        assert np.allclose(s.channels[0, 6:9], tilt @ MAG_FIELD_UT)

    def test_noise_is_reproducible_from_given_rng(self):
        P = np.zeros((20, 3))
        prof = identity_profile(noise_acc=0.1)
        a = trajectory_to_imu(P, prof, 50.0, np.random.default_rng(77))
        b = trajectory_to_imu(P, prof, 50.0, np.random.default_rng(77))
        assert np.array_equal(a.channels, b.channels)
        assert not np.allclose(a.channels[:, :3],
                               [0.0, 0.0, GRAVITY_MS2])

    def test_rejects_bad_positions(self):
        with pytest.raises(ValidationError):
            trajectory_to_imu(np.zeros((2, 3)), identity_profile(), 50.0,
                              RNG)
        with pytest.raises(ValidationError):
            trajectory_to_imu(np.zeros((5, 2)), identity_profile(), 50.0,
                              RNG)


class TestSynthConfig:
    def test_field_validation(self):
        with pytest.raises(ValidationError):
            SynthConfig(n_subjects=1)
        with pytest.raises(ValidationError):
            SynthConfig(reps=0)
        for rate in (0.0, np.nan, np.inf):
            with pytest.raises(ValidationError):
                SynthConfig(rate_hz=rate)
        for minutes in (-1.0, np.nan, np.inf):
            with pytest.raises(ValidationError):
                SynthConfig(adl_minutes=minutes)
        with pytest.raises(ValidationError):
            SynthConfig(gesture_fraction=0.0)
        with pytest.raises(ValidationError):
            SynthConfig(gesture_fraction=0.5)

    def test_defaults_match_experimental_shape(self):
        cfg = SynthConfig()
        assert cfg.n_subjects == 15
        assert cfg.reps == 5
        assert cfg.rate_hz == 50.0

    def test_subject_ids(self):
        assert SynthConfig(n_subjects=3).subject_ids() == ["s01", "s02",
                                                           "s03"]


@pytest.fixture(scope="module")
def small():
    return generate_dataset(SynthConfig(n_subjects=2, reps=1, seed=7))


class TestGenerateDataset:
    def test_segment_count(self, small):
        assert len(cut_segments(small.recognition)) == 24

    def test_exact_class_balance(self, small):
        labels = [lab for _, lab in cut_segments(small.recognition)]
        for g in GESTURES:
            assert labels.count(g) == 2

    def test_segments_featurize_finite_and_nonconstant(self, small):
        segments = cut_segments(small.recognition)
        data = featurize_segments(segments)
        assert np.all(np.isfinite(data.X))
        for seg, _ in segments:
            acc = seg.channels[:, :3]
            assert np.all(np.std(acc, axis=0) > 0.0)

    def test_intervals_cover_disjoint_ranges(self, small):
        for stream, intervals in small.recognition:
            assert sorted(intervals, key=lambda iv: iv.start) == intervals
            for prev, cur in zip(intervals, intervals[1:]):
                assert prev.end <= cur.start
            assert intervals[-1].end <= len(stream)

    def test_manifest_content(self, small):
        m = small.manifest
        assert m["master_seed"] == 7
        assert m["n_subjects"] == 2
        assert set(m["per_class_counts"]) == set(GESTURES)
        assert all(v == 2 for v in m["per_class_counts"].values())
        assert [s["id"] for s in m["subjects"]] == ["s01", "s02"]

    def test_no_identification_without_adl_minutes(self, small):
        assert small.identification == []


@pytest.fixture(scope="module")
def corpus():
    cfg = SynthConfig(n_subjects=2, reps=1, adl_minutes=2.0, seed=9)
    return generate_dataset(cfg)


class TestIdentificationStream:
    def test_stream_length_and_prevalence(self, corpus):
        assert len(corpus.identification) == 2
        for stream, intervals in corpus.identification:
            assert len(stream) == 2 * 60 * 50
            covered = sum(len(iv) for iv in intervals)
            assert 0 < covered / len(stream) < 0.05

    def test_intervals_sorted_disjoint_in_bounds(self, corpus):
        for stream, intervals in corpus.identification:
            assert len(intervals) >= 1
            for prev, cur in zip(intervals, intervals[1:]):
                assert prev.end <= cur.start
            for iv in intervals:
                assert 0 <= iv.start < iv.end <= len(stream)
                assert iv.label in GESTURES

    def test_too_short_stream_rejected(self):
        cfg = SynthConfig(n_subjects=2, reps=1, adl_minutes=0.05, seed=0)
        with pytest.raises(ValidationError):
            generate_dataset(cfg)


class TestFirstOrderFilter:
    @pytest.mark.parametrize("length", [1, 2, 3, 17, 1000, 15000])
    @pytest.mark.parametrize("scale", [1e-300, 1e-5, 1.0, 1e5, 1e300])
    def test_bit_equal_to_lfilter(self, length, scale):
        # scipy.signal is imported here only: synth itself never loads it
        from scipy.signal import lfilter
        rng = np.random.default_rng([length, int(np.log10(scale)) + 400])
        x = rng.normal(size=(length, 3)) * scale
        for gain, decay in ((3.5e-5, 0.85), (1.0, 0.999), (0.3, 1e-3)):
            want = lfilter([gain], [1.0, -decay], x, axis=0)
            got = first_order_filter(x, gain, decay)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_columns_filter_on_their_own(self):
        x = np.zeros((5, 3))
        x[0] = [1.0, 2.0, 4.0]
        got = first_order_filter(x, 0.5, 0.5)
        assert got.tolist() == [[0.5 * c * 0.5 ** k for c in (1.0, 2.0, 4.0)]
                                for k in range(5)]


class TestRotationMatrix:
    @staticmethod
    def assert_bit_equal(rotvec):
        want = Rotation.from_rotvec(rotvec).as_matrix()
        got = rotation_matrix(rotvec)
        assert got.shape == want.shape == (3, 3)
        assert got.tobytes() == want.tobytes(), rotvec

    def test_bit_equal_on_profile_draws(self):
        # the draws of make_subject_profile: up to 15 degrees about a
        # Gaussian axis; about 1 in 130 falls in the small-angle branch
        rng = np.random.default_rng(2024)
        small = 0
        for _ in range(2500):
            angle = np.radians(min(abs(float(rng.normal(0.0, 6.0))), 15.0))
            axis = rng.normal(size=3)
            rotvec = angle * axis / np.linalg.norm(axis)
            small += angle <= 1e-3
            self.assert_bit_equal(rotvec)
        assert small >= 5

    @pytest.mark.parametrize("angle", [
        0.0, 1e-8, 1e-4, np.nextafter(1e-3, 0.0), 1e-3,
        np.nextafter(1e-3, 1.0), 0.1, np.radians(15.0), np.pi])
    def test_bit_equal_around_the_small_angle_branch(self, angle):
        rng = np.random.default_rng(7)
        axes = [(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0)]
        axes += [a / np.linalg.norm(a) for a in rng.normal(size=(8, 3))]
        for axis in axes:
            self.assert_bit_equal(angle * np.asarray(axis))

    def test_profile_tilt_is_the_drawn_rotation(self):
        rng = np.random.default_rng(3)
        profile = make_subject_profile("s01", np.random.default_rng(3))
        rng.lognormal(0.0, 0.12)
        rng.lognormal(0.0, 0.10)
        angle_deg = min(abs(float(rng.normal(0.0, 6.0))), 15.0)
        axis = rng.normal(size=3)
        rotvec = np.radians(angle_deg) * (axis / np.linalg.norm(axis))
        want = Rotation.from_rotvec(rotvec).as_matrix()
        assert profile.tilt.tobytes() == want.tobytes()


class TestBoxFilter:
    @pytest.mark.parametrize("size", [3, 7, 15])
    @pytest.mark.parametrize("kind", ["constant", "step", "gaussian"])
    def test_bit_equal_to_uniform_filter1d(self, size, kind):
        # scipy.ndimage is imported here only: synth itself never loads it
        from scipy.ndimage import uniform_filter1d
        rng = np.random.default_rng([size, len(kind)])
        for length in (1, size - 1, size, 15000):
            for shape in ((length,), (length, 3)):
                if kind == "constant":
                    x = np.full(shape, 0.3)
                elif kind == "step":
                    x = np.where(np.arange(length) < length // 2, 0.15, 1.0)
                    x = np.broadcast_to(x.reshape((length,) + (1,) * (
                        len(shape) - 1)), shape)
                else:
                    x = rng.normal(size=shape) * 3.5e-5
                want = uniform_filter1d(x, size=size, axis=0,
                                        mode="nearest")
                got = box_filter(x, size)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (length, shape)

    def test_means_of_the_edge_extended_windows(self):
        got = box_filter(np.array([0.0, 3.0, 6.0, 9.0]), 3)
        assert got.tolist() == [1.0, 3.0, 6.0, 8.0]


class TestWriteDataset:
    def test_layout_and_round_trip(self, tmp_path):
        cfg = SynthConfig(n_subjects=2, reps=1, adl_minutes=2.0, seed=5)
        result = generate_dataset(cfg)
        write_dataset(result, tmp_path)
        for sub in ("s01", "s02"):
            for kind in ("recognition", "identification"):
                stream_path = tmp_path / kind / f"{sub}.csv"
                labels_path = tmp_path / kind / f"{sub}_labels.csv"
                assert stream_path.exists() and labels_path.exists()
                stream = parse_imu_csv(stream_path)
                assert stream.subject_id == sub
                parse_label_csv(labels_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest == result.manifest

    def test_label_files_match_generated_intervals(self, tmp_path):
        cfg = SynthConfig(n_subjects=2, reps=1, seed=5)
        result = generate_dataset(cfg)
        write_dataset(result, tmp_path)
        for stream, intervals in result.recognition:
            back = parse_label_csv(
                tmp_path / "recognition" / f"{stream.subject_id}_labels.csv")
            assert back == intervals

    def test_seed_20_tree_is_pinned(self, tmp_path):
        # sha256 of every file's relative path and bytes, in path order.
        # A dropped, added or reordered draw shifts the later draws of its
        # stream and so changes bytes here. The digest predates deleting
        # the profile's unused seed, the last draw of its stream.
        cfg = SynthConfig(n_subjects=2, reps=1, adl_minutes=0.5, seed=20)
        write_dataset(generate_dataset(cfg), tmp_path)
        files = [p for p in sorted(tmp_path.rglob("*")) if p.is_file()]
        digest = hashlib.sha256()
        for path in files:
            digest.update(path.relative_to(tmp_path).as_posix().encode()
                          + b"\0" + path.read_bytes())
        assert len(files) == 9
        assert digest.hexdigest() == ("ca6fb2b03153ca3c4d4e4611690efc24"
                                      "b6fa7d498122004bc743303bae7e2bca")

    def test_same_seed_writes_identical_bytes(self, tmp_path):
        cfg = SynthConfig(n_subjects=2, reps=1, seed=11)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        write_dataset(generate_dataset(cfg), a_dir)
        write_dataset(generate_dataset(cfg), b_dir)
        for path in sorted(a_dir.rglob("*")):
            if path.is_file():
                twin = b_dir / path.relative_to(a_dir)
                assert twin.read_bytes() == path.read_bytes()
