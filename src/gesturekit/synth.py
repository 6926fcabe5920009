"""Synthetic 9-channel IMU corpus generator.

Twelve parametric hand trajectories in a unit workspace (x lateral,
y forward, z vertical), per-subject amplitude/speed/tilt/noise variation,
and two corpus kinds per subject:

* recognition: the subject's gesture repetitions concatenated with short
  rest holds, plus ground-truth intervals labeled by class;
* identification: a long stream of smoothed random background motion with
  rest gaps, in which a few gestures are embedded at low prevalence.

Every gesture starts and ends at rest (smoothstep time warp plus a
2-sample hold at both ends). All randomness derives from the master seed
keyed by subject/segment indices, so per-subject generation can run in
any order or in parallel and still produce identical bytes. The inverse
sensor model turns positions into accelerometer (second central
difference plus rotated gravity), a gyroscope proxy (scaled first
difference of displacement), and a rotated constant magnetic field, each
with per-channel Gaussian noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .imu import (GESTURES, ImuStream, LabeledInterval, write_file,
                  write_imu_csv, write_label_csv)
from .seeding import ADL, NOISE, SEGMENT, SUBJECT, derive_rng

GRAVITY_MS2 = 9.81
BASE_AMPLITUDE_M = 0.25
# common forward-reach bump (unit workspace): keeps every class visible on
# the y acceleration channel that drives identification
REACH = 0.3
# orientation proxy gain, rad per meter of displacement
ORI_GAIN = 1.5
MAG_FIELD_UT = np.array([22.0, 0.0, -42.0])
# nominal duration of every gesture, before a subject's speed scale
GESTURE_S = 1.2


def _line(direction):
    d = np.asarray(direction, dtype=np.float64)

    def path(u):
        return u[:, None] * d[None, :]
    return path


def _circle(sign):
    def path(u):
        th = 2.0 * np.pi * u
        return np.column_stack([sign * np.sin(th), np.zeros_like(u),
                                np.cos(th) - 1.0])
    return path


def _polyline(points):
    pts = np.asarray(points, dtype=np.float64)
    knots = np.linspace(0.0, 1.0, len(pts))

    def path(u):
        return np.column_stack([np.interp(u, knots, pts[:, j])
                                for j in range(3)])
    return path


def _wave(z_sign):
    def path(u):
        return np.column_stack([u, np.zeros_like(u),
                                z_sign * 0.5 * np.sin(np.pi * u)])
    return path


# each gesture's parametric 3D path over [0, 1] in the unit workspace
TEMPLATES = {
    "Up": _line((0.0, 0.0, 1.0)),
    "Down": _line((0.0, 0.0, -1.0)),
    "Left": _line((-1.0, 0.0, 0.0)),
    "Right": _line((1.0, 0.0, 0.0)),
    "CW": _circle(1.0),
    "CCW": _circle(-1.0),
    "Z": _polyline([(0, 0, 0), (1, 0, 0), (0, 0, -1), (1, 0, -1)]),
    "AZ": _polyline([(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)]),
    "S": _wave(1.0),
    "AS": _wave(-1.0),
    "Push": _line((0.0, 1.0, 0.0)),
    "Pull": _line((0.0, -1.0, 0.0)),
}
assert set(TEMPLATES) == set(GESTURES)


@dataclass(frozen=True)
class SubjectProfile:
    """Per-subject rendering parameters; tilt is a rotation matrix."""
    subject_id: str
    amplitude_scale: float
    speed_scale: float
    tilt: np.ndarray
    noise_acc: float
    noise_gyro: float
    noise_mag: float

    def __post_init__(self):
        if self.amplitude_scale <= 0 or self.speed_scale <= 0:
            raise ValidationError("scales must be positive")
        tilt = np.asarray(self.tilt, dtype=np.float64)
        if tilt.shape != (3, 3):
            raise ValidationError("tilt must be a 3x3 rotation matrix")
        cos_angle = np.clip((np.trace(tilt) - 1.0) / 2.0, -1.0, 1.0)
        if np.degrees(np.arccos(cos_angle)) > 15.0 + 1e-9:
            raise ValidationError("tilt angle exceeds 15 degrees")
        if min(self.noise_acc, self.noise_gyro, self.noise_mag) < 0:
            raise ValidationError("noise levels must be non-negative")
        object.__setattr__(self, "tilt", tilt)
        tilt.setflags(write=False)


def rotation_matrix(rotvec) -> np.ndarray:
    """The 3x3 matrix of the rotation by ``|rotvec|`` radians about
    ``rotvec``'s direction.

    It goes through the unit quaternion, rounding each step as
    ``scipy.spatial.transform.Rotation.from_rotvec(rotvec).as_matrix()``
    does, so the two agree bit for bit without importing
    scipy.spatial. At an angle of at most 1e-3 rad, ``sin(angle/2) /
    angle`` is its Taylor series, as there.
    """
    v0, v1, v2 = (float(c) for c in rotvec)
    angle = math.sqrt(v0 * v0 + v1 * v1 + v2 * v2)
    if angle <= 1e-3:
        angle2 = angle * angle
        scale = 0.5 - angle2 / 48 + angle2 * angle2 / 3840
    else:
        scale = math.sin(angle / 2) / angle
    x, y, z, w = scale * v0, scale * v1, scale * v2, math.cos(angle / 2)
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array([[x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
                     [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
                     [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2]])


def make_subject_profile(subject_id: str, rng) -> SubjectProfile:
    """Draw a subject's variation parameters from its derived stream."""
    amplitude = float(rng.lognormal(0.0, 0.12))
    speed = float(rng.lognormal(0.0, 0.10))
    angle_deg = min(abs(float(rng.normal(0.0, 6.0))), 15.0)
    axis = rng.normal(size=3)
    norm = np.linalg.norm(axis)
    axis = axis / norm if norm > 1e-9 else np.array([0.0, 0.0, 1.0])
    tilt = rotation_matrix(np.radians(angle_deg) * axis)
    noise_factor = float(rng.lognormal(0.0, 0.15))
    return SubjectProfile(subject_id=subject_id,
                          amplitude_scale=amplitude, speed_scale=speed,
                          tilt=tilt,
                          noise_acc=0.01 * noise_factor,
                          noise_gyro=0.05 * noise_factor,
                          noise_mag=0.3 * noise_factor)


def _smoothstep(v):
    return v * v * (3.0 - 2.0 * v)


def gesture_trajectory(template, profile: SubjectProfile,
                       rate_hz: float) -> np.ndarray:
    """Render one ``TEMPLATES`` path as an (n, 3) position sequence in
    meters.

    n = round(GESTURE_S * speed_scale * rate), at least 12. The path is
    time-warped by a smoothstep (zero end velocity), given the common
    forward-reach bump, scaled by amplitude, rotated by the subject tilt,
    and held for 2 samples at each end so the first difference vanishes
    exactly at the boundaries.
    """
    n = int(round(GESTURE_S * profile.speed_scale * rate_hz))
    n = max(n, 12)
    v = np.linspace(0.0, 1.0, n - 4)
    u = _smoothstep(v)
    path = template(u).copy()
    path[:, 1] += REACH * 4.0 * u * (1.0 - u)
    path *= BASE_AMPLITUDE_M * profile.amplitude_scale
    path = path @ profile.tilt.T
    return np.vstack([path[:1], path[:1], path, path[-1:], path[-1:]])


def trajectory_to_imu(positions, profile: SubjectProfile, rate_hz: float,
                      rng) -> ImuStream:
    """Inverse sensor model: positions to a 9-channel stream.

    Accelerometer rows are the second central difference times rate^2
    (edge rows replicate their neighbor) plus the tilt-rotated gravity
    vector; the gyroscope proxy differentiates a small-angle orientation
    proportional to displacement; the magnetometer sees a constant
    tilt-rotated field. Per-channel Gaussian noise draws from ``rng``.
    """
    P = np.asarray(positions, dtype=np.float64)
    if P.ndim != 2 or P.shape[1] != 3 or len(P) < 3:
        raise ValidationError("need at least 3 positions of dimension 3")
    acc = np.empty_like(P)
    acc[1:-1] = (P[2:] - 2.0 * P[1:-1] + P[:-2]) * rate_hz ** 2
    acc[0] = acc[1]
    acc[-1] = acc[-2]
    acc = acc + profile.tilt @ np.array([0.0, 0.0, GRAVITY_MS2])
    acc += rng.normal(0.0, 1.0, P.shape) * profile.noise_acc

    ori = ORI_GAIN * (P - P[0])
    gyro = np.empty_like(P)
    gyro[1:] = np.diff(ori, axis=0) * rate_hz
    gyro[0] = gyro[1]
    gyro += rng.normal(0.0, 1.0, P.shape) * profile.noise_gyro

    mag = np.tile(profile.tilt @ MAG_FIELD_UT, (len(P), 1))
    mag += rng.normal(0.0, 1.0, P.shape) * profile.noise_mag

    return ImuStream(subject_id=profile.subject_id,
                     channels=np.hstack([acc, gyro, mag]))


@dataclass(frozen=True)
class SynthConfig:
    n_subjects: int = 15
    reps: int = 5
    rate_hz: float = 50.0
    adl_minutes: float = 0.0        # per subject; 0 skips the ADL streams
    gesture_fraction: float = 0.005
    seed: int = 0

    def __post_init__(self):
        if self.n_subjects < 2:
            raise ValidationError("n_subjects must be >= 2")
        if self.reps < 1:
            raise ValidationError("reps must be >= 1")
        if not 0.0 < self.rate_hz < np.inf:
            raise ValidationError("rate must be positive and finite")
        if not 0.0 <= self.adl_minutes < np.inf:
            raise ValidationError("adl_minutes must be non-negative and "
                                  "finite")
        if not 0.0 < self.gesture_fraction < 0.5:
            raise ValidationError("gesture_fraction must be in (0, 0.5)")

    def subject_ids(self) -> list[str]:
        return [f"s{i + 1:02d}" for i in range(self.n_subjects)]


def _jittered(profile: SubjectProfile, rng) -> SubjectProfile:
    # small per-repetition variation on top of the subject's own scales
    return replace(profile,
                   amplitude_scale=profile.amplitude_scale
                   * float(rng.lognormal(0.0, 0.05)),
                   speed_scale=profile.speed_scale
                   * float(rng.lognormal(0.0, 0.05)))


def _recognition_stream(cfg: SynthConfig, profile: SubjectProfile,
                        si: int):
    """One subject's gesture repetitions concatenated with rest holds."""
    order_rng = derive_rng(cfg.seed, SEGMENT, si)
    items = [(ci, r) for ci in range(len(GESTURES)) for r in range(cfg.reps)]
    perm = order_rng.permutation(len(items))

    def gap():
        return int(round(cfg.rate_hz * order_rng.uniform(0.4, 0.9)))

    pieces = [np.zeros((gap(), 3))]
    cursor = len(pieces[0])
    offset = np.zeros(3)
    intervals = []
    for idx in perm:
        ci, r = items[idx]
        jit_rng = derive_rng(cfg.seed, SEGMENT, si, ci, r)
        path = gesture_trajectory(TEMPLATES[GESTURES[ci]],
                                  _jittered(profile, jit_rng), cfg.rate_hz)
        pieces.append(offset + path)
        intervals.append(LabeledInterval(cursor, cursor + len(path),
                                         GESTURES[ci], profile.subject_id))
        cursor += len(path)
        offset = pieces[-1][-1]
        hold = gap()
        pieces.append(np.tile(offset, (hold, 1)))
        cursor += hold
    positions = np.vstack(pieces)
    stream = trajectory_to_imu(positions, profile, cfg.rate_hz,
                               rng=derive_rng(cfg.seed, NOISE, si, 0))
    return stream, intervals


def first_order_filter(x, gain: float, decay: float) -> np.ndarray:
    """``y[n] = decay * y[n-1] + gain * x[n]`` down each column of ``x``,
    from ``y[-1] = 0``.

    Each step rounds ``gain * x[n]``, then ``decay * y[n-1]``, then their
    sum, as the transposed direct form of ``scipy.signal.lfilter([gain],
    [1, -decay], x, axis=0)`` does, so the two agree bit for bit without
    importing scipy.signal (about 36 MB and 0.2 s).
    """
    y = np.empty_like(x, dtype=np.float64)
    # one column of Python floats at a time holds a third of the memory
    for j in range(x.shape[1]):
        column = (x[:, j] * gain).tolist()
        prev = 0.0
        y[:, j] = [prev := s + prev * decay for s in column]
    return y


def box_filter(x, size: int) -> np.ndarray:
    """Mean of the ``size`` samples around each one, down axis 0 of ``x``,
    the ends extended by repeating the edge samples.

    A running window sum starts from the first window's samples added in
    order, then adds each entering sample minus the leaving one, and each
    sum is divided by ``size``. That is the arithmetic of
    ``scipy.ndimage.uniform_filter1d(x, size, axis=0, mode="nearest")``,
    so the two agree bit for bit without importing scipy.ndimage.
    """
    x = np.asarray(x, dtype=np.float64)
    left = size // 2
    padded = np.concatenate([np.repeat(x[:1], left, axis=0), x,
                             np.repeat(x[-1:], size - 1 - left, axis=0)])
    sums = np.empty_like(padded)
    sums[:size] = padded[:size]
    np.subtract(padded[size:], padded[:-size], out=sums[size:])
    np.cumsum(sums, axis=0, out=sums)
    means = sums[size - 1:]
    means /= size
    return means


def _identification_stream(cfg: SynthConfig, profile: SubjectProfile,
                           si: int):
    """A long low-prevalence stream: OU background, rest gaps, gestures.

    The background is an Ornstein-Uhlenbeck velocity (theta 0.15)
    smoothed by a short moving average, gated by a rest envelope, and
    damped while a gesture plays; gesture velocity is added on top so the
    position stays continuous across gesture boundaries.
    """
    rng = derive_rng(cfg.seed, ADL, si)
    L = int(round(cfg.adl_minutes * 60.0 * cfg.rate_hz))
    nominal = int(round(GESTURE_S * cfg.rate_hz))
    margin = int(round(1.0 * cfg.rate_hz))
    if L < 4 * (nominal + 2 * margin):
        raise ValidationError("adl_minutes too small for gesture embedding")

    # fidget-scale background: the induced accelerations stay near the
    # recurrence threshold so quiet stretches recur and gesture sweeps
    # (an order of magnitude larger) do not
    theta, sigma = 0.15, 3.5e-5
    v_bg = first_order_filter(rng.normal(size=(L, 3)), sigma, 1.0 - theta)
    v_bg = box_filter(v_bg, 7)

    env = np.ones(L)
    cursor = int(round(cfg.rate_hz * rng.uniform(1.0, 3.0)))
    while cursor < L:
        cursor += int(round(cfg.rate_hz * rng.uniform(2.0, 6.0)))
        rest = int(round(cfg.rate_hz * rng.uniform(0.5, 2.0)))
        env[cursor:cursor + rest] = 0.0
        cursor += rest
    env = box_filter(env, max(3, int(round(0.3 * cfg.rate_hz))))

    n_gestures = max(1, int(round(cfg.gesture_fraction * L / nominal)))
    block = L // n_gestures
    damp = np.ones(L)
    v_gest = np.zeros((L, 3))
    intervals = []
    for gi in range(n_gestures):
        cls = GESTURES[int(rng.integers(len(GESTURES)))]
        path = gesture_trajectory(TEMPLATES[cls], _jittered(profile, rng),
                                  cfg.rate_hz)
        g_len = len(path)
        lo = gi * block + margin
        hi = (gi + 1) * block - g_len - margin
        start = lo if hi <= lo else lo + int(rng.integers(hi - lo))
        start = min(start, L - g_len - 1)
        step = np.diff(path, axis=0, prepend=path[:1])
        v_gest[start:start + g_len] += step
        damp[start:start + g_len] = 0.15
        intervals.append(LabeledInterval(start, start + g_len, cls,
                                         profile.subject_id))
    damp = box_filter(damp, max(3, int(round(0.3 * cfg.rate_hz))))

    positions = np.cumsum(v_bg * (env * damp)[:, None] + v_gest, axis=0)
    stream = trajectory_to_imu(positions, profile, cfg.rate_hz,
                               rng=derive_rng(cfg.seed, NOISE, si, 1))
    return stream, intervals


def generate_subject(cfg: SynthConfig, si: int):
    """All corpus pieces for one subject; pure function of (cfg, si)."""
    subject_id = cfg.subject_ids()[si]
    profile = make_subject_profile(subject_id,
                                   derive_rng(cfg.seed, SUBJECT, si))
    recognition = _recognition_stream(cfg, profile, si)
    identification = (None if cfg.adl_minutes == 0
                      else _identification_stream(cfg, profile, si))
    return profile, recognition, identification


@dataclass
class SynthResult:
    recognition: list[tuple[ImuStream, list[LabeledInterval]]]
    identification: list[tuple[ImuStream, list[LabeledInterval]]]
    manifest: dict


def generate_dataset(cfg: SynthConfig, mapper=map) -> SynthResult:
    """Generate the full corpus; ``mapper`` may be a parallel map."""
    rows = list(mapper(_subject_task, [(cfg, si)
                                       for si in range(cfg.n_subjects)]))
    profiles = [r[0] for r in rows]
    recognition = [r[1] for r in rows]
    identification = [r[2] for r in rows if r[2] is not None]
    per_class = {g: cfg.n_subjects * cfg.reps for g in GESTURES}
    manifest = {
        "master_seed": cfg.seed,
        "rate_hz": cfg.rate_hz,
        "n_subjects": cfg.n_subjects,
        "reps_per_gesture": cfg.reps,
        "adl_minutes_per_subject": cfg.adl_minutes,
        "gesture_fraction_target": cfg.gesture_fraction,
        "per_class_counts": per_class,
        "subjects": [{
            "id": p.subject_id,
            "amplitude_scale": p.amplitude_scale,
            "speed_scale": p.speed_scale,
            "noise_acc": p.noise_acc,
            "segments": len(GESTURES) * cfg.reps,
        } for p in profiles],
    }
    return SynthResult(recognition=recognition, identification=identification,
                       manifest=manifest)


def _subject_task(args):
    return generate_subject(*args)


def write_dataset(result: SynthResult, out_dir) -> None:
    """Emit per-subject stream + label CSVs and the manifest."""
    out = Path(out_dir)
    rec = out / "recognition"
    rec.mkdir(parents=True, exist_ok=True)
    for stream, intervals in result.recognition:
        write_imu_csv(stream, rec / f"{stream.subject_id}.csv")
        write_label_csv(intervals, rec / f"{stream.subject_id}_labels.csv")
    if result.identification:
        ident = out / "identification"
        ident.mkdir(parents=True, exist_ok=True)
        for stream, intervals in result.identification:
            write_imu_csv(stream, ident / f"{stream.subject_id}.csv")
            write_label_csv(intervals,
                            ident / f"{stream.subject_id}_labels.csv")
    write_file(out / "manifest.json",
               json.dumps(result.manifest, indent=2, sort_keys=True) + "\n")
