"""Nonlinear time-series core: delay embedding, recurrence plots, RQA
measures, and embedding-parameter estimation.

A scalar series is lifted into phase space by time-delay embedding, the
pairwise state distances are thresholded into a binary recurrence matrix,
and two quantifiers are computed per sliding window: the recurrence rate
(density of recurrences) and the transitivity of the recurrence network
(fraction of closed triples). The embedding delay is picked at the first
minimum of the average mutual information; the dimension by the false
nearest neighbours criterion.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import ValidationError
from .imu import write_file

NORMS = ("L1", "L2", "Linf")
_CDIST_METRIC = {"L1": "cityblock", "L2": "euclidean", "Linf": "chebyshev"}

# windows counted per batch by windowed_rqa. 32 x 121^2 float32 is 1.9 MB;
# 64 ran no faster and raised a spot run's peak RSS by 3.5 MB.
_WINDOW_CHUNK = 32


@dataclass(frozen=True)
class EmbeddingConfig:
    """Delay-embedding parameters: dimension ``m`` and delay ``tau``."""
    # this config's, RpConfig's and RqaWindowConfig's defaults were tuned
    # on the identification data
    m: int = 4
    tau: int = 1

    def __post_init__(self):
        if self.m < 1 or self.tau < 1:
            raise ValidationError("embedding requires m >= 1 and tau >= 1")

    def n_states(self, n: int) -> int:
        return n - (self.m - 1) * self.tau


@dataclass(frozen=True)
class RpConfig:
    """Recurrence threshold and the norm used for state distances."""
    # the 0.2*sqrt(m) rule of thumb gives 0.4, but 0.1 measured better
    epsilon: float = 0.1
    norm: str = "L2"

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ValidationError("epsilon must be positive and finite")
        if self.norm not in NORMS:
            raise ValidationError(f"norm must be one of {NORMS}")


@dataclass(frozen=True)
class RqaWindowConfig:
    """Sliding-window geometry for windowed RQA (80% overlap by default)."""
    window_len: int = 125
    step: int = 25

    def __post_init__(self):
        if not (0 < self.step <= self.window_len):
            raise ValidationError("need 0 < step <= window_len")

    def n_windows(self, n: int) -> int:
        """floor((n - window_len) / step) + 1, or 0 if n is short."""
        if n < self.window_len:
            return 0
        return (n - self.window_len) // self.step + 1

    def starts(self, n: int) -> np.ndarray:
        """Start index of every full window inside a series of length n."""
        return np.arange(self.n_windows(n), dtype=np.int64) * self.step


@dataclass(frozen=True)
class RecurrencePlot:
    """Binary recurrence matrix plus the configuration that produced it.

    The matrix is symmetric 0/1 with a unit main diagonal, which the RQA
    measures rely on.
    """
    matrix: np.ndarray
    rp_config: RpConfig
    embedding: EmbeddingConfig | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.uint8)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("recurrence matrix must be square")
        if (np.any(m > 1) or not np.array_equal(m, m.T)
                or not np.all(m.diagonal())):
            raise ValidationError("recurrence matrix must be symmetric 0/1 "
                                  "with a unit main diagonal")
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]


def time_delay_embed(series, cfg: EmbeddingConfig) -> np.ndarray:
    """Reconstruct the phase-space trajectory of a scalar series.

    State i (0-based) is ``[r_i, r_{i+tau}, ..., r_{i+(m-1)tau}]``; there
    are ``N - (m-1)*tau`` states.

    Parameters
    ----------
    series : 1-D array-like
    cfg : EmbeddingConfig

    Returns
    -------
    (n_states, m) float array.
    """
    r = np.asarray(series, dtype=np.float64)
    if r.ndim != 1:
        raise ValidationError("series must be 1-D")
    ns = cfg.n_states(len(r))
    if ns < 2:
        raise ValidationError(
            f"series of length {len(r)} too short for m={cfg.m}, tau={cfg.tau} "
            f"(would give {ns} states)")
    return np.column_stack([r[j * cfg.tau: j * cfg.tau + ns] for j in range(cfg.m)])


def _threshold(states, cfg: RpConfig, out: np.ndarray) -> None:
    """Write ``||x_i - x_j|| <= epsilon`` for every state pair into ``out``
    (any numeric dtype; 1 for a recurrence, 0 otherwise)."""
    dist = cdist(states, states, metric=_CDIST_METRIC[cfg.norm])
    np.less_equal(dist, cfg.epsilon, out=out)


def recurrence_plot(states, cfg: RpConfig,
                    embedding: EmbeddingConfig | None = None) -> RecurrencePlot:
    """Threshold pairwise state distances into a recurrence matrix.

    R[i, j] = 1 iff ||x_i - x_j|| <= epsilon; ties at exactly epsilon are
    recurrences (Heaviside step with theta(0) = 1). The matrix is
    symmetric with a unit main diagonal.
    """
    x = np.asarray(states, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or len(x) < 2:
        raise ValidationError("need at least 2 states of equal dimension")
    matrix = np.empty((len(x), len(x)), dtype=np.uint8)
    _threshold(x, cfg, matrix)
    np.fill_diagonal(matrix, 1)
    return RecurrencePlot(matrix=matrix, rp_config=cfg, embedding=embedding)


def _rr_tra(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recurrence rate and transitivity of each matrix in a stack.

    ``stack`` is a (k, n, n) float32 array of symmetric 0/1 recurrence
    matrices whose main diagonal counts as all ones, whatever it holds;
    it is overwritten (the diagonal is zeroed). With A a matrix minus its
    diagonal and deg its row sums:

    - rr = (sum A + n) / n^2;
    - tra = sum (A @ A) * A / sum deg * (deg - 1), or 0 when the
      denominator is 0.

    Both are exact for n < 2^17 states. Every entry of A @ A counts
    common neighbours, an integer of at most n - 1 < 2^24, so the float32
    matrix product holds each partial sum exactly in any summation order.
    The totals are integers below n^3 < 2^53, summed in float64, so they
    are exact too, and rr and tra are the correctly rounded quotients of
    exact counts.
    """
    k, n, _ = stack.shape
    diag = np.arange(n)
    stack[:, diag, diag] = 0.0
    deg = stack.sum(axis=2, dtype=np.float64)
    rr = (deg.sum(axis=1) + n) / float(n * n)
    connected = np.sum(deg * (deg - 1.0), axis=1)
    paths = np.matmul(stack, stack)
    paths *= stack
    closed = paths.sum(axis=(1, 2), dtype=np.float64)
    tra = np.zeros(k)
    np.divide(closed, connected, out=tra, where=connected > 0.0)
    return rr, tra


def recurrence_rate(rp: RecurrencePlot) -> float:
    """Density of ones in the matrix, the unit main diagonal included."""
    rr, _ = _rr_tra(rp.matrix[None].astype(np.float32))
    return float(rr[0])


def transitivity(rp: RecurrencePlot) -> float:
    """Transitivity of the recurrence network.

    With A the recurrence matrix minus its main diagonal,
    ``TRA = sum_ijk A_ij A_jk A_ki / sum_{i, j != k} A_ij A_ik``
    (closed ordered triples over connected ordered triples); an empty
    denominator yields 0.
    """
    _, tra = _rr_tra(rp.matrix[None].astype(np.float32))
    return float(tra[0])


def ami_curve(series, max_lag: int, bins: int = 16) -> np.ndarray:
    """Average mutual information of a series against its lagged copy.

    I(tau) in bits over equal-width bin pairs of (r_i, r_{i+tau}); the bin
    grid spans [min, max] of the full series. Returns I(0)..I(max_lag);
    I(0) is the binned entropy of the series.
    """
    r = np.asarray(series, dtype=np.float64)
    if bins < 2:
        raise ValidationError("need at least 2 bins")
    if len(r) < max_lag + 2:
        raise ValidationError(f"series of length {len(r)} too short for max_lag={max_lag}")
    lo, hi = float(r.min()), float(r.max())
    if hi == lo:
        return np.zeros(max_lag + 1)
    edges = np.linspace(lo, hi, bins + 1)
    idx = np.clip(np.digitize(r, edges) - 1, 0, bins - 1)
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        a = idx[: len(r) - lag]
        b = idx[lag:]
        joint = np.zeros((bins, bins))
        np.add.at(joint, (a, b), 1.0)
        joint /= joint.sum()
        pa = joint.sum(axis=1)
        pb = joint.sum(axis=0)
        nz = joint > 0
        out[lag] = np.sum(joint[nz] * np.log2(joint[nz] / np.outer(pa, pb)[nz]))
    return np.maximum(out, 0.0)


def estimate_delay(ami) -> int:
    """Delay at the first interior minimum of the AMI curve.

    A minimum sitting in a flat basin resolves to the basin's centre:
    neighbouring lags within 1% of the curve's range of the basin floor
    belong to the same minimum. On noiseless periodic series the binned
    estimator bottoms out in such a plateau around the quarter period,
    and its left edge would otherwise win on float-level drift. Falls
    back to tau = 1 when the curve has no interior minimum, which is
    also the value the identification pipeline settles on.
    """
    a = np.asarray(ami, dtype=np.float64)
    n = len(a)
    if n == 0:
        raise ValidationError("empty AMI curve")
    tol = 0.01 * float(a.max() - a.min())
    for tau in range(1, n - 1):
        if not a[tau - 1] > a[tau] < a[tau + 1]:
            continue
        lo = hi = tau
        floor = a[tau]
        grew = True
        while grew:
            grew = False
            if lo > 0 and a[lo - 1] <= floor + tol:
                lo -= 1
                floor = min(floor, a[lo])
                grew = True
            if hi < n - 1 and a[hi + 1] <= floor + tol:
                hi += 1
                floor = min(floor, a[hi])
                grew = True
        if lo > 0 and hi < n - 1:
            return (lo + hi) // 2
    return 1


def fnn_fraction(series, m: int, tau: int,
                 r_tol: float = 10.0, a_tol: float = 2.0) -> float:
    """Fraction of false nearest neighbours when lifting m -> m+1.

    A nearest neighbour in dimension m is false if the new coordinate
    separates the pair (distance-ratio test against ``r_tol``) or if the
    lifted distance is large relative to the attractor size, estimated as
    the series standard deviation (``a_tol`` test). Pairs coincident in
    dimension m count as false only if the lift splits them; coincidence
    is judged against a floor of 1e-9 of the attractor size rather than
    exact zero, since noiseless periodic series repeat states up to
    float rounding and ulp-sized denominators would blow up the ratio
    test.
    """
    r = np.asarray(series, dtype=np.float64)
    emb = EmbeddingConfig(m=m, tau=tau)
    emb1 = EmbeddingConfig(m=m + 1, tau=tau)
    y = time_delay_embed(r, emb)
    n1 = emb1.n_states(len(r))
    if n1 < 2:
        raise ValidationError(
            f"series of length {len(r)} too short to lift to m={m + 1}")
    y = y[:n1]
    attractor = float(np.std(r))
    tree = cKDTree(y)
    dist, nbr = tree.query(y, k=2)
    d_m = dist[:, 1]
    j = nbr[:, 1]
    d_new = np.abs(r[np.arange(n1) + m * tau] - r[j + m * tau])
    false = np.zeros(n1, dtype=bool)
    eps0 = 1e-9 * attractor
    zero = d_m <= eps0
    false[zero] = d_new[zero] > eps0
    nz = ~zero
    if attractor > 0.0:
        d_m1 = np.sqrt(d_m[nz] ** 2 + d_new[nz] ** 2)
        false[nz] = (d_new[nz] / d_m[nz] > r_tol) | (d_m1 / attractor > a_tol)
    else:
        false[nz] = d_new[nz] / d_m[nz] > r_tol
    return float(np.mean(false))


def estimate_dimension(series, tau: int, cap: int = 10,
                       threshold: float = 0.01) -> int:
    """Smallest m with an FNN fraction below ``threshold`` (default 1%).

    Scans m = 1..cap; if no m qualifies the cap is returned and a
    RuntimeWarning is emitted.
    """
    for m in range(1, cap + 1):
        if fnn_fraction(series, m, tau) < threshold:
            return m
    warnings.warn(f"FNN fraction never fell below {threshold:g} up to m={cap}; "
                  f"returning the cap", RuntimeWarning, stacklevel=2)
    return cap


def windowed_rqa(series, emb: EmbeddingConfig, rp: RpConfig,
                 win: RqaWindowConfig) -> np.ndarray:
    """RR and TRA per sliding window of a scalar series, as an
    ``(n_windows, 2)`` float64 array of ``rr, tra`` rows.

    Row k is the window covering samples ``[k*step, k*step + window_len)``,
    the one starting at ``win.starts(N)[k]``; there are
    ``floor((N - window_len)/step) + 1`` windows. The series is embedded
    once, and window k's states are rows ``k*step`` onwards of that
    embedding, bit for bit the states of the window embedded on its own.
    Each window's distances are thresholded into a float32 stack of up to
    ``_WINDOW_CHUNK`` recurrence matrices, and the stack is counted at
    once by ``_rr_tra``, whose integer counts are exact for windows of
    fewer than 2^17 states. So every row equals the RR and TRA of the
    window's own ``recurrence_plot``, bit for bit, whatever its
    neighbours.
    """
    r = np.asarray(series, dtype=np.float64)
    if win.window_len < (emb.m - 1) * emb.tau + 2:
        raise ValidationError("window shorter than the embedding needs")
    if len(r) < win.window_len:
        raise ValidationError(
            f"series of length {len(r)} shorter than one window ({win.window_len})")
    states = time_delay_embed(r, emb)
    n = emb.n_states(win.window_len)
    starts = win.starts(len(r))
    stack = np.empty((min(len(starts), _WINDOW_CHUNK), n, n), dtype=np.float32)
    out = np.empty((len(starts), 2))
    for lo in range(0, len(starts), _WINDOW_CHUNK):
        chunk = starts[lo: lo + _WINDOW_CHUNK]
        for k, start in enumerate(chunk):
            _threshold(states[start: start + n], rp, stack[k])
        hi = lo + len(chunk)
        out[lo:hi, 0], out[lo:hi, 1] = _rr_tra(stack[:len(chunk)])
    return out


def write_rqa_csv(starts, X, path) -> None:
    """Feature export of window starts and their ``rr, tra`` rows: header
    ``window_start,rr,tra``."""
    write_file(path, "window_start,rr,tra\n" + "".join(
        f"{start},{rr!r},{tra!r}\n"
        for start, (rr, tra) in zip(starts.tolist(), X.tolist())))


def write_rp_pgm(rp: RecurrencePlot, path) -> None:
    """Export the matrix as binary PGM (P5), one pixel per cell.

    Pixel value 255 (white) marks a recurrent cell, 0 (black) a
    non-recurrent one; row i of the image is state i.
    """
    n = rp.n_states
    write_file(path, f"P5\n{n} {n}\n255\n".encode("ascii")
               + (rp.matrix * np.uint8(255)).tobytes())
