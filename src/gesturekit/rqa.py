"""Nonlinear time-series core: delay embedding, recurrence plots, RQA
measures, and embedding-parameter estimation.

A scalar series is lifted into phase space by time-delay embedding, the
pairwise state distances are thresholded into a binary recurrence matrix
(``recurrence_plot`` returns it as a read-only uint8 array, symmetric
0/1 with a unit diagonal by construction), and two quantifiers are
computed per sliding window: the recurrence rate (density of
recurrences) and the transitivity of the recurrence network (closed over
connected triples). Both are ratios of integer counts, so overlapping
windows share them: ``windowed_rqa`` thresholds the band of state pairs
less than a window apart once, and counts each triangle once, in the
block of ``step`` states that holds its lowest state; a window adds up
the column prefixes of the blocks it covers. The float32 counts are
exact for windows of fewer than 2^24 states and the float64 totals for
fewer than 2^17, so a window's rr and tra equal those of its own plot,
bit for bit. The embedding delay is picked at the first minimum of the
average mutual information; the dimension by the false nearest
neighbours criterion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import ValidationError
from .imu import CHANNELS, format_float, read_number, write_file

NORMS = ("L1", "L2", "Linf")

# plot rows thresholded at a time by _threshold: a plot of n states needs
# its n^2 uint8 cells, never n^2 float64 distances. 16 and 32 rows ran
# slower at 4000 states, as the m difference blocks outgrow the cache.
_THRESHOLD_ROWS = 8

# band rows per lag-difference array in _band; 64 and 128 ran slower
_BAND_ROWS = 256

# blocks counted per chunk by windowed_rqa. At the default geometry, 32
# blocks hold a 0.9 MB float32 band and 0.4 MB of triangle counts; 64
# ran no faster.
_BLOCK_CHUNK = 32


@dataclass(frozen=True)
class RqaConfig:
    """Windowed-RQA settings: the analysed channel, the sliding-window
    geometry (80% overlap by default), the delay embedding (dimension m,
    delay tau) and the recurrence threshold with its norm.

    The field names are also train-identifier's option dests and an
    identifier file's ``[rqa]`` keys; the field order is the order of
    the ``[rqa]`` lines.
    """
    # the defaults were tuned on the identification data
    series: str = "acc_y"
    window_len: int = 125
    step: int = 25
    dimension: int = 4
    delay: int = 1
    # the 0.2*sqrt(m) rule of thumb gives 0.4, but 0.1 measured better
    epsilon: float = 0.1
    norm: str = "L2"

    def __post_init__(self):
        if self.series not in CHANNELS:
            raise ValidationError(f"unknown channel {self.series!r}")
        if not (0 < self.step <= self.window_len):
            raise ValidationError("need 0 < step <= window_len")
        if self.dimension < 1 or self.delay < 1:
            raise ValidationError("embedding requires m >= 1 and tau >= 1")
        if not 0.0 < self.epsilon < np.inf:
            raise ValidationError("epsilon must be positive and finite")
        if self.norm not in NORMS:
            raise ValidationError(f"norm must be one of {NORMS}")

    @classmethod
    def parse(cls, values) -> "RqaConfig":
        """The config that ``values`` maps by field name, as parsed option
        values or as ``[rqa]`` text alike. Each value is typed by its
        field's default, a number in text by ``read_number``; a field
        ``values`` lacks keeps its default, and other keys are ignored."""
        def typed(default, value):
            if isinstance(value, str) and not isinstance(default, str):
                return read_number(value, type(default))
            return type(default)(value)
        return cls(**{f.name: typed(f.default, values[f.name])
                      for f in fields(cls) if f.name in values})

    def text(self) -> tuple[tuple[str, str], ...]:
        """The ``(key, value)`` pairs of the ``[rqa]`` section."""
        return tuple((k, format_float(v) if isinstance(v, float) else str(v))
                     for k, v in asdict(self).items())

    def check_window(self) -> None:
        """Reject a window too short to hold two embedded states."""
        if self.n_states(self.window_len) < 2:
            raise ValidationError("window shorter than the embedding needs")

    def check_length(self, n: int, what: str) -> None:
        """Reject ``what``, a series of n samples, if it is shorter than
        one window."""
        if n < self.window_len:
            raise ValidationError(f"{what} of length {n} shorter than one "
                                  f"window ({self.window_len})")

    def n_states(self, n: int) -> int:
        return n - (self.dimension - 1) * self.delay

    def n_windows(self, n: int) -> int:
        """floor((n - window_len) / step) + 1, or 0 if n is short."""
        if n < self.window_len:
            return 0
        return (n - self.window_len) // self.step + 1

    def starts(self, n: int) -> np.ndarray:
        """Start index of every full window inside a series of length n."""
        return np.arange(self.n_windows(n), dtype=np.int64) * self.step


def time_delay_embed(series, cfg: RqaConfig) -> np.ndarray:
    """Reconstruct the phase-space trajectory of a scalar series.

    State i (0-based) is ``[r_i, r_{i+tau}, ..., r_{i+(m-1)tau}]``; there
    are ``N - (m-1)*tau`` states.

    Parameters
    ----------
    series : 1-D array-like
    cfg : RqaConfig; its dimension is m and its delay tau

    Returns
    -------
    (n_states, m) float array: a read-only view of the series, not an
    m-column copy of it.
    """
    r = np.asarray(series, dtype=np.float64)
    if r.ndim != 1:
        raise ValidationError("series must be 1-D")
    ns = cfg.n_states(len(r))
    if ns < 2:
        raise ValidationError(
            f"series of length {len(r)} too short for m={cfg.dimension}, "
            f"tau={cfg.delay} (would give {ns} states)")
    return as_strided(r, (ns, cfg.dimension),
                      (r.strides[0], cfg.delay * r.strides[0]),
                      writeable=False)


def _limit(cfg: RqaConfig) -> float:
    """The largest combined distance term of a recurrence: epsilon, or for
    L2, whose terms are squares, the largest double whose square root is
    at most epsilon. ``sqrt`` is correctly rounded and monotone, so a sum
    is at most this limit exactly when its root is at most epsilon, and
    no root need be taken."""
    eps = cfg.epsilon
    if cfg.norm != "L2":
        return eps
    limit = eps * eps
    while math.sqrt(limit) > eps:
        limit = math.nextafter(limit, 0.0)
    while math.sqrt(math.nextafter(limit, math.inf)) <= eps:
        limit = math.nextafter(limit, math.inf)
    return limit


def _terms(diff: np.ndarray, cfg: RqaConfig) -> np.ndarray:
    """Turn coordinate differences, in place, into the terms ``cfg``'s norm
    combines: squares for L2, absolute values otherwise."""
    return np.square(diff, out=diff) if cfg.norm == "L2" \
        else np.abs(diff, out=diff)


def _within(terms, cfg: RqaConfig, limit: float, out: np.ndarray) -> None:
    """Write into ``out`` whether each distance is within epsilon, from its
    per-coordinate ``terms`` (a sequence of equal-shape arrays, one per
    coordinate, in coordinate order) and ``_limit(cfg)``.

    The terms are combined left to right, by ``+`` for L2 and L1 and by
    ``maximum`` for Linf, the order in which ``scipy.spatial.distance.cdist``
    combines them, so every cell is the one that thresholding ``cdist``
    gives. A NaN term makes no recurrence under any norm.
    """
    total = terms[0]
    if len(terms) > 1:
        combine = np.maximum if cfg.norm == "Linf" else np.add
        total = combine(terms[0], terms[1])
        for term in terms[2:]:
            combine(total, term, out=total)
    np.less_equal(total, limit, out=out)


# a difference or square beyond the float range is inf, as in cdist, and
# NaN past the series is meant: neither warns
_quiet = np.errstate(over="ignore", invalid="ignore")


@_quiet
def _threshold(states: np.ndarray, cfg: RqaConfig, out: np.ndarray) -> None:
    """Write ``||x_i - x_j|| <= epsilon`` for every state pair into the
    square uint8 array ``out``, ``_THRESHOLD_ROWS`` rows at a time.

    Each block of rows takes its pairs from the diagonal on: one
    difference array per coordinate, turned into terms and combined by
    ``_within``. The difference of a pair is the negated difference of
    its mirror pair, so the terms, and the cells, are symmetric exactly,
    and each block copies the cells left of its diagonal from the
    transposed rows above it.
    """
    n, m = states.shape
    limit = _limit(cfg)
    columns = np.ascontiguousarray(states.T)
    diff = np.empty(m * _THRESHOLD_ROWS * n)
    for lo in range(0, n, _THRESHOLD_ROWS):
        hi = min(lo + _THRESHOLD_ROWS, n)
        block = diff[: m * (hi - lo) * (n - lo)].reshape(m, hi - lo, n - lo)
        np.subtract(columns[:, lo:hi, None], columns[:, None, lo:], out=block)
        _within(_terms(block, cfg), cfg, limit, out[lo:hi, lo:])
        out[lo:hi, :lo] = out[:lo, lo:hi].T


def recurrence_plot(states, cfg: RqaConfig) -> np.ndarray:
    """Threshold pairwise state distances into a recurrence matrix.

    R[i, j] = 1 iff ||x_i - x_j|| <= epsilon; ties at exactly epsilon are
    recurrences (Heaviside step with theta(0) = 1). The matrix is a
    read-only square uint8 array, symmetric 0/1 with a unit main
    diagonal.
    """
    x = np.asarray(states, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or len(x) < 2:
        raise ValidationError("need at least 2 states of equal dimension")
    matrix = np.empty((len(x), len(x)), dtype=np.uint8)
    _threshold(x, cfg, matrix)
    np.fill_diagonal(matrix, 1)
    matrix.setflags(write=False)
    return matrix


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
    y = time_delay_embed(r, RqaConfig(dimension=m, delay=tau))
    n1 = RqaConfig(dimension=m + 1, delay=tau).n_states(len(r))
    if n1 < 2:
        raise ValidationError(
            f"series of length {len(r)} too short to lift to m={m + 1}")
    y = y[:n1]
    attractor = float(np.std(r))
    # the one scipy use of this module: the estimates serve analysis, not
    # the spotting path
    from scipy.spatial import cKDTree
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


@_quiet
def _band(series: np.ndarray, lo: int, n: int, cfg: RqaConfig, limit: float,
          out: np.ndarray) -> None:
    """Write the recurrence band of states ``lo, lo + 1, ...`` of the
    embedded ``series`` into the (rows, n - 1) array ``out``:
    ``out[r, d - 1]`` is 1 iff ``||x_{lo+r} - x_{lo+r+d}|| <= epsilon``,
    for 0 < d < n and both states in the embedding, and 0 otherwise.

    Coordinate k of state i minus state i + d is ``s[i + k*tau] -
    s[i + d + k*tau]``, the lag-d difference of the series at i + k*tau.
    So ``_BAND_ROWS`` rows take one lag-difference array over
    ``(m - 1)*tau`` more positions of the series, whose rows from k*tau
    on are coordinate k, and ``_within`` combines them in the order that
    ``cdist`` does. A state past the embedding reads NaN past the end of
    the series, which makes no recurrence.
    """
    span = (cfg.dimension - 1) * cfg.delay
    for r in range(0, len(out), _BAND_ROWS):
        k = min(_BAND_ROWS, len(out) - r)
        a = lo + r
        seg = series[a: a + k + span + n - 1]
        if len(seg) < k + span + n - 1:     # the last states' tail
            seg = np.concatenate([seg, np.full(k + span + n - 1 - len(seg),
                                               np.nan)])
        lags = sliding_window_view(seg, n)
        diff = _terms(np.subtract(lags[:, :1], lags[:, 1:]), cfg)
        _within([diff[j: j + k] for j in range(0, span + 1, cfg.delay)],
                cfg, limit, out[r: r + k])


def windowed_rqa(series, cfg: RqaConfig) -> np.ndarray:
    """RR and TRA per sliding window of a scalar series, as an
    ``(n_windows, 2)`` float64 array of ``rr, tra`` rows.

    Row k is the window covering samples ``[k*step, k*step + window_len)``,
    the one starting at ``cfg.starts(N)[k]``; there are
    ``floor((N - window_len)/step) + 1`` windows. Window k's n states are
    states ``k*step`` onwards of the series' embedding, bit for bit the
    states of the window embedded on its own; ``_band`` reads their
    differences straight from the series, so no embedding is built.

    Windows overlap, so each count is made once and shared:

    - ``_band`` thresholds each pair of states less than n apart once.
    - Block b is the n states from ``b*step``. Their band, read with no
      copy as the strictly upper-triangular n x n matrix U, gives
      ``(U[:h] @ U) * U[:h]`` with h = min(step, n): for each pair
      (i, k), the triangles whose lowest state is i, one of the block's
      first h, and whose highest is k. The prefix sums of its column
      sums count the triangles that end by each column.
    - Window k's triangles are the sum, over its blocks k + t for
      t < ceil(n/step), of block k + t's prefix up to column
      n - 1 - t*step. Its degrees are the row plus the column sums of
      block k's U, the window's own upper triangle.

    Then rr = (sum deg + n) / n^2, the density of ones with the unit
    diagonal, and tra = 6 triangles / sum deg (deg - 1), the closed over
    the connected ordered triples of the plot without its diagonal, or 0
    when no triple is connected. Every count is an integer. The entries
    of the float32 products are at most n - 1, so they are exact for
    n < 2^24 in any summation order and with any number of BLAS threads.
    The totals, below n^3, are summed in float64, exact for n < 2^17. So
    every row is the correctly rounded quotient of exact counts, the RR
    and TRA of the window's own ``recurrence_plot``, whatever its
    neighbours; with ``window_len = step = N`` the one row is those of
    the whole series' plot. The band is built ``_BLOCK_CHUNK`` blocks at
    a time, and a chunk keeps the rows it shares with the one before, so
    working memory does not grow with the series.
    """
    r = np.asarray(series, dtype=np.float64)
    if r.ndim != 1:
        raise ValidationError("series must be 1-D")
    cfg.check_window()
    cfg.check_length(len(r), "series")
    limit = _limit(cfg)
    n, step = cfg.n_states(cfg.window_len), cfg.step
    h = min(step, n)
    # the t-th block of a window counts triangles up to column ends[t]
    ends = n - 1 - step * np.arange(-(-n // step))
    n_windows = cfg.n_windows(len(r))
    n_blocks = n_windows + len(ends) - 1
    # band cells n.. stay 0, so that U's lower triangle reads zeros
    pitch = 2 * n - 1
    band = np.zeros(((min(_BLOCK_CHUNK, n_blocks) - 1) * step + n, pitch),
                    dtype=np.float32)
    row, cell = band.strides
    ones = np.ones(n, dtype=np.float32)
    prefix = np.empty((n_blocks, len(ends)))
    degree_sum = np.empty(n_blocks)
    connected = np.empty(n_blocks)
    kept = 0
    for lo in range(0, n_blocks, _BLOCK_CHUNK):
        k = min(_BLOCK_CHUNK, n_blocks - lo)
        rows = (k - 1) * step + n
        _band(r, lo * step + kept, n, cfg, limit, band[kept:rows, 1:n])
        # U's row a is band row a moved a cells right: U[a, b] = R[a, b - a]
        u = as_strided(band, (k, n, n), (step * row, row - cell, cell))
        paths = np.matmul(u[:, :h], u)
        paths *= u[:, :h]
        prefix[lo: lo + k] = np.cumsum(paths.sum(axis=1, dtype=np.float64),
                                       axis=1)[:, ends]
        deg = (np.matmul(u, ones) + np.matmul(ones, u)).astype(np.float64)
        degree_sum[lo: lo + k] = deg.sum(axis=1)
        connected[lo: lo + k] = np.sum(deg * (deg - 1.0), axis=1)
        # the next chunk's first band rows are this chunk's last
        kept = max(0, rows - _BLOCK_CHUNK * step)
        band[:kept] = band[_BLOCK_CHUNK * step: rows]
    triangles = sum(prefix[t: t + n_windows, t] for t in range(len(ends)))
    connected = connected[:n_windows]
    out = np.zeros((n_windows, 2))
    out[:, 0] = (degree_sum[:n_windows] + n) / float(n * n)
    np.divide(6.0 * triangles, connected, out=out[:, 1], where=connected > 0.0)
    return out


def write_rqa_csv(starts, X, path) -> None:
    """Feature export of window starts and their ``rr, tra`` rows: header
    ``window_start,rr,tra``."""
    write_file(path, "window_start,rr,tra\n" + "".join(
        f"{start},{rr!r},{tra!r}\n"
        for start, (rr, tra) in zip(starts.tolist(), X.tolist())))


def write_rp_pgm(rp: np.ndarray, path) -> None:
    """Export a ``recurrence_plot`` matrix as binary PGM (P5), one pixel
    per cell.

    Pixel value 255 (white) marks a recurrent cell, 0 (black) a
    non-recurrent one; row i of the image is state i.
    """
    n = len(rp)
    header = f"P5\n{n} {n}\n255\n".encode("ascii")
    # one buffer for the whole file: the pixels are scaled straight into it
    data = bytearray(len(header) + n * n)
    data[:len(header)] = header
    np.multiply(rp, np.uint8(255), out=np.frombuffer(
        data, dtype=np.uint8, offset=len(header)).reshape(n, n))
    write_file(path, data)
