import math
import warnings

import numpy as np
import pytest

from gesturekit.errors import ValidationError
from gesturekit import rqa
from gesturekit.rqa import (NORMS, _BLOCK_CHUNK, RqaConfig,
                            ami_curve, estimate_delay, estimate_dimension,
                            fnn_fraction, recurrence_plot, time_delay_embed,
                            windowed_rqa, write_rp_pgm, write_rqa_csv)
from oracles import (naive_embed, naive_fnn_fraction,
                     naive_recurrence_matrix, naive_recurrence_rate,
                     naive_transitivity)

# the scipy metric that each norm's distance kernel must equal bit for bit
CDIST_METRIC = {"L1": "cityblock", "L2": "euclidean", "Linf": "chebyshev"}


def test_embed_matches_oracle():
    rng = np.random.default_rng(1)
    r = rng.normal(size=60)
    for m, tau in [(1, 1), (2, 3), (4, 1), (3, 4)]:
        got = time_delay_embed(r, RqaConfig(dimension=m, delay=tau))
        want = naive_embed(r, m, tau)
        assert got.shape == (60 - (m - 1) * tau, m)
        assert np.array_equal(got, want)


def test_embed_is_a_read_only_view():
    r = np.arange(20.0)[::2]
    states = time_delay_embed(r, RqaConfig(dimension=3, delay=2))
    assert np.shares_memory(states, r)
    assert np.array_equal(states, naive_embed(r, 3, 2))
    with pytest.raises(ValueError, match="read-only"):
        states[0, 0] = 1.0


def test_embed_too_short():
    with pytest.raises(ValidationError):
        time_delay_embed(np.arange(5.0), RqaConfig(dimension=6, delay=1))


def test_recurrence_plot_matches_oracle_small(monkeypatch):
    rng = np.random.default_rng(2)
    states = rng.normal(size=(30, 3))
    # in one block, then in blocks of 8 rows: three full and a short one
    for rows in (len(states), 8):
        monkeypatch.setattr(rqa, "_THRESHOLD_ROWS", rows)
        for norm in ("L1", "L2", "Linf"):
            plot = recurrence_plot(states, RqaConfig(epsilon=1.2, norm=norm))
            want = naive_recurrence_matrix(states, 1.2, norm)
            assert np.array_equal(plot, want)


def test_recurrence_plot_blocks_equal_one_distance_matrix():
    # at the real block size, bit for bit the threshold of one whole cdist
    from scipy.spatial.distance import cdist
    rng = np.random.default_rng(6)
    states = rng.normal(size=(2 * rqa._THRESHOLD_ROWS + 45, 3))
    for norm, metric in CDIST_METRIC.items():
        plot = recurrence_plot(states, RqaConfig(epsilon=1.2, norm=norm))
        want = (cdist(states, states, metric=metric) <= 1.2).astype(np.uint8)
        np.fill_diagonal(want, 1)
        assert np.array_equal(plot, want)


def cdist_plot(states, cfg):
    """The plot that thresholding one whole cdist matrix gives."""
    from scipy.spatial.distance import cdist
    want = cdist(states, states, CDIST_METRIC[cfg.norm]) <= cfg.epsilon
    np.fill_diagonal(want, True)
    return want.astype(np.uint8)


def dyadic(rng, shape):
    """Values 0 and 0.25: two states one coordinate apart are exactly 0.25
    apart under every norm, a tie with epsilon 0.25."""
    return 0.25 * rng.integers(0, 2, size=shape)


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("m", [1, 2, 4, 7])
def test_recurrence_plot_equals_cdist(norm, m):
    rng = np.random.default_rng([m, len(norm)])
    cfg = RqaConfig(epsilon=0.9, norm=norm)
    # a row count the block size does not divide, and states in a strided
    # view as time_delay_embed gives them
    states = rng.normal(size=(5 * rqa._THRESHOLD_ROWS + 3, m))
    assert np.array_equal(recurrence_plot(states, cfg),
                          cdist_plot(states, cfg))
    for tau in (1, 3):
        embedded = time_delay_embed(rng.normal(scale=0.5, size=90),
                                    RqaConfig(dimension=m, delay=tau))
        assert np.array_equal(recurrence_plot(embedded, cfg),
                              cdist_plot(embedded, cfg))


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("m", [1, 2, 4, 7])
def test_recurrence_plot_ties_equal_cdist(norm, m):
    rng = np.random.default_rng([m, len(norm), 1])
    cfg = RqaConfig(epsilon=0.25, norm=norm)
    states = dyadic(rng, (60, m))
    plot = recurrence_plot(states, cfg)
    assert np.array_equal(plot, cdist_plot(states, cfg))
    from scipy.spatial.distance import cdist
    ties = cdist(states, states, CDIST_METRIC[norm]) == 0.25
    assert ties.any() and plot[ties].all()


@pytest.mark.parametrize("norm", NORMS)
def test_distances_past_the_float_range_do_not_warn(norm):
    # differences and squares overflow to inf, as in cdist, silently
    rng = np.random.default_rng(3)
    r = rng.normal(size=150) * 1e200
    r[::7] = 1e308
    r[3::7] = -1e308
    cfg = RqaConfig(window_len=20, step=5, epsilon=1e200, norm=norm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = window_table(r, cfg)
        plot = recurrence_plot(time_delay_embed(r, cfg), cfg)
    assert got == per_window_reference(r, cfg)
    assert np.array_equal(plot,
                          cdist_plot(time_delay_embed(r, cfg), cfg))


def cdist_band(series, lo, rows, n, cfg):
    """``_band``'s cells from one cdist per state: row r holds state lo + r
    against each of its next n - 1 states, 0 past the embedding."""
    from scipy.spatial.distance import cdist
    states = naive_embed(series, cfg.dimension, cfg.delay)
    want = np.zeros((rows, n - 1), dtype=np.float32)
    for r in range(rows):
        i = lo + r
        partners = states[i + 1: i + n]
        if i < len(states) and len(partners):
            near = cdist(states[i: i + 1], partners,
                         CDIST_METRIC[cfg.norm])[0] <= cfg.epsilon
            want[r, :len(partners)] = near
    return want


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("m", [1, 2, 4, 7])
@pytest.mark.parametrize("tau", [1, 3])
@pytest.mark.parametrize("series", ["walk", "dyadic"])
def test_band_equals_cdist(monkeypatch, norm, m, tau, series):
    # row groups of 5, a last group cut short, and rows at the tail whose
    # partners run out, and rows past the last state
    monkeypatch.setattr(rqa, "_BAND_ROWS", 5)
    rng = np.random.default_rng([m, tau, len(norm)])
    if series == "walk":
        r = np.cumsum(rng.normal(scale=0.1, size=80))
        cfg = RqaConfig(dimension=m, delay=tau, epsilon=0.1 * m + 0.2,
                        norm=norm)
    else:
        r = dyadic(rng, 80)
        cfg = RqaConfig(dimension=m, delay=tau, epsilon=0.25, norm=norm)
    n = 12
    ns = cfg.n_states(len(r))
    cells = []
    for lo, rows in ((0, 23), (7, 11), (ns - 20, 17), (ns - 6, 14)):
        got = np.full((rows, n - 1), 7.0, dtype=np.float32)
        rqa._band(r, lo, n, cfg, rqa._limit(cfg), got)
        want = cdist_band(r, lo, rows, n, cfg)
        assert np.array_equal(got, want), (lo, rows)
        cells.append(got)
    assert set(np.concatenate(cells).ravel().tolist()) == {0.0, 1.0}


@pytest.mark.parametrize("epsilon", [0.1, 0.25, 0.3, 1.0, 2.0, 3.0, 1e-3,
                                     7.5e-155, 1e-300, 5e-324, 1e154,
                                     1.5e154, 1e300])
def test_l2_limit_is_the_last_square_within_epsilon(epsilon):
    limit = rqa._limit(RqaConfig(epsilon=epsilon, norm="L2"))
    below = math.nextafter(limit, 0.0)
    above = math.nextafter(limit, math.inf)
    assert np.sqrt(limit) <= epsilon and np.sqrt(below) <= epsilon
    assert not np.sqrt(above) <= epsilon
    for norm in ("L1", "Linf"):
        assert rqa._limit(RqaConfig(epsilon=epsilon, norm=norm)) == epsilon


def test_recurrence_plot_tie_is_recurrence():
    # exact distance 1 at threshold 1: Heaviside(0) counts as recurrent
    states = np.array([[0.0], [1.0], [3.0]])
    plot = recurrence_plot(states, RqaConfig(epsilon=1.0, norm="L2"))
    assert plot[0, 1] == 1 and plot[1, 0] == 1
    assert plot[0, 2] == 0


@pytest.mark.parametrize("norm", NORMS)
def test_built_plot_is_one_the_constructor_accepts(norm):
    """recurrence_plot, the one constructor of plots, returns a square
    uint8 matrix, symmetric 0/1 with a unit diagonal, and read-only."""
    r = np.random.default_rng(5).normal(size=300)
    cfg = RqaConfig(dimension=3, delay=2, epsilon=0.8, norm=norm)
    plot = recurrence_plot(time_delay_embed(r, cfg), cfg)
    assert plot.dtype == np.uint8 and not plot.flags.writeable
    assert plot.shape == (cfg.n_states(300),) * 2
    assert np.array_equal(plot, plot.T)
    assert set(np.unique(plot).tolist()) == {0, 1}
    assert (plot.diagonal() == 1).all()


@pytest.mark.parametrize("series,m,tau,epsilons", [
    (np.random.default_rng(3).normal(size=80), 3, 2, (1.0,)),
    (np.random.default_rng(4).normal(size=43), 4, 1,
     (0.2, 0.6, 1.1, 1.7, 2.4, 3.0)),
    (np.random.default_rng(5).normal(size=53), 4, 1,
     (0.2, 0.5, 1.0, 2.0, 4.0)),
    # far-apart states: only the forced diagonal, which transitivity
    # drops, so no triple is connected and tra is the oracle's 0.0
    (np.array([0.0, 10.0, 20.0]), 1, 1, (0.5,)),
], ids=["values", "ranges", "monotone-in-epsilon", "empty-graph"])
def test_one_window_rr_tra_equal_oracles(series, m, tau, epsilons):
    """rr and tra of one plot, from a single window, equal the loop
    oracles' quotients exactly: both are correctly rounded quotients of
    exact counts. rr never falls as epsilon grows."""
    rates = []
    for epsilon in epsilons:
        # one window spanning the series: the rr and tra of its plot
        cfg = RqaConfig(window_len=len(series), step=len(series),
                        dimension=m, delay=tau, epsilon=epsilon, norm="L2")
        rr, tra = windowed_rqa(series, cfg)[0].tolist()
        matrix = naive_recurrence_matrix(naive_embed(series, m, tau),
                                         epsilon, "L2")
        assert rr == naive_recurrence_rate(matrix)
        assert tra == naive_transitivity(matrix)
        assert 0.0 <= rr <= 1.0 and 0.0 <= tra <= 1.0
        rates.append(rr)
    assert rates == sorted(rates)


def test_ami_curve_basic_properties():
    rng = np.random.default_rng(6)
    r = np.sin(2 * np.pi * np.arange(500) / 40) + 0.01 * rng.normal(size=500)
    ami = ami_curve(r, max_lag=30)
    assert len(ami) == 31
    assert np.all(ami >= 0.0)
    # lag 0 carries the most information about itself
    assert ami[0] == ami.max()


def test_ami_constant_series_is_zero():
    assert np.all(ami_curve(np.ones(100), max_lag=10) == 0.0)


def test_estimate_delay_quarter_period():
    # first AMI minimum of a sine sits near a quarter period
    r = np.sin(2 * np.pi * np.arange(2000) / 40)
    tau = estimate_delay(ami_curve(r, max_lag=30))
    assert tau in (9, 10, 11)


def test_estimate_delay_no_minimum_falls_back():
    assert estimate_delay(np.linspace(1.0, 0.0, 10)) == 1


def test_fnn_matches_oracle():
    rng = np.random.default_rng(7)
    r = np.sin(2 * np.pi * np.arange(120) / 25) + 0.05 * rng.normal(size=120)
    for m in (1, 2, 3):
        assert fnn_fraction(r, m, tau=2) == pytest.approx(
            naive_fnn_fraction(r, m, 2))


def test_estimate_dimension_sine():
    r = np.sin(2 * np.pi * np.arange(800) / 40)
    assert estimate_dimension(r, tau=10) <= 3


def test_estimate_dimension_warns_at_cap():
    rng = np.random.default_rng(8)
    with pytest.warns(RuntimeWarning):
        m = estimate_dimension(rng.normal(size=120), tau=1, cap=2,
                               threshold=0.0)
    assert m == 2


class TestRqaConfig:
    @pytest.mark.parametrize("settings,message", [
        ({"series": "acc_w"}, "unknown channel"),
        ({"step": 0}, "need 0 < step <= window_len"),
        ({"step": 126}, "need 0 < step <= window_len"),
        ({"dimension": 0}, "m >= 1 and tau >= 1"),
        ({"delay": 0}, "m >= 1 and tau >= 1"),
        ({"epsilon": 0.0}, "epsilon must be positive and finite"),
        ({"epsilon": np.inf}, "epsilon must be positive and finite"),
        ({"norm": "L7"}, "norm must be one of"),
    ])
    def test_each_field_checked(self, settings, message):
        with pytest.raises(ValidationError, match=message):
            RqaConfig(**settings)

    def test_parse_types_each_value_by_its_field(self):
        text = {"series": "gyro_z", "window_len": "150", "step": "30",
                "dimension": "3", "delay": "2", "epsilon": "0.3",
                "norm": "Linf", "other": "ignored"}
        cfg = RqaConfig.parse(text)
        assert cfg == RqaConfig(series="gyro_z", window_len=150, step=30,
                                dimension=3, delay=2, epsilon=0.3,
                                norm="Linf")
        assert RqaConfig.parse({"step": 5}) == RqaConfig(step=5)
        with pytest.raises(ValueError):
            RqaConfig.parse({"delay": "1.5"})

    def test_text_round_trips_through_parse(self):
        cfg = RqaConfig(epsilon=0.1 + 0.2)
        assert dict(cfg.text())["epsilon"] == "0.30000000000000004"
        assert RqaConfig.parse(dict(cfg.text())) == cfg
        assert [k for k, _ in RqaConfig().text()] == [
            "series", "window_len", "step", "dimension", "delay", "epsilon",
            "norm"]

    def test_check_window(self):
        # 5 - 3 * 1 = 2 states fit; 5 - 3 * 2 = -1 do not
        RqaConfig(window_len=5, step=5, dimension=4, delay=1).check_window()
        wide = RqaConfig(window_len=5, step=5, dimension=4, delay=2)
        with pytest.raises(ValidationError,
                           match="window shorter than the embedding needs"):
            wide.check_window()


def test_window_count_formula():
    win = RqaConfig(window_len=125, step=25)
    for n in (125, 126, 149, 150, 300, 1000):
        assert win.n_windows(n) == (n - 125) // 25 + 1
        assert len(win.starts(n)) == win.n_windows(n)
    assert win.n_windows(124) == 0


def test_windowed_rqa_layout():
    rng = np.random.default_rng(9)
    r = rng.normal(size=300)
    win = RqaConfig(window_len=125, step=25)
    X = windowed_rqa(r, win)
    assert len(X) == 8
    assert X.shape == (8, 2) and X.dtype == np.float64
    assert win.starts(len(r)).tolist() == list(range(0, 200, 25))
    # each window is quantified independently of its neighbours
    solo = windowed_rqa(r[50:175], win)
    assert X[2, 0] == solo[0, 0]
    assert X[2, 1] == solo[0, 1]


def window_table(series, cfg):
    """(start, rr, tra) of each window from ``windowed_rqa``."""
    X = windowed_rqa(series, cfg)
    return [(start, rr, tra) for start, (rr, tra)
            in zip(cfg.starts(len(series)).tolist(), X.tolist())]


def per_window_reference(series, cfg):
    """(start, rr, tra) of each window from its own plot and the oracles."""
    out = []
    for start in range(0, len(series) - cfg.window_len + 1, cfg.step):
        window = series[start: start + cfg.window_len]
        plot = recurrence_plot(naive_embed(window, cfg.dimension, cfg.delay),
                               cfg)
        out.append((start, naive_recurrence_rate(plot),
                    naive_transitivity(plot)))
    return out


def exact(**rp):
    """Short windows (20 samples, step 3, m=3, tau=2) and ``rp``."""
    return RqaConfig(window_len=20, step=3, dimension=3, delay=2, **rp)


# 69 windows and ceil(16 / 3) - 1 = 5 blocks past the last one: 3 chunks
# of blocks, the last partial
EXACT_N = 20 + (2 * _BLOCK_CHUNK + 4) * 3


@pytest.mark.parametrize("norm", NORMS)
def test_windowed_rqa_bit_equals_per_window_oracle(norm):
    rng = np.random.default_rng(12)
    r = np.cumsum(rng.normal(scale=0.1, size=EXACT_N))
    cfg = exact(epsilon=0.3, norm=norm)
    got = window_table(r, cfg)
    assert len(got) > _BLOCK_CHUNK and len(got) % _BLOCK_CHUNK != 0
    want = per_window_reference(r, cfg)
    assert got == want            # exact: no tolerance
    assert len({tra for _, _, tra in got}) > 30     # not a trivial graph


# (window_len, step, m, tau, series length) at the edges of the band and
# block layout
EDGES = {
    # 16 states and a step of 20: one block a window, states left out
    "step-past-states": (20, 20, 3, 2, 130),
    "step-1": (20, 1, 3, 2, 60),
    "m-1": (20, 3, 1, 1, 80),
    # 12 states, which a step of 5 does not divide
    "tau-4": (20, 5, 3, 4, 95),
    "one-window": (20, 3, 3, 2, 20),
    # the last window ends at the last state, so its last block holds 1
    # state of 3
    "partial-last-block": (20, 3, 3, 2, 20 + 3 * 20),
    # and here 2 samples past the last window
    "tail-past-last-window": (20, 3, 3, 2, 20 + 3 * 20 + 2),
}


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("edge", EDGES.values(), ids=EDGES.keys())
def test_windowed_rqa_edges_bit_equal_per_window_oracle(edge, norm):
    window_len, step, m, tau, length = edge
    rng = np.random.default_rng(13)
    r = np.cumsum(rng.normal(scale=0.1, size=length))
    cfg = RqaConfig(window_len=window_len, step=step, dimension=m,
                    delay=tau, epsilon=0.3, norm=norm)
    got = window_table(r, cfg)
    assert len(got) == cfg.n_windows(length)
    assert got == per_window_reference(r, cfg)


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("chunk,rows", [(1, 1), (2, 5), (7, 3)])
def test_windowed_rqa_chunks_bit_equal_per_window_oracle(monkeypatch, norm,
                                                         chunk, rows):
    # many chunks of blocks, each band chunk in many lag-difference arrays
    monkeypatch.setattr(rqa, "_BLOCK_CHUNK", chunk)
    monkeypatch.setattr(rqa, "_BAND_ROWS", rows)
    rng = np.random.default_rng(14)
    r = np.cumsum(rng.normal(scale=0.1, size=90))
    cfg = exact(epsilon=0.3, norm=norm)
    got = window_table(r, cfg)
    assert len(got) > 3 * chunk
    assert got == per_window_reference(r, cfg)


@pytest.mark.parametrize("series,rr,tra", [
    (np.full(EXACT_N, 3.0), 1.0, 1.0),              # every pair recurs
    (100.0 * np.arange(EXACT_N), 1.0 / 16, 0.0),    # only the diagonal
], ids=["constant", "far-apart"])
def test_windowed_rqa_extreme_graphs(series, rr, tra):
    cfg = exact(epsilon=0.1)
    got = window_table(series, cfg)
    assert got == per_window_reference(series, cfg)
    assert {(a, b) for _, a, b in got} == {(rr, tra)}


def test_windowed_rqa_rejects_short_input():
    with pytest.raises(ValidationError):
        windowed_rqa(np.zeros(100), RqaConfig(window_len=125, step=25))
    with pytest.raises(ValidationError, match="window shorter than the "
                       "embedding needs"):
        windowed_rqa(np.zeros(200), RqaConfig(window_len=125, step=25,
                                              dimension=30, delay=5))


def test_rqa_csv_and_pgm(tmp_path):
    rng = np.random.default_rng(10)
    r = rng.normal(size=150)
    win = RqaConfig()
    X = windowed_rqa(r, win)
    p = tmp_path / "f.csv"
    write_rqa_csv(win.starts(len(r)), X, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "window_start,rr,tra"
    assert len(lines) == len(X) + 1
    first = lines[1].split(",")
    assert float(first[1]) == X[0, 0]
    assert float(first[2]) == X[0, 1]

    plot = recurrence_plot(time_delay_embed(r, RqaConfig()), RqaConfig())
    img = tmp_path / "rp.pgm"
    write_rp_pgm(plot, img)
    blob = img.read_bytes()
    n = len(plot)
    assert blob.startswith(f"P5\n{n} {n}\n255\n".encode())
    body = blob.split(b"\n", 3)[3]
    assert len(body) == n * n
    assert set(body) <= {0, 255}
