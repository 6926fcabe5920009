import numpy as np
import pytest

from gesturekit.errors import ValidationError
from gesturekit.rqa import (NORMS, _WINDOW_CHUNK, EmbeddingConfig,
                            RecurrencePlot, RpConfig, RqaWindowConfig,
                            ami_curve, estimate_delay, estimate_dimension,
                            fnn_fraction, recurrence_plot, recurrence_rate,
                            time_delay_embed, transitivity, windowed_rqa,
                            write_rp_pgm, write_rqa_csv)
from oracles import (naive_embed, naive_fnn_fraction,
                     naive_recurrence_matrix, naive_recurrence_rate,
                     naive_transitivity)


def test_embed_matches_oracle():
    rng = np.random.default_rng(1)
    r = rng.normal(size=60)
    for m, tau in [(1, 1), (2, 3), (4, 1), (3, 4)]:
        got = time_delay_embed(r, EmbeddingConfig(m=m, tau=tau))
        want = naive_embed(r, m, tau)
        assert got.shape == (60 - (m - 1) * tau, m)
        assert np.array_equal(got, want)


def test_embed_too_short():
    with pytest.raises(ValidationError):
        time_delay_embed(np.arange(5.0), EmbeddingConfig(m=6, tau=1))


def test_recurrence_plot_matches_oracle_small():
    rng = np.random.default_rng(2)
    states = rng.normal(size=(30, 3))
    for norm in ("L1", "L2", "Linf"):
        plot = recurrence_plot(states, RpConfig(epsilon=1.2, norm=norm))
        want = naive_recurrence_matrix(states, 1.2, norm)
        assert np.array_equal(plot.matrix, want)


def test_recurrence_plot_tie_is_recurrence():
    # exact distance 1 at threshold 1: Heaviside(0) counts as recurrent
    states = np.array([[0.0], [1.0], [3.0]])
    plot = recurrence_plot(states, RpConfig(epsilon=1.0, norm="L2"))
    assert plot.matrix[0, 1] == 1 and plot.matrix[1, 0] == 1
    assert plot.matrix[0, 2] == 0


@pytest.mark.parametrize("matrix", [
    np.zeros((3, 3)), 2 * np.eye(3), np.triu(np.ones((3, 3)))],
    ids=["zero-diagonal", "not-0/1", "asymmetric"])
def test_recurrence_plot_rejects_other_matrices(matrix):
    # rr and tra count the diagonal as ones and A @ A * A as trace(A^3)
    with pytest.raises(ValidationError):
        RecurrencePlot(matrix=matrix, rp_config=RpConfig())


def test_rqa_values_match_oracles():
    rng = np.random.default_rng(3)
    r = rng.normal(size=80)
    states = time_delay_embed(r, EmbeddingConfig(m=3, tau=2))
    plot = recurrence_plot(states, RpConfig(epsilon=1.0, norm="L2"))
    assert recurrence_rate(plot) == pytest.approx(
        naive_recurrence_rate(plot.matrix))
    assert transitivity(plot) == pytest.approx(
        naive_transitivity(plot.matrix))


def test_rqa_invariant_ranges():
    rng = np.random.default_rng(4)
    for _ in range(10):
        states = rng.normal(size=(40, 4))
        eps = float(rng.uniform(0.2, 3.0))
        plot = recurrence_plot(states, RpConfig(epsilon=eps, norm="L2"))
        m = plot.matrix
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 1)
        assert 0.0 <= recurrence_rate(plot) <= 1.0
        assert 0.0 <= transitivity(plot) <= 1.0


def test_rr_monotone_in_epsilon():
    rng = np.random.default_rng(5)
    states = rng.normal(size=(50, 4))
    rates = [recurrence_rate(recurrence_plot(states, RpConfig(epsilon=e)))
             for e in (0.2, 0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b for a, b in zip(rates, rates[1:]))


def test_transitivity_empty_graph_is_zero():
    # far-apart states: only the forced diagonal, which transitivity drops
    states = np.array([[0.0], [10.0], [20.0]])
    plot = recurrence_plot(states, RpConfig(epsilon=0.5))
    assert transitivity(plot) == 0.0


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


def test_window_count_formula():
    win = RqaWindowConfig(window_len=125, step=25)
    for n in (125, 126, 149, 150, 300, 1000):
        assert win.n_windows(n) == (n - 125) // 25 + 1
        assert len(win.starts(n)) == win.n_windows(n)
    assert win.n_windows(124) == 0


def test_windowed_rqa_layout():
    rng = np.random.default_rng(9)
    r = rng.normal(size=300)
    win = RqaWindowConfig(window_len=125, step=25)
    X = windowed_rqa(r, EmbeddingConfig(), RpConfig(), win)
    assert len(X) == 8
    assert X.shape == (8, 2) and X.dtype == np.float64
    assert win.starts(len(r)).tolist() == list(range(0, 200, 25))
    # each window is quantified independently of its neighbours
    solo = windowed_rqa(r[50:175], EmbeddingConfig(), RpConfig(), win)
    assert X[2, 0] == solo[0, 0]
    assert X[2, 1] == solo[0, 1]


def window_table(series, emb, rp, win):
    """(start, rr, tra) of each window from ``windowed_rqa``."""
    X = windowed_rqa(series, emb, rp, win)
    return [(start, rr, tra) for start, (rr, tra)
            in zip(win.starts(len(series)).tolist(), X.tolist())]


def per_window_reference(series, emb, rp, win):
    """(start, rr, tra) of each window from its own plot and the oracles."""
    out = []
    for start in range(0, len(series) - win.window_len + 1, win.step):
        window = series[start: start + win.window_len]
        plot = recurrence_plot(naive_embed(window, emb.m, emb.tau), rp)
        out.append((start, naive_recurrence_rate(plot.matrix),
                    naive_transitivity(plot.matrix)))
    return out


EXACT_WIN = RqaWindowConfig(window_len=20, step=3)
EXACT_EMB = EmbeddingConfig(m=3, tau=2)
EXACT_N = 20 + (2 * _WINDOW_CHUNK + 4) * 3   # 3 chunks, the last partial


@pytest.mark.parametrize("norm", NORMS)
def test_windowed_rqa_bit_equals_per_window_oracle(norm):
    rng = np.random.default_rng(12)
    r = np.cumsum(rng.normal(scale=0.1, size=EXACT_N))
    rp = RpConfig(epsilon=0.3, norm=norm)
    got = window_table(r, EXACT_EMB, rp, EXACT_WIN)
    assert len(got) > _WINDOW_CHUNK and len(got) % _WINDOW_CHUNK != 0
    want = per_window_reference(r, EXACT_EMB, rp, EXACT_WIN)
    assert got == want            # exact: no tolerance
    assert len({tra for _, _, tra in got}) > 30     # not a trivial graph


@pytest.mark.parametrize("series,rr,tra", [
    (np.full(EXACT_N, 3.0), 1.0, 1.0),              # every pair recurs
    (100.0 * np.arange(EXACT_N), 1.0 / 16, 0.0),    # only the diagonal
], ids=["constant", "far-apart"])
def test_windowed_rqa_extreme_graphs(series, rr, tra):
    rp = RpConfig(epsilon=0.1)
    got = window_table(series, EXACT_EMB, rp, EXACT_WIN)
    assert got == per_window_reference(series, EXACT_EMB, rp, EXACT_WIN)
    assert {(a, b) for _, a, b in got} == {(rr, tra)}


def test_windowed_rqa_rejects_short_input():
    with pytest.raises(ValidationError):
        windowed_rqa(np.zeros(100), EmbeddingConfig(), RpConfig(),
                     RqaWindowConfig(window_len=125, step=25))
    with pytest.raises(ValidationError):
        windowed_rqa(np.zeros(200), EmbeddingConfig(m=30, tau=5), RpConfig(),
                     RqaWindowConfig(window_len=125, step=25))


def test_rqa_csv_and_pgm(tmp_path):
    rng = np.random.default_rng(10)
    r = rng.normal(size=150)
    win = RqaWindowConfig()
    X = windowed_rqa(r, EmbeddingConfig(), RpConfig(), win)
    p = tmp_path / "f.csv"
    write_rqa_csv(win.starts(len(r)), X, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "window_start,rr,tra"
    assert len(lines) == len(X) + 1
    first = lines[1].split(",")
    assert float(first[1]) == X[0, 0]
    assert float(first[2]) == X[0, 1]

    plot = recurrence_plot(time_delay_embed(r, EmbeddingConfig()),
                           RpConfig())
    img = tmp_path / "rp.pgm"
    write_rp_pgm(plot, img)
    blob = img.read_bytes()
    n = plot.n_states
    assert blob.startswith(f"P5\n{n} {n}\n255\n".encode())
    body = blob.split(b"\n", 3)[3]
    assert len(body) == n * n
    assert set(body) <= {0, 255}
