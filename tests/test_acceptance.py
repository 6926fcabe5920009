"""Release gate: eleven numbered end-to-end checks with hard thresholds.

Each check prints one pass/fail line (shown with ``pytest -rA`` or on
failure) and asserts the property it names, including its runtime
budget where one applies. A runtime budget times the program's calls
only, never the oracles that check them. The synthetic-corpus checks
pin master seed 20; rerunning the suite reproduces every number bit for
bit.
"""

import time

import numpy as np
import pytest

from oracles import (dual_objective, duality_gap, kkt_max_violation,
                     naive_embed, naive_recurrence_matrix, pg_dual_solve)

from gesturekit.cli import dispatch
from gesturekit.features import featurize_segments, is_sample_feature
from gesturekit.imu import LabeledDataset, cut_segments
from gesturekit.pipeline import (IdentificationConfig, SvmTrainer,
                                 loso_evaluate, permutation_importance,
                                 train_identifier, write_report_csv)
from gesturekit.rqa import (NORMS, RqaConfig, ami_curve, estimate_delay,
                            estimate_dimension, recurrence_plot,
                            time_delay_embed, windowed_rqa)
from gesturekit.svm import KernelConfig, gram, ovo_train, smo_solve_stack
from gesturekit.synth import SynthConfig, generate_dataset

MASTER_SEED = 20


def verdict(num, ok, detail):
    print(f"check {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"check {num:02d}: {detail}"


@pytest.fixture(scope="session")
def corpus():
    """Featurized default corpus (15 subjects x 12 gestures x 5 reps)."""
    t0 = time.perf_counter()
    result = generate_dataset(SynthConfig(seed=MASTER_SEED))
    dataset = featurize_segments(cut_segments(result.recognition))
    return dataset, time.perf_counter() - t0


@pytest.fixture(scope="session")
def eval_selected(corpus):
    dataset, _ = corpus
    t0 = time.perf_counter()
    report = loso_evaluate(dataset, SvmTrainer(select_k=43),
                           seed=MASTER_SEED)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def eval_samples_only(corpus):
    dataset, _ = corpus
    cols = [i for i, nm in enumerate(dataset.feature_names)
            if is_sample_feature(nm)]
    t0 = time.perf_counter()
    report = loso_evaluate(dataset.take(columns=cols), SvmTrainer(),
                           seed=MASTER_SEED)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def eval_plain(corpus):
    dataset, _ = corpus
    t0 = time.perf_counter()
    report = loso_evaluate(dataset, SvmTrainer(), seed=MASTER_SEED)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def eval_augmented(corpus):
    dataset, _ = corpus
    t0 = time.perf_counter()
    report = loso_evaluate(dataset, SvmTrainer(augment_sigma=0.5),
                           seed=MASTER_SEED)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def identification():
    """Four continuous streams with gestures at roughly 0.5% prevalence."""
    t0 = time.perf_counter()
    cfg = SynthConfig(n_subjects=4, reps=1, adl_minutes=10.0,
                      gesture_fraction=0.005, seed=MASTER_SEED)
    streams = generate_dataset(cfg).identification
    _, report = train_identifier(streams, IdentificationConfig(),
                                 seed=MASTER_SEED)
    return streams, report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "corpus"
    assert dispatch(["synth", "--out", str(out),
                     "--seed", str(MASTER_SEED)]) == 0
    return out


def test_01_recurrence_plot_matches_bruteforce_oracle():
    rng = np.random.default_rng(101)
    mismatches = 0
    elapsed = oracle_s = 0.0
    for trial in range(50):
        m = int(rng.integers(1, 7))
        tau = int(rng.integers(1, 5))
        n_states = int(rng.integers(10, 201))
        series = rng.normal(size=n_states + (m - 1) * tau)
        epsilon = float(rng.uniform(0.1, 2.0)) * np.sqrt(m)
        norm = NORMS[trial % 3]
        cfg = RqaConfig(dimension=m, delay=tau, epsilon=epsilon, norm=norm)
        t0 = time.perf_counter()
        states = time_delay_embed(series, cfg)
        fast = recurrence_plot(states, cfg)
        t1 = time.perf_counter()
        assert np.array_equal(states, naive_embed(series, m, tau))
        slow = naive_recurrence_matrix(states, epsilon, norm)
        elapsed += t1 - t0
        oracle_s += time.perf_counter() - t1
        assert len(fast) == n_states
        if not np.array_equal(fast, slow):
            mismatches += 1
    verdict(1, mismatches == 0 and elapsed < 10.0,
            f"50/50 random plots identical to the double-loop oracle "
            f"across all 3 norms in {elapsed:.3f}s (< 10 s; oracle "
            f"{oracle_s:.1f}s, not budgeted)")


def test_02_rqa_invariants_and_window_count_formula():
    rng = np.random.default_rng(202)
    bounds_ok = True
    for trial in range(12):
        m = int(rng.integers(1, 6))
        tau = int(rng.integers(1, 4))
        n = int(rng.integers(150, 301))
        series = rng.normal(size=n)
        # one window over the whole series: the rr and tra of its plot
        cfg = RqaConfig(window_len=n, step=n, dimension=m, delay=tau,
                        epsilon=float(rng.uniform(0.2, 1.5)),
                        norm=NORMS[trial % 3])
        rp = recurrence_plot(time_delay_embed(series, cfg), cfg)
        rr, tra = windowed_rqa(series, cfg)[0]
        bounds_ok &= bool(np.array_equal(rp, rp.T))
        bounds_ok &= bool((np.diag(rp) == 1).all())
        bounds_ok &= 0.0 <= rr <= 1.0 and 0.0 <= tra <= 1.0
    series = rng.normal(size=400)
    rates = [windowed_rqa(series, RqaConfig(
        window_len=400, step=400, dimension=3, delay=2, epsilon=e))[0, 0]
             for e in (0.05, 0.1, 0.3, 0.6, 1.0, 1.5, 2.5, 4.0)]
    monotone = all(a <= b for a, b in zip(rates, rates[1:]))
    win = RqaConfig()
    counts_ok = all(
        win.n_windows(n) == (n - 125) // 25 + 1 == sum(
            1 for s in range(0, n, 25) if s + 125 <= n)
        for n in range(125, 2001))
    for n in (125, 300, 1234, 2000):
        rows = windowed_rqa(rng.normal(size=n), win)
        counts_ok &= len(rows) == (n - 125) // 25 + 1
    verdict(2, bounds_ok and monotone and counts_ok,
            "symmetry, unit diagonal, rr/tra in [0,1], rr monotone in "
            "epsilon, window count exact for every length in [125, 2000]")


def test_03_embedding_parameters_recovered_from_sine():
    t0 = time.perf_counter()
    series = np.sin(2.0 * np.pi * np.arange(2000) / 40.0)
    delay = estimate_delay(ami_curve(series, max_lag=25))
    dimension = estimate_dimension(series, tau=delay)
    elapsed = time.perf_counter() - t0
    verdict(3, delay in (9, 10, 11) and dimension <= 3 and elapsed < 5.0,
            f"period-40 sine: delay {delay} in {{9, 10, 11}}, dimension "
            f"{dimension} <= 3, {elapsed:.1f}s (< 5 s)")


def test_04_smo_matches_projected_gradient_oracle():
    rng = np.random.default_rng(404)
    kernels = (KernelConfig(kind="linear"),
               KernelConfig(kind="polynomial", gamma=0.5, coef0=1.0,
                            degree=2),
               KernelConfig(kind="radial", gamma=0.7))
    worst_gap = 0.0
    worst_kkt = 0.0
    worst_certified = 0.0
    elapsed = oracle_s = 0.0
    for trial in range(20):
        n = int(rng.integers(6, 41))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = np.ones(n)
        y[: n // 2] = -1.0
        rng.shuffle(y)
        cost = float(rng.choice([0.5, 1.0, 3.0]))
        t0 = time.perf_counter()
        K = gram(kernels[trial % 3], X, X)
        alpha, bias = smo_solve_stack([K], [y], [cost], tol=2e-4)[0]
        t1 = time.perf_counter()
        reference = pg_dual_solve(K, y, cost)
        elapsed += t1 - t0
        oracle_s += time.perf_counter() - t1
        worst_certified = max(worst_certified,
                              duality_gap(K, y, reference, cost))
        gap = abs(dual_objective(K, y, alpha)
                  - dual_objective(K, y, reference))
        worst_gap = max(worst_gap, gap)
        worst_kkt = max(worst_kkt, kkt_max_violation(K, y, alpha, bias,
                                                     cost))
    verdict(4, worst_gap <= 1e-3 and worst_kkt <= 1e-3 and elapsed < 30.0,
            f"20 random problems: worst dual-objective gap {worst_gap:.2e} "
            f"<= 1e-3, worst KKT violation {worst_kkt:.2e} <= 1e-3, "
            f"{elapsed:.2f}s (< 30 s; oracle {oracle_s:.1f}s, not budgeted, "
            f"worst certified oracle gap {worst_certified:.2e})")


def test_05_twelve_classes_train_66_pairwise_models(corpus):
    dataset, _ = corpus
    small = dataset.take(dataset.subjects == "s01")
    model = ovo_train(small, SvmTrainer().kernel, SvmTrainer().cost)
    n_classes = len(model.classes)
    verdict(5, n_classes == 12 and len(model.pairs) == 66,
            f"{n_classes} classes trained exactly {len(model.pairs)} "
            f"pairwise models")


def test_06_recognition_accuracy_on_selected_features(corpus, eval_selected,
                                                      eval_samples_only):
    dataset, build_s = corpus
    selected, sel_s = eval_selected
    samples, sam_s = eval_samples_only
    assert len(dataset) == 900
    assert len(dataset.subject_ids()) == 15
    elapsed = build_s + sel_s + sam_s
    ok = (selected.mean_accuracy >= 0.90
          and selected.mean_accuracy >= samples.mean_accuracy
          and elapsed < 300.0)
    verdict(6, ok,
            f"selected-feature (43 stats + 30 samples) LOSO mean accuracy "
            f"{selected.mean_accuracy:.4f} >= 0.90 and >= samples-only "
            f"{samples.mean_accuracy:.4f}; {elapsed:.0f}s (< 300 s), "
            f"master seed {MASTER_SEED}")


def test_07_noise_augmentation_does_not_degrade(corpus, eval_plain,
                                                eval_augmented):
    _, build_s = corpus
    plain, plain_s = eval_plain
    augmented, aug_s = eval_augmented
    degradation = plain.mean_accuracy - augmented.mean_accuracy
    elapsed = build_s + plain_s + aug_s
    verdict(7, degradation <= 0.01 and elapsed < 300.0,
            f"sigma=0.5 augmentation: mean accuracy {plain.mean_accuracy:.4f}"
            f" -> {augmented.mean_accuracy:.4f}, degradation "
            f"{degradation:+.4f} <= 0.01; {elapsed:.0f}s (< 300 s)")


def test_08_identifier_balanced_accuracy_on_sparse_streams(identification):
    streams, report, elapsed = identification
    gesture = sum(len(iv) for _, ivs in streams for iv in ivs)
    total = sum(len(s) for s, _ in streams)
    prevalence = gesture / total
    assert 0.001 < prevalence < 0.01
    ok = (len(report.folds) == 4 and report.mean_balanced >= 0.80
          and elapsed < 300.0)
    verdict(8, ok,
            f"4 subjects at {prevalence:.2%} gesture prevalence, 100 "
            f"balance iterations: mean balanced accuracy "
            f"{report.mean_balanced:.4f} >= 0.80; {elapsed:.0f}s (< 300 s)")


def test_09_importance_separates_signal_noise_and_constant():
    rng = np.random.default_rng(909)
    half = 20
    informative = np.concatenate([rng.uniform(-2.0, -1.0, half),
                                  rng.uniform(1.0, 2.0, half)])
    X = np.column_stack([informative, rng.normal(size=2 * half),
                         np.full(2 * half, 7.0)])
    data = LabeledDataset(X=X, labels=["neg"] * half + ["pos"] * half,
                          subjects=["s"] * (2 * half),
                          feature_names=["informative", "noise", "constant"])
    result = permutation_importance(data, SvmTrainer(), n_reps=100, seed=909)
    info_wins = int(np.sum(result.per_rep[0] < result.per_rep[1]))
    constant_exact = bool(np.all(result.per_rep[2] == result.baseline))
    verdict(9, info_wins == 100 and constant_exact,
            f"informative drop exceeds noise drop in {info_wins}/100 "
            f"repetitions; constant feature changes accuracy by exactly 0")


def test_10_reruns_with_workers_are_byte_identical(corpus, eval_selected,
                                                   eval_augmented,
                                                   identification, tmp_path):
    dataset, _ = corpus
    streams, id_report, _ = identification
    first = {"selected": eval_selected[0], "augmented": eval_augmented[0],
             "identifier": id_report}
    # jobs=2 runs the folds in two batches, each in a worker process
    second = {
        "selected": loso_evaluate(dataset, SvmTrainer(select_k=43),
                                  seed=MASTER_SEED, jobs=2),
        "augmented": loso_evaluate(dataset, SvmTrainer(augment_sigma=0.5),
                                   seed=MASTER_SEED, jobs=2),
        "identifier": train_identifier(streams, IdentificationConfig(),
                                       seed=MASTER_SEED, jobs=2)[1],
    }
    identical = []
    for name in first:
        a = tmp_path / f"{name}_serial.csv"
        b = tmp_path / f"{name}_workers.csv"
        write_report_csv(first[name], a)
        write_report_csv(second[name], b)
        identical.append(a.read_bytes() == b.read_bytes())
    verdict(10, all(identical),
            "rerunning the three synthetic-corpus evaluations with a "
            "2-worker pool reproduced every report file byte for byte")


def test_11_forest_harness_emits_standard_report(corpus_dir, tmp_path):
    report = tmp_path / "forest_report.csv"
    confusion = tmp_path / "forest_confusion.csv"
    code = dispatch(["evaluate", "--data", str(corpus_dir),
                     "--classifier", "forest", "--trees", "100",
                     "--depth", "10", "--report", str(report),
                     "--confusion", str(confusion),
                     "--seed", str(MASTER_SEED), "--jobs", "4"])
    lines = report.read_text().splitlines()
    schema_ok = (lines[0] == "fold,subject,accuracy,balanced_accuracy"
                 and len(lines) == 16)
    accs = [float(ln.split(",")[2]) for ln in lines[1:]]
    values_ok = all(0.0 <= a <= 1.0 for a in accs)
    conf_lines = confusion.read_text().splitlines()
    conf_ok = len(conf_lines) == 13 and conf_lines[0].count(",") == 12
    verdict(11, code == 0 and schema_ok and values_ok and conf_ok,
            f"forest run (100 trees, depth 10) exited 0 with the standard "
            f"report schema; mean accuracy {np.mean(accs):.4f} "
            f"(informational, no target)")
