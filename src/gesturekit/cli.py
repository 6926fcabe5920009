"""Command-line front door: synthesis, RQA extraction, training,
identification, recognition, evaluation, importance, and augmentation.

Every subcommand accepts ``--seed`` and derives all randomness from it,
so repeating an invocation with identical flags writes byte-identical
files; ``--jobs`` changes wall time only. ``--params FILE`` reads a flat
``key = value`` text file whose keys are long option names with
underscores (``window_len = 250``); explicit flags still win. An option
for a tuned setting takes its default from the library object that owns
the setting (an RQA config, an SVM preset, ``SynthConfig`` or
``ForestConfig``), and its help line shows that default. Exit codes: 0
success, 1 usage, 2 unreadable input data, 3 validation or convergence
failure.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from .errors import ConvergenceError, ParseError, ValidationError
from .features import (DEFAULT_SAMPLES, featurize_segments,
                       is_sample_feature, read_feature_csv, sample_count,
                       write_feature_csv)
from .forest import ForestConfig
from .imu import (CHANNELS, LabeledDataset, cut_segments, parse_imu_csv,
                  parse_label_csv, read_text, write_file)
from .pipeline import (CentroidTrainer, ForestTrainer, IdentificationConfig,
                       SvmTrainer, identify_segments, load_identifier,
                       permutation_importance, loso_evaluate,
                       standardize_augment, train_identifier,
                       window_features, write_confusion_csv,
                       write_importance_csv, write_report_csv)
from .rqa import (EmbeddingConfig, NORMS, RpConfig, RqaWindowConfig,
                  recurrence_plot, time_delay_embed, write_rp_pgm,
                  write_rqa_csv)
from .svm import (KERNEL_KINDS, PRESETS, KernelConfig, load_model,
                  save_model, vote_ranking, vote_tally)
from .synth import SynthConfig, generate_dataset, write_dataset

# the library objects whose fields are the options' defaults
_IDENTIFICATION = IdentificationConfig()
_SYNTH = SynthConfig()
_FOREST = ForestConfig()


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default would be 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@contextmanager
def _pool(jobs: int):
    """Yield ``map``, or a ``jobs``-process pool's map shut down on exit."""
    if jobs < 1:
        raise ValidationError("--jobs must be >= 1")
    if jobs == 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield pool.map


def _add_common(sub, jobs=False):
    sub.add_argument("--seed", type=int, default=0,
                     help="master seed for every random draw "
                          "(default %(default)s)")
    sub.add_argument("--params", metavar="FILE",
                     help="flat `key = value` file overriding option "
                          "defaults")
    if jobs:
        sub.add_argument("--jobs", type=int, default=1,
                         help="worker processes; results are identical "
                              "for any value (default %(default)s)")


def _add_rqa(sub):
    window = _IDENTIFICATION.window
    sub.add_argument("--window-len", type=int, default=window.window_len,
                     help="window length in samples (default %(default)s)")
    sub.add_argument("--step", type=int, default=window.step,
                     help="window step in samples (default %(default)s)")
    _add_rp(sub)


def _add_rp(sub):
    cfg = _IDENTIFICATION
    sub.add_argument("--series", default=cfg.series, choices=CHANNELS,
                     help="channel to analyse (default %(default)s)")
    sub.add_argument("--delay", type=int, default=cfg.embedding.tau,
                     help="embedding delay (default %(default)s)")
    sub.add_argument("--dimension", type=int, default=cfg.embedding.m,
                     help="embedding dimension (default %(default)s)")
    sub.add_argument("--epsilon", type=float, default=cfg.rp.epsilon,
                     help="recurrence threshold (default %(default)s)")
    sub.add_argument("--norm", default=cfg.rp.norm, choices=NORMS,
                     help="state-distance norm (default %(default)s)")


def _add_svm(sub, preset: str):
    kernel, cost = PRESETS[preset]
    sub.add_argument("--kernel", default=kernel.kind, choices=KERNEL_KINDS,
                     help="kernel kind (default %(default)s)")
    sub.add_argument("--gamma", type=float, default=kernel.gamma,
                     help="kernel gamma (default %(default)s)")
    sub.add_argument("--cost", type=float, default=cost,
                     help="soft-margin cost (default %(default)s)")
    sub.add_argument("--degree", type=int, default=kernel.degree,
                     help="polynomial degree (default %(default)s)")
    sub.add_argument("--coef0", type=float, default=kernel.coef0,
                     help="polynomial/sigmoid offset (default %(default)s)")


def _add_features(sub, default="full"):
    sub.add_argument("--features", default=default,
                     choices=("full", "stats", "samples"),
                     help="feature set: 63 statistics + samples, "
                          "statistics only, or resampled accelerations "
                          "only (default %(default)s)")
    sub.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                     help="resampled points per acceleration axis "
                          "(default %(default)s)")


def _kernel_from(args) -> KernelConfig:
    return KernelConfig(kind=args.kernel, gamma=args.gamma,
                        coef0=args.coef0, degree=args.degree)


def _id_config(args, **training) -> IdentificationConfig:
    """Window geometry from the RQA flags; ``training`` sets the rest."""
    return IdentificationConfig(
        window=RqaWindowConfig(window_len=args.window_len, step=args.step),
        embedding=EmbeddingConfig(m=args.dimension, tau=args.delay),
        rp=RpConfig(epsilon=args.epsilon, norm=args.norm),
        series=args.series, **training)


def _data_dir(root, kind: str) -> Path:
    root = Path(root)
    sub = root / kind
    return sub if sub.is_dir() else root


def _load_streams(folder):
    folder = Path(folder)
    pairs = []
    for p in sorted(folder.glob("*.csv")):
        if p.name.endswith("_labels.csv"):
            continue
        labels = p.with_name(p.stem + "_labels.csv")
        if not labels.exists():
            raise ParseError(f"{labels}: missing label file")
        pairs.append((parse_imu_csv(p), parse_label_csv(labels)))
    if not pairs:
        raise ParseError(f"{folder}: no stream CSVs found")
    return pairs


def _load_segments(root):
    return cut_segments(_load_streams(_data_dir(root, "recognition")))


def _feature_columns(names, which: str):
    if which == "full":
        return None
    want_samples = which == "samples"
    return [i for i, nm in enumerate(names)
            if is_sample_feature(nm) == want_samples]


def _segment_dataset(args) -> LabeledDataset:
    dataset = featurize_segments(_load_segments(args.data),
                                 n_samples=args.samples)
    cols = _feature_columns(dataset.feature_names, args.features)
    return dataset if cols is None else dataset.take(columns=cols)


def read_params(path) -> dict[str, str]:
    """Flat config file: one ``key = value`` per line, ``#`` comments."""
    path = Path(path)
    try:
        text = read_text(path)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ParseError(f"{path}: line {lineno}: expected `key = value`")
        out[key.replace("-", "_")] = value
    return out


def _typed_overrides(sub: argparse.ArgumentParser, params_path) -> dict:
    raw = read_params(params_path)
    actions = {a.dest: a for a in sub._actions}
    out = {}
    for key, value in raw.items():
        action = actions.get(key)
        if action is None or key in ("help", "params"):
            raise ParseError(f"{params_path}: unknown parameter {key!r}")
        if action.choices is not None and value not in action.choices:
            raise ParseError(f"{params_path}: {key} must be one of "
                             f"{list(action.choices)}, got {value!r}")
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError):
                raise ParseError(f"{params_path}: invalid value for "
                                 f"{key!r}: {value!r}") from None
        out[key] = value
    return out


def _cmd_synth(args) -> int:
    cfg = SynthConfig(n_subjects=args.subjects, reps=args.reps,
                      rate_hz=args.rate, adl_minutes=args.adl_minutes,
                      gesture_fraction=args.gesture_fraction, seed=args.seed)
    with _pool(args.jobs) as mapper:
        result = generate_dataset(cfg, mapper)
    write_dataset(result, args.out)
    n_seg = sum(len(iv) for _, iv in result.recognition)
    line = f"wrote {cfg.n_subjects} subjects, {n_seg} segments"
    if result.identification:
        line += f", {len(result.identification)} continuous streams"
    print(f"{line} to {args.out}")
    return 0


def _cmd_rqa_features(args) -> int:
    starts, X = window_features(parse_imu_csv(args.infile), _id_config(args))
    write_rqa_csv(starts, X, args.outfile)
    print(f"wrote {len(X)} windows to {args.outfile}")
    return 0


def _cmd_rp_export(args) -> int:
    stream = parse_imu_csv(args.infile)
    series = stream.channel(args.series)
    start = args.start
    end = len(series) if args.length is None else start + args.length
    if not 0 <= start < end <= len(series):
        raise ValidationError(
            f"window [{start}, {end}) is empty or out of bounds for "
            f"{len(series)} samples")
    series = series[start:end]
    emb = EmbeddingConfig(m=args.dimension, tau=args.delay)
    plot = recurrence_plot(time_delay_embed(series, emb),
                           RpConfig(epsilon=args.epsilon, norm=args.norm),
                           emb)
    write_rp_pgm(plot, args.outfile)
    print(f"wrote {plot.n_states} x {plot.n_states} plot to {args.outfile}")
    return 0


def _cmd_train_identifier(args) -> int:
    data = _load_streams(_data_dir(args.data, "identification"))
    cfg = _id_config(args, overlap_fraction=args.overlap,
                     n_balance_iters=args.iterations,
                     kernel=_kernel_from(args), cost=args.cost)
    with _pool(args.jobs) as mapper:
        model, report = train_identifier(data, cfg, seed=args.seed,
                                         mapper=mapper)
    save_model(model, args.out)
    if args.report:
        write_report_csv(report, args.report)
    if args.confusion:
        write_confusion_csv(report, args.confusion)
    print(report.summary())
    return 0


def _cmd_identify(args) -> int:
    stream = parse_imu_csv(args.infile)
    model, cfg = load_identifier(args.model)
    segments = identify_segments(stream, model, cfg)
    write_file(args.outfile, "start,end,subject\n" + "".join(
        f"{start},{end},{stream.subject_id}\n" for start, end in segments))
    print(f"found {len(segments)} candidate segments in {args.infile}")
    return 0


def _cmd_train_recognizer(args) -> int:
    trainer = SvmTrainer(kernel=_kernel_from(args), cost=args.cost,
                         augment_sigma=args.augment_sigma)
    dataset = _segment_dataset(args)
    model = trainer.model(dataset, seed=args.seed)
    save_model(model, args.out)
    print(f"trained {len(model.pairs)} pairwise models on "
          f"{len(dataset)} segments, {dataset.X.shape[1]} features")
    return 0


def _cmd_recognize(args) -> int:
    model = load_model(args.model)
    dataset = featurize_segments([(parse_imu_csv(args.infile), "")],
                                 sample_count(model.registry.names))
    index = {nm: i for i, nm in enumerate(dataset.feature_names)}
    try:
        cols = [index[nm] for nm in model.registry.names]
    except KeyError as exc:
        raise ValidationError(
            f"model expects feature {exc.args[0]!r}, which segment "
            "featurization does not produce") from None
    votes, margins = vote_tally(model.classes, model.pairs,
                                model.decision_matrix(dataset.X[:, cols]))
    ranking = vote_ranking(votes, margins)[0]
    print(model.classes[ranking[0]])
    print("votes: " + ", ".join(f"{model.classes[i]}={votes[0, i]}"
                                for i in ranking[:3]), file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    for flag, value in (("--select", args.select),
                        ("--augment-sigma", args.augment_sigma)):
        if args.classifier == "forest" and value is not None:
            raise ValidationError(f"{flag} applies to --classifier svm only")
    if args.classifier == "svm":
        trainer = SvmTrainer(kernel=_kernel_from(args), cost=args.cost,
                             select_k=args.select,
                             augment_sigma=args.augment_sigma)
    else:
        trainer = ForestTrainer(ForestConfig(n_trees=args.trees,
                                             max_depth=args.depth))
    dataset = _segment_dataset(args)
    with _pool(args.jobs) as mapper:
        report = loso_evaluate(dataset, trainer, seed=args.seed,
                               mapper=mapper)
    write_report_csv(report, args.report)
    if args.confusion:
        write_confusion_csv(report, args.confusion)
    print(report.summary())
    return 0


def _cmd_importance(args) -> int:
    dataset = _segment_dataset(args)
    if args.classifier == "svm":
        trainer = SvmTrainer(kernel=_kernel_from(args), cost=args.cost)
    else:
        trainer = CentroidTrainer()
    with _pool(args.jobs) as mapper:
        result = permutation_importance(dataset, trainer, n_reps=args.reps,
                                        seed=args.seed, mapper=mapper)
    write_importance_csv(result, args.outfile)
    ranked = sorted(zip(result.drop, result.feature_names), reverse=True)
    top = ", ".join(f"{nm} ({d:+.4f})" for d, nm in ranked[:3])
    print(f"baseline accuracy {result.baseline:.4f}; largest drops: {top}")
    return 0


def _cmd_augment(args) -> int:
    dataset = read_feature_csv(args.infile)
    scaler, out = standardize_augment(dataset, args.sigma, seed=args.seed)
    # back to raw units; the originals are copied, not round-tripped
    n = len(dataset)
    out.X[:n] = dataset.X
    out.X[n:] = out.X[n:] * scaler.std + scaler.mean
    write_feature_csv(out, args.outfile)
    print(f"wrote {len(out)} rows ({n} original + {n} noisy) to "
          f"{args.outfile}")
    return 0


def build_parser():
    parser = _Parser(prog="gesturekit",
                     description="Gesture identification and recognition "
                                 "on wearable IMU streams.")
    subs = {}
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    def sub(name, handler, help_text, jobs=False):
        p = commands.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=handler)
        _add_common(p, jobs=jobs)
        subs[name] = p
        return p

    p = sub("synth", _cmd_synth,
            "Generate a synthetic labeled IMU corpus.", jobs=True)
    p.add_argument("--out", required=True, metavar="DIR",
                   help="output dataset directory")
    p.add_argument("--subjects", type=int, default=_SYNTH.n_subjects,
                   help="number of synthetic subjects (default %(default)s)")
    p.add_argument("--reps", type=int, default=_SYNTH.reps,
                   help="repetitions of each gesture per subject "
                        "(default %(default)s)")
    p.add_argument("--rate", type=float, default=_SYNTH.rate_hz,
                   help="sampling rate in Hz (default %(default)s)")
    p.add_argument("--adl-minutes", type=float, default=_SYNTH.adl_minutes,
                   help="continuous background stream length per subject; "
                        "0 skips identification streams (default "
                        "%(default)s)")
    p.add_argument("--gesture-fraction", type=float,
                   default=_SYNTH.gesture_fraction,
                   help="fraction of background samples inside gestures "
                        "(default %(default)s)")

    p = sub("rqa-features", _cmd_rqa_features,
            "Windowed recurrence features (rr, tra) from one stream.")
    p.add_argument("--in", dest="infile", required=True, metavar="CSV",
                   help="input IMU stream")
    p.add_argument("--out", dest="outfile", required=True, metavar="CSV",
                   help="output feature table")
    _add_rqa(p)

    p = sub("rp-export", _cmd_rp_export,
            "Export one recurrence plot as a PGM image.")
    p.add_argument("--in", dest="infile", required=True, metavar="CSV",
                   help="input IMU stream")
    p.add_argument("--out", dest="outfile", required=True, metavar="PGM",
                   help="output image (P5, white = recurrence)")
    p.add_argument("--start", type=int, default=0,
                   help="first sample of the exported span "
                        "(default %(default)s)")
    p.add_argument("--length", type=int, default=None,
                   help="span length in samples (default: whole stream)")
    _add_rp(p)

    p = sub("train-identifier", _cmd_train_identifier,
            "Train the gesture-window identifier on continuous streams.",
            jobs=True)
    p.add_argument("--data", required=True, metavar="DIR",
                   help="dataset root or folder of stream + label CSVs")
    p.add_argument("--out", required=True, metavar="MODEL",
                   help="output model file")
    p.add_argument("--report", metavar="CSV",
                   help="per-fold metric table")
    p.add_argument("--confusion", metavar="CSV",
                   help="summed confusion matrix")
    p.add_argument("--overlap", type=float,
                   default=_IDENTIFICATION.overlap_fraction,
                   help="fraction of a gesture that must fall inside a "
                        "window to label it positive (default %(default)s)")
    p.add_argument("--iterations", type=int,
                   default=_IDENTIFICATION.n_balance_iters,
                   help="balanced redraws per fold (default %(default)s)")
    _add_rqa(p)
    _add_svm(p, "identification")

    p = sub("identify", _cmd_identify,
            "Locate candidate gesture segments in a continuous stream.")
    p.add_argument("--in", dest="infile", required=True, metavar="CSV",
                   help="input IMU stream")
    p.add_argument("--model", required=True, metavar="MODEL",
                   help="identifier model; [rqa] sets the window geometry")
    p.add_argument("--out", dest="outfile", required=True, metavar="CSV",
                   help="output segment table (start,end,subject)")

    p = sub("train-recognizer", _cmd_train_recognizer,
            "Train the 12-class gesture recognizer on labeled segments.")
    p.add_argument("--data", required=True, metavar="DIR",
                   help="dataset root or folder of segment streams")
    p.add_argument("--out", required=True, metavar="MODEL",
                   help="output model file")
    p.add_argument("--augment-sigma", type=float, default=None,
                   help="train on originals plus noisy copies with this "
                        "z-score noise scale (default: off; tuned 0.5)")
    _add_features(p)
    _add_svm(p, "recognition")

    p = sub("recognize", _cmd_recognize,
            "Classify one gesture segment with a trained recognizer.")
    p.add_argument("--in", dest="infile", required=True, metavar="CSV",
                   help="segment stream to classify")
    p.add_argument("--model", required=True, metavar="MODEL",
                   help="recognizer model file")

    p = sub("evaluate", _cmd_evaluate,
            "Leave-one-subject-out evaluation on labeled segments.",
            jobs=True)
    p.add_argument("--data", required=True, metavar="DIR",
                   help="dataset root or folder of segment streams")
    p.add_argument("--classifier", default="svm", choices=("svm", "forest"),
                   help="model family (default %(default)s)")
    p.add_argument("--report", default="report.csv", metavar="CSV",
                   help="per-fold metric table (default %(default)s)")
    p.add_argument("--confusion", metavar="CSV",
                   help="summed confusion matrix")
    p.add_argument("--select", type=int, default=None,
                   help="rank statistical features per fold and keep this "
                        "many (default: off; tuned 43)")
    p.add_argument("--augment-sigma", type=float, default=None,
                   help="per-fold noise augmentation scale "
                        "(default: off; tuned 0.5)")
    p.add_argument("--trees", type=int, default=_FOREST.n_trees,
                   help="forest size (default %(default)s)")
    p.add_argument("--depth", type=int, default=_FOREST.max_depth,
                   help="forest depth cap (default %(default)s)")
    _add_features(p)
    _add_svm(p, "recognition")

    p = sub("importance", _cmd_importance,
            "Permutation importance of segment features.", jobs=True)
    p.add_argument("--data", required=True, metavar="DIR",
                   help="dataset root or folder of segment streams")
    p.add_argument("--out", dest="outfile", required=True, metavar="CSV",
                   help="output table (feature,mean_accuracy,drop)")
    p.add_argument("--reps", type=int, default=100,
                   help="permutations per feature (default %(default)s)")
    p.add_argument("--classifier", default="svm",
                   choices=("svm", "centroid"),
                   help="model retrained per permutation; centroid is a "
                        "fast approximation (default %(default)s)")
    _add_features(p, default="stats")
    _add_svm(p, "recognition")

    p = sub("augment", _cmd_augment,
            "Append noisy copies to a feature table.")
    p.add_argument("--in", dest="infile", required=True, metavar="CSV",
                   help="input feature table")
    p.add_argument("--out", dest="outfile", required=True, metavar="CSV",
                   help="output table with originals then noisy copies")
    p.add_argument("--sigma", type=float, default=0.5,
                   help="noise scale in per-feature standard deviations "
                        "(default %(default)s)")

    return parser, subs


def dispatch(argv) -> int:
    """Parse and run one invocation; returns the exit status."""
    parser, subs = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        if getattr(args, "params", None):
            subs[args.command].set_defaults(
                **_typed_overrides(subs[args.command], args.params))
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:
                return int(exc.code or 0)
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
