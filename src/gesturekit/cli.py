"""Command-line front door: synthesis, RQA extraction, training,
identification, recognition, evaluation, importance, and augmentation.

Every subcommand accepts ``--seed`` and derives all randomness from it,
so repeating an invocation with identical flags writes byte-identical
files; ``--jobs`` changes wall time only. ``--params FILE`` reads a flat
``key = value`` text file whose keys are long option names with
underscores (``window_len = 250``); explicit flags still win. A number
there or on the command line is read in the number grammar of every
input (``imu.read_number``), and ``--seed`` must be >= 0. An option
for a tuned setting takes its default from the library object that owns
the setting (``RqaConfig``, ``IdentificationConfig``, ``SvmTrainer``,
``SynthConfig`` or ``ForestConfig``), and its help line shows that
default. Exit codes: 0 success, 1 usage, 2 unreadable input data, 3
validation or convergence failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConvergenceError, ParseError, ValidationError
from .features import (DEFAULT_SAMPLES, STAT_NAMES, check_samples,
                       feature_names, featurize_segments, read_feature_csv,
                       write_feature_csv)
from .forest import ForestConfig
from .imu import (CHANNELS, LabeledDataset, cut_segments, parse_imu_csv,
                  parse_label_csv, read_lines, read_number, write_file)
from .pipeline import (CentroidTrainer, ForestTrainer, IdentificationConfig,
                       SvmTrainer, check_reps, check_select, check_sigma,
                       identify_segments, load_identifier,
                       permutation_importance, loso_evaluate, pool_map,
                       standardize_augment, train_identifier,
                       window_features, write_confusion_csv,
                       write_importance_csv, write_report_csv)
from .rqa import (NORMS, RqaConfig, recurrence_plot, time_delay_embed,
                  write_rp_pgm, write_rqa_csv)
from .svm import (KERNEL_KINDS, KernelConfig, load_model, save_model,
                  vote_ranking, vote_tally)
from .synth import SynthConfig, generate_dataset, write_dataset

# the library objects whose fields are the options' defaults
_RQA = RqaConfig()
_IDENTIFICATION = IdentificationConfig()
_RECOGNITION = SvmTrainer()
_SYNTH = SynthConfig()
_FOREST = ForestConfig()


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default would be 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _number(kind):
    """The argparse ``type`` of a ``kind`` option, named ``kind`` in its
    messages: ``read_number``, raising ValueError for int64 overflow."""
    def convert(text):
        try:
            return read_number(text, kind)
        except OverflowError as exc:
            raise ValueError(str(exc)) from None
    convert.__name__ = kind.__name__
    return convert


_INT, _FLOAT = _number(int), _number(float)


def _jobs(args) -> int:
    """``--jobs``, checked before any data is read."""
    if args.jobs < 1:
        raise ValidationError("--jobs must be >= 1")
    return args.jobs


def _add_common(sub, jobs=False):
    sub.add_argument("--seed", type=_INT, default=0,
                     help="master seed for every random draw "
                          "(default %(default)s)")
    sub.add_argument("--params", metavar="FILE",
                     help="flat `key = value` file overriding option "
                          "defaults")
    if jobs:
        sub.add_argument("--jobs", type=_INT, default=1,
                         help="worker processes; results are identical "
                              "for any value (default %(default)s)")


def _add_rqa(sub):
    sub.add_argument("--window-len", type=_INT, default=_RQA.window_len,
                     help="window length in samples (default %(default)s)")
    sub.add_argument("--step", type=_INT, default=_RQA.step,
                     help="window step in samples (default %(default)s)")
    _add_rp(sub)


def _add_rp(sub):
    sub.add_argument("--series", default=_RQA.series, choices=CHANNELS,
                     help="channel to analyse (default %(default)s)")
    sub.add_argument("--delay", type=_INT, default=_RQA.delay,
                     help="embedding delay (default %(default)s)")
    sub.add_argument("--dimension", type=_INT, default=_RQA.dimension,
                     help="embedding dimension (default %(default)s)")
    sub.add_argument("--epsilon", type=_FLOAT, default=_RQA.epsilon,
                     help="recurrence threshold (default %(default)s)")
    sub.add_argument("--norm", default=_RQA.norm, choices=NORMS,
                     help="state-distance norm (default %(default)s)")


def _add_svm(sub, owner):
    """The kernel and cost options, defaulting to ``owner``'s."""
    kernel, cost = owner.kernel, owner.cost
    sub.add_argument("--kernel", default=kernel.kind, choices=KERNEL_KINDS,
                     help="kernel kind (default %(default)s)")
    sub.add_argument("--gamma", type=_FLOAT, default=kernel.gamma,
                     help="kernel gamma (default %(default)s)")
    sub.add_argument("--cost", type=_FLOAT, default=cost,
                     help="soft-margin cost (default %(default)s)")
    sub.add_argument("--degree", type=_INT, default=kernel.degree,
                     help="polynomial degree (default %(default)s)")
    sub.add_argument("--coef0", type=_FLOAT, default=kernel.coef0,
                     help="polynomial/sigmoid offset (default %(default)s)")


def _add_features(sub, default="full"):
    sub.add_argument("--features", default=default,
                     choices=("full", "stats", "samples"),
                     help="feature set: 63 statistics + samples, "
                          "statistics only, or resampled accelerations "
                          "only (default %(default)s)")
    sub.add_argument("--samples", type=_INT, default=DEFAULT_SAMPLES,
                     help="resampled points per acceleration axis "
                          "(default %(default)s)")


def _kernel_from(args) -> KernelConfig:
    return KernelConfig(kind=args.kernel, gamma=args.gamma,
                        coef0=args.coef0, degree=args.degree)


def _data_dir(root, kind: str) -> Path:
    root = Path(root)
    sub = root / kind
    return sub if sub.is_dir() else root


def _load_streams(folder, channels=CHANNELS):
    """``(stream, intervals)`` per stream CSV of ``folder``, each stream
    keeping ``channels``."""
    folder = Path(folder)
    pairs = []
    for p in sorted(folder.glob("*.csv")):
        if p.name.endswith("_labels.csv"):
            continue
        labels = p.with_name(p.stem + "_labels.csv")
        if not labels.exists():
            raise ParseError(f"{labels}: missing label file")
        pairs.append((parse_imu_csv(p, channels), parse_label_csv(labels)))
    if not pairs:
        raise ParseError(f"{folder}: no stream CSVs found")
    return pairs


def _segment_dataset(args) -> LabeledDataset:
    check_samples(args.samples)
    names = feature_names(args.samples)
    # feature_names lists the 63 statistics, then the samples
    names = {"full": names, "stats": STAT_NAMES,
             "samples": names[len(STAT_NAMES):]}[args.features]
    return featurize_segments(
        cut_segments(_load_streams(_data_dir(args.data, "recognition"))),
        names)


def read_params(path) -> dict[str, str]:
    """Flat config file: one ``key = value`` per line, ``#`` comments."""
    path = Path(path)
    try:
        lines = read_lines(path)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    out = {}
    for lineno, raw in enumerate(lines, 1):
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
            except ValueError:
                raise ParseError(f"{params_path}: invalid value for "
                                 f"{key!r}: {value!r}") from None
        out[key] = value
    return out


def _cmd_synth(args) -> int:
    cfg = SynthConfig(n_subjects=args.subjects, reps=args.reps,
                      rate_hz=args.rate, adl_minutes=args.adl_minutes,
                      gesture_fraction=args.gesture_fraction, seed=args.seed)
    with pool_map(min(_jobs(args), cfg.n_subjects)) as mapper:
        result = generate_dataset(cfg, mapper)
    write_dataset(result, args.out)
    n_seg = sum(len(iv) for _, iv in result.recognition)
    line = f"wrote {cfg.n_subjects} subjects, {n_seg} segments"
    if result.identification:
        line += f", {len(result.identification)} continuous streams"
    print(f"{line} to {args.out}")
    return 0


def _cmd_rqa_features(args) -> int:
    cfg = RqaConfig.parse(vars(args))
    cfg.check_window()
    stream = parse_imu_csv(args.infile, (cfg.series,))
    cfg.check_length(len(stream), f"{args.infile}: stream")
    starts, X = window_features(stream, cfg)
    write_rqa_csv(starts, X, args.outfile)
    print(f"wrote {len(X)} windows to {args.outfile}")
    return 0


def _cmd_rp_export(args) -> int:
    cfg = RqaConfig.parse(vars(args))
    if args.start < 0:
        raise ValidationError("--start must be >= 0")
    if args.length is not None and args.length < 1:
        raise ValidationError("--length must be >= 1")
    series = parse_imu_csv(args.infile, (cfg.series,)).channel(cfg.series)
    start = args.start
    end = len(series) if args.length is None else start + args.length
    if not 0 <= start < end <= len(series):
        raise ValidationError(
            f"window [{start}, {end}) is empty or out of bounds for "
            f"{len(series)} samples")
    plot = recurrence_plot(time_delay_embed(series[start:end], cfg), cfg)
    write_rp_pgm(plot, args.outfile)
    print(f"wrote {len(plot)} x {len(plot)} plot to {args.outfile}")
    return 0


def _cmd_train_identifier(args) -> int:
    cfg = IdentificationConfig(
        RqaConfig.parse(vars(args)), overlap_fraction=args.overlap,
        n_balance_iters=args.iterations, kernel=_kernel_from(args),
        cost=args.cost)
    jobs = _jobs(args)
    data = _load_streams(_data_dir(args.data, "identification"),
                         (cfg.rqa.series,))
    model, report = train_identifier(data, cfg, seed=args.seed, jobs=jobs)
    save_model(model, args.out)
    if args.report:
        write_report_csv(report, args.report)
    if args.confusion:
        write_confusion_csv(report, args.confusion)
    print(report.summary())
    return 0


def _cmd_identify(args) -> int:
    # the model names the one series to keep, but a bad stream is still
    # reported before a bad model
    try:
        model, cfg = load_identifier(args.model)
    except (ParseError, OSError):
        parse_imu_csv(args.infile, CHANNELS[:1])
        raise
    stream = parse_imu_csv(args.infile, (cfg.series,))
    cfg.check_length(len(stream), f"{args.infile}: stream")
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
                                 model.feature_names)
    votes, margins = vote_tally(len(model.classes),
                                model.decision_matrix(dataset.X))
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
    if args.select is not None:
        # the statistics --features keeps are known before any data is read
        check_select(args.select, 0 if args.features == "samples"
                     else len(STAT_NAMES))
    if args.classifier == "svm":
        trainer = SvmTrainer(kernel=_kernel_from(args), cost=args.cost,
                             select_k=args.select,
                             augment_sigma=args.augment_sigma)
    else:
        trainer = ForestTrainer(ForestConfig(n_trees=args.trees,
                                             max_depth=args.depth))
    jobs = _jobs(args)
    dataset = _segment_dataset(args)
    report = loso_evaluate(dataset, trainer, seed=args.seed, jobs=jobs)
    write_report_csv(report, args.report)
    if args.confusion:
        write_confusion_csv(report, args.confusion)
    print(report.summary())
    return 0


def _cmd_importance(args) -> int:
    check_reps(args.reps)
    if args.classifier == "svm":
        trainer = SvmTrainer(kernel=_kernel_from(args), cost=args.cost)
    else:
        trainer = CentroidTrainer()
    jobs = _jobs(args)
    dataset = _segment_dataset(args)
    with pool_map(min(jobs, dataset.X.shape[1])) as mapper:
        result = permutation_importance(dataset, trainer, n_reps=args.reps,
                                        seed=args.seed, mapper=mapper)
    write_importance_csv(result, args.outfile)
    ranked = sorted(zip(result.drop, result.feature_names), reverse=True)
    top = ", ".join(f"{nm} ({d:+.4f})" for d, nm in ranked[:3])
    print(f"baseline accuracy {result.baseline:.4f}; largest drops: {top}")
    return 0


def _cmd_augment(args) -> int:
    check_sigma(args.sigma)
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


def _synth_options(p):
    p.add_argument("--out", required=True, metavar="DIR",
                   help="output dataset directory")
    p.add_argument("--subjects", type=_INT, default=_SYNTH.n_subjects,
                   help="number of synthetic subjects (default %(default)s)")
    p.add_argument("--reps", type=_INT, default=_SYNTH.reps,
                   help="repetitions of each gesture per subject "
                        "(default %(default)s)")
    p.add_argument("--rate", type=_FLOAT, default=_SYNTH.rate_hz,
                   help="sampling rate in Hz (default %(default)s)")
    p.add_argument("--adl-minutes", type=_FLOAT, default=_SYNTH.adl_minutes,
                   help="continuous background stream length per subject; "
                        "0 skips identification streams (default "
                        "%(default)s)")
    p.add_argument("--gesture-fraction", type=_FLOAT,
                   default=_SYNTH.gesture_fraction,
                   help="fraction of background samples inside gestures "
                        "(default %(default)s)")


def _rqa_features_options(p):
    p.add_argument("--in", dest="infile", required=True, metavar="CSV",
                   help="input IMU stream")
    p.add_argument("--out", dest="outfile", required=True, metavar="CSV",
                   help="output feature table")
    _add_rqa(p)


def _rp_export_options(p):
    p.add_argument("--in", dest="infile", required=True, metavar="CSV",
                   help="input IMU stream")
    p.add_argument("--out", dest="outfile", required=True, metavar="PGM",
                   help="output image (P5, white = recurrence)")
    p.add_argument("--start", type=_INT, default=0,
                   help="first sample of the exported span "
                        "(default %(default)s)")
    p.add_argument("--length", type=_INT, default=None,
                   help="span length in samples (default: whole stream)")
    _add_rp(p)


def _train_identifier_options(p):
    p.add_argument("--data", required=True, metavar="DIR",
                   help="dataset root or folder of stream + label CSVs")
    p.add_argument("--out", required=True, metavar="MODEL",
                   help="output model file")
    p.add_argument("--report", metavar="CSV",
                   help="per-fold metric table")
    p.add_argument("--confusion", metavar="CSV",
                   help="summed confusion matrix")
    p.add_argument("--overlap", type=_FLOAT,
                   default=_IDENTIFICATION.overlap_fraction,
                   help="fraction of a gesture that must fall inside a "
                        "window to label it positive (default %(default)s)")
    p.add_argument("--iterations", type=_INT,
                   default=_IDENTIFICATION.n_balance_iters,
                   help="balanced redraws per fold (default %(default)s)")
    _add_rqa(p)
    _add_svm(p, _IDENTIFICATION)


def _identify_options(p):
    p.add_argument("--in", dest="infile", required=True, metavar="CSV",
                   help="input IMU stream")
    p.add_argument("--model", required=True, metavar="MODEL",
                   help="identifier model; [rqa] sets the window geometry")
    p.add_argument("--out", dest="outfile", required=True, metavar="CSV",
                   help="output segment table (start,end,subject)")


def _train_recognizer_options(p):
    p.add_argument("--data", required=True, metavar="DIR",
                   help="dataset root or folder of segment streams")
    p.add_argument("--out", required=True, metavar="MODEL",
                   help="output model file")
    p.add_argument("--augment-sigma", type=_FLOAT, default=None,
                   help="train on originals plus noisy copies with this "
                        "z-score noise scale (default: off; tuned 0.5)")
    _add_features(p)
    _add_svm(p, _RECOGNITION)


def _recognize_options(p):
    p.add_argument("--in", dest="infile", required=True, metavar="CSV",
                   help="segment stream to classify")
    p.add_argument("--model", required=True, metavar="MODEL",
                   help="recognizer model file")


def _evaluate_options(p):
    p.add_argument("--data", required=True, metavar="DIR",
                   help="dataset root or folder of segment streams")
    p.add_argument("--classifier", default="svm", choices=("svm", "forest"),
                   help="model family (default %(default)s)")
    p.add_argument("--report", default="report.csv", metavar="CSV",
                   help="per-fold metric table (default %(default)s)")
    p.add_argument("--confusion", metavar="CSV",
                   help="summed confusion matrix")
    p.add_argument("--select", type=_INT, default=None,
                   help="rank statistical features per fold and keep this "
                        "many (default: off; tuned 43)")
    p.add_argument("--augment-sigma", type=_FLOAT, default=None,
                   help="per-fold noise augmentation scale "
                        "(default: off; tuned 0.5)")
    p.add_argument("--trees", type=_INT, default=_FOREST.n_trees,
                   help="forest size (default %(default)s)")
    p.add_argument("--depth", type=_INT, default=_FOREST.max_depth,
                   help="forest depth cap (default %(default)s)")
    _add_features(p)
    _add_svm(p, _RECOGNITION)


def _importance_options(p):
    p.add_argument("--data", required=True, metavar="DIR",
                   help="dataset root or folder of segment streams")
    p.add_argument("--out", dest="outfile", required=True, metavar="CSV",
                   help="output table (feature,mean_accuracy,drop)")
    p.add_argument("--reps", type=_INT, default=100,
                   help="permutations per feature (default %(default)s)")
    p.add_argument("--classifier", default="svm",
                   choices=("svm", "centroid"),
                   help="model retrained per permutation; centroid is a "
                        "fast approximation (default %(default)s)")
    _add_features(p, default="stats")
    _add_svm(p, _RECOGNITION)


def _augment_options(p):
    p.add_argument("--in", dest="infile", required=True, metavar="CSV",
                   help="input feature table")
    p.add_argument("--out", dest="outfile", required=True, metavar="CSV",
                   help="output table with originals then noisy copies")
    p.add_argument("--sigma", type=_FLOAT, default=0.5,
                   help="noise scale in per-feature standard deviations "
                        "(default %(default)s)")


# name: (handler, help line, takes --jobs, adds the other options)
_COMMANDS = {
    "synth": (_cmd_synth, "Generate a synthetic labeled IMU corpus.", True,
              _synth_options),
    "rqa-features": (_cmd_rqa_features, "Windowed recurrence features "
                     "(rr, tra) from one stream.", False,
                     _rqa_features_options),
    "rp-export": (_cmd_rp_export, "Export one recurrence plot as a PGM "
                  "image.", False, _rp_export_options),
    "train-identifier": (_cmd_train_identifier, "Train the gesture-window "
                         "identifier on continuous streams.", True,
                         _train_identifier_options),
    "identify": (_cmd_identify, "Locate candidate gesture segments in a "
                 "continuous stream.", False, _identify_options),
    "train-recognizer": (_cmd_train_recognizer, "Train the 12-class gesture "
                         "recognizer on labeled segments.", False,
                         _train_recognizer_options),
    "recognize": (_cmd_recognize, "Classify one gesture segment with a "
                  "trained recognizer.", False, _recognize_options),
    "evaluate": (_cmd_evaluate, "Leave-one-subject-out evaluation on "
                 "labeled segments.", True, _evaluate_options),
    "importance": (_cmd_importance, "Permutation importance of segment "
                   "features.", True, _importance_options),
    "augment": (_cmd_augment, "Append noisy copies to a feature table.",
                False, _augment_options),
}


def build_parser(command=None):
    """The top-level parser and its subparsers by name.

    Only the subcommand named ``command`` is registered, as argparse's
    cost is per parser and per option; all are when ``command`` names
    none of them. A parse that starts with a subcommand's name reaches no
    other subparser, and the top-level usage names none, so its result,
    help and error text are those of the full parser.
    """
    parser = _Parser(prog="gesturekit",
                     description="Gesture identification and recognition "
                                 "on wearable IMU streams.")
    subs = {}
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name in [command] if command in _COMMANDS else _COMMANDS:
        handler, help_text, jobs, add_options = _COMMANDS[name]
        p = commands.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=handler)
        _add_common(p, jobs=jobs)
        add_options(p)
        subs[name] = p
    return parser, subs


def dispatch(argv) -> int:
    """Parse and run one invocation; returns the exit status."""
    parser, subs = build_parser(argv[0] if argv else None)
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
        if args.seed < 0:
            raise ValidationError("--seed must be >= 0")
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
