#!/usr/bin/env python3
"""End-to-end benchmark of the gesturekit CLI on seeded synthetic corpora.

Run from the repository root:

    python3 perfbench/run.py --workload spot --seed 20 --seconds 12 --trace 0

Each workload generates its corpus in set-up from ``--seed``, several
times, so that set-up time is a median and synthesis is checked to be
deterministic. It then repeats one pass of CLI invocations until
``--seconds`` have elapsed. Load is a closed loop with one client: this
process issues one ``gesturekit.cli.dispatch`` call at a time, with
``--jobs 1`` wherever a command takes it. BLAS thread settings are
recorded as found and never pinned.

Every invocation is checked. It must exit 0, its outputs must pass a
format check and the acceptance floors, and the bytes it writes (and its
stdout) must hash the same on every repeat, traced or not.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
named in BENCHMARK.json; their times are wall times rescaled to a
reference core speed (see speed.py), which a shared host's drift does
not move. With ``--trace 1`` it carries the per-layer
metrics, from a run that alternates untraced and traced passes; the
difference between the two is reported as the tracing overhead.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
SPOT_BALANCED_FLOOR = 0.80      # acceptance check 08
LOSO_ACCURACY_FLOOR = 0.90      # acceptance check 06
RECOGNIZE_ACCURACY_FLOOR = 0.90


@dataclass(frozen=True)
class Workload:
    """Corpus shape and the flags of one workload's CLI pass."""
    name: str
    subjects: int
    reps: int = 5
    adl_minutes: float = 0.0
    iterations: int = 100               # spot: balance iterations
    evaluate: tuple[str, ...] = ()      # extra `evaluate` flags
    per_class: int = 0                  # recognize: segments cut per class


# Why each workload exists is recorded in BENCHMARK.json; the layers each
# one should and should not move are in perfbench/README.md.
WORKLOADS = {
    "spot": Workload("spot", subjects=4, reps=1, adl_minutes=5.0,
                     iterations=40),
    "recognize": Workload("recognize", subjects=15, reps=1, per_class=1),
    "forest": Workload("forest", subjects=4,
                       evaluate=("--classifier", "forest", "--trees", "100",
                                 "--depth", "10")),
}


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the files it writes."""
    argv: tuple[str, ...]
    outputs: tuple[Path, ...] = ()
    truth: str | None = None            # recognize: the segment's label
    key: str | None = None              # set when repeats write elsewhere

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def ident(self) -> str:
        """Every repeat of one invocation shares this."""
        return self.key or " ".join(self.argv)


@dataclass
class Outcome:
    call: Call
    wall: float
    ref_s: float            # wall time at the reference speed (speed.py)
    stdout: str
    digest: str
    problems: list[str] = field(default_factory=list)


@dataclass
class Corpus:
    root: Path
    labels: frozenset = frozenset()
    stream_rows: dict = field(default_factory=dict)   # identify input rows
    segments: list = field(default_factory=list)      # (csv path, label)


@dataclass
class PassResult:
    outcomes: list[Outcome]
    traced: bool
    accuracy: float | None = None
    balanced: float | None = None

    @property
    def loso_ref_s(self) -> float:
        return self.outcomes[0].ref_s

    @property
    def pass_ref_s(self) -> float:
        return sum(o.ref_s for o in self.outcomes)

    @property
    def pass_wall(self) -> float:
        return sum(o.wall for o in self.outcomes)

    def digests(self) -> dict[str, str]:
        return {o.call.ident: o.digest for o in self.outcomes}


def _digest(stdout: str, outputs) -> str:
    """Hash of stdout and every output file; output paths in stdout are
    replaced by placeholders so that repeats into other folders agree."""
    for i, path in enumerate(outputs):
        stdout = stdout.replace(str(path), f"<output {i}>")
    h = hashlib.sha256(stdout.encode("utf-8"))
    for path in outputs:
        files = sorted(p for p in path.rglob("*") if p.is_file()) \
            if path.is_dir() else [path]
        for f in files:
            name = f.relative_to(path) if path.is_dir() else f.name
            h.update(f"\0{name}\0".encode("utf-8"))
            h.update(f.read_bytes() if f.exists() else b"\0missing")
    return h.hexdigest()


class Runner:
    """Issues CLI invocations one at a time and checks every output."""

    def __init__(self, cli, checker, probe):
        self.cli = cli
        self.checker = checker
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.first_digest = {}

    def call(self, call: Call) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with self.probe.measure() as timed:
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    status = self.cli.dispatch(list(call.argv))
            except Exception:   # a command that raises is a counted failure
                status = None
                err.write(traceback.format_exc())
        stdout = out.getvalue()
        outcome = Outcome(call, timed.wall, timed.ref_s, stdout,
                          _digest(stdout, call.outputs))
        self.attempted += 1
        if status != 0:
            self.fail(outcome, f"exit status {status}: "
                               f"{err.getvalue().strip()[-400:]}")
            return outcome
        for problem in self.checker(call, stdout):
            self.fail(outcome, problem)
        if self.first_digest.setdefault(call.ident, outcome.digest) \
                != outcome.digest:
            self.fail(outcome, "output bytes differ from the first repeat")
        return outcome

    def fail(self, outcome: Outcome, problem: str) -> None:
        if not outcome.problems:
            self.failed += 1
        outcome.problems.append(problem)
        print(f"FAIL {' '.join(outcome.call.argv)}: {problem}",
              file=sys.stderr)


def _read_csv(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def read_report(path) -> tuple[list[float], list[float]]:
    """Per-fold accuracy and balanced accuracy from a LOSO report."""
    rows = _read_csv(path)
    if not rows or rows[0] != ["fold", "subject", "accuracy",
                               "balanced_accuracy"]:
        raise ValueError("unexpected report header")
    return ([float(r[2]) for r in rows[1:]], [float(r[3]) for r in rows[1:]])


class Checker:
    """Format checks and acceptance floors for each command's outputs."""

    def __init__(self, workload: Workload):
        self.w = workload
        self.corpus = None      # set once set-up has built it

    def __call__(self, call: Call, stdout: str) -> list[str]:
        check = getattr(self, "_" + call.command.replace("-", "_"), None)
        if check is None:
            return []
        try:
            return check(call, stdout)
        except (OSError, ValueError, IndexError) as exc:
            return [f"unreadable output: {exc}"]

    def _synth(self, call, stdout):
        root = call.outputs[0]
        return [] if (root / "recognition").is_dir() else \
            ["no recognition folder written"]

    def _loso(self, call):
        """Mean accuracy, mean balanced accuracy and problems of a report."""
        acc, bal = read_report(call.outputs[0])
        problems = []
        if len(acc) != self.w.subjects:
            problems.append(f"{len(acc)} folds for {self.w.subjects} "
                            "subjects")
        if not all(0.0 <= v <= 1.0 for v in acc + bal):
            problems.append("accuracy outside [0, 1]")
        return statistics.fmean(acc), statistics.fmean(bal), problems

    def _train_identifier(self, call, stdout):
        _, bal, problems = self._loso(call)
        if bal < SPOT_BALANCED_FLOOR:
            problems.append(f"balanced accuracy {bal:.4f} below "
                            f"{SPOT_BALANCED_FLOOR}")
        conf = _read_csv(call.outputs[1])
        if len(conf) != 3 or any(len(r) != 3 for r in conf):
            problems.append("identifier confusion is not 2 x 2")
        if call.outputs[2].stat().st_size == 0:
            problems.append("empty model file")
        return problems

    def _evaluate(self, call, stdout):
        acc, _, problems = self._loso(call)
        if acc < LOSO_ACCURACY_FLOOR:
            problems.append(f"LOSO accuracy {acc:.4f} below "
                            f"{LOSO_ACCURACY_FLOOR}")
        conf = _read_csv(call.outputs[1])
        total = sum(int(v) for row in conf[1:] for v in row[1:])
        expected = self.w.subjects * len(self.corpus.labels) * self.w.reps
        if total != expected:
            problems.append(f"confusion counts {total} segments, "
                            f"expected {expected}")
        return problems

    def _identify(self, call, stdout):
        rows = _read_csv(call.outputs[0])
        if not rows or rows[0] != ["start", "end", "subject"]:
            return ["unexpected hits header"]
        stream = Path(call.argv[call.argv.index("--in") + 1])
        n = self.corpus.stream_rows[stream]
        for row in rows[1:]:
            start, end = int(row[0]), int(row[1])
            if not 0 <= start < end <= n or row[2] != stream.stem:
                return [f"hit {row} outside stream {stream.stem} of {n} rows"]
        return []

    def _train_recognizer(self, call, stdout):
        return [] if call.outputs[0].stat().st_size > 0 else \
            ["empty model file"]

    def _recognize(self, call, stdout):
        label = stdout.strip().splitlines()[0] if stdout.strip() else ""
        return [] if label in self.corpus.labels else \
            [f"unknown label {label!r}"]


def synth_call(w: Workload, seed: int, dest: Path) -> Call:
    argv = ["synth", "--out", str(dest), "--seed", str(seed),
            "--subjects", str(w.subjects), "--reps", str(w.reps),
            "--jobs", "1"]
    if w.adl_minutes:
        argv += ["--adl-minutes", str(w.adl_minutes),
                 "--gesture-fraction", "0.005"]
    return Call(tuple(argv), outputs=(dest,), key="synth")


def _labels_of(folder: Path):
    """(stream csv, start, end, label) for every interval in a folder."""
    out = []
    for lab in sorted(folder.glob("*_labels.csv")):
        stream = lab.with_name(lab.name[:-len("_labels.csv")] + ".csv")
        for row in _read_csv(lab)[1:]:
            out.append((stream, int(row[0]), int(row[1]), row[2]))
    return out


def cut_segments(w: Workload, seed: int, root: Path) -> list:
    """Write ``per_class`` labelled segments per class as one-segment CSVs.

    Rows are copied from the stream text and re-indexed from 0, so the
    segment files do not depend on the library's own writer.
    """
    by_label = {}
    for entry in _labels_of(root / "recognition"):
        by_label.setdefault(entry[3], []).append(entry)
    rng = random.Random(seed)
    dest = root / "segments"
    dest.mkdir()
    lines, out = {}, []
    for label in sorted(by_label):
        for stream, start, end, _ in rng.sample(by_label[label], w.per_class):
            if stream not in lines:
                lines[stream] = stream.read_text(encoding="utf-8") \
                    .splitlines()
            text = lines[stream]
            body = [f"{i},{row.split(',', 1)[1]}"
                    for i, row in enumerate(text[1 + start:1 + end])]
            path = dest / f"seg{len(out):02d}.csv"
            path.write_text("\n".join([text[0]] + body) + "\n",
                            encoding="utf-8")
            out.append((path, label))
    return out


def setup(runner: Runner, w: Workload, seed: int, dest: Path) -> Corpus:
    """Generate the corpus and the workload's derived inputs."""
    outcome = runner.call(synth_call(w, seed, dest))
    if outcome.problems:
        raise SystemExit(f"set-up failed: {outcome.problems}")
    corpus = Corpus(root=dest, labels=frozenset(
        e[3] for e in _labels_of(dest / "recognition")))
    if w.adl_minutes:
        for stream in sorted((dest / "identification").glob("*.csv")):
            if not stream.name.endswith("_labels.csv"):
                with open(stream, "rb") as fh:
                    corpus.stream_rows[stream] = sum(1 for _ in fh) - 1
    if w.per_class:
        corpus.segments = cut_segments(w, seed, dest)
    return corpus


def plan(w: Workload, corpus: Corpus, out: Path, seed: int) -> list[Call]:
    """One pass: the LOSO command first, then what deploys its model."""
    s, data = str(seed), str(corpus.root)
    report, confusion = out / "loso.csv", out / "confusion.csv"
    if w.adl_minutes:
        model = out / "identifier.model"
        calls = [Call(("train-identifier", "--data", data, "--out",
                       str(model), "--report", str(report), "--confusion",
                       str(confusion), "--iterations", str(w.iterations),
                       "--seed", s, "--jobs", "1"),
                      outputs=(report, confusion, model))]
        for stream in corpus.stream_rows:
            hits = out / f"hits_{stream.stem}.csv"
            calls.append(Call(("identify", "--in", str(stream), "--model",
                               str(model), "--out", str(hits), "--seed", s),
                              outputs=(hits,)))
        return calls
    calls = [Call(("evaluate", "--data", data, "--report", str(report),
                   "--confusion", str(confusion), "--seed", s, "--jobs", "1")
                  + w.evaluate, outputs=(report, confusion))]
    if corpus.segments:
        model = out / "recognizer.model"
        calls.append(Call(("train-recognizer", "--data", data, "--out",
                           str(model), "--seed", s), outputs=(model,)))
        calls += [Call(("recognize", "--in", str(seg), "--model", str(model)),
                       truth=label) for seg, label in corpus.segments]
    return calls


def run_pass(runner: Runner, calls: list[Call], traced: bool) -> PassResult:
    result = PassResult([runner.call(c) for c in calls], traced)
    first = result.outcomes[0]
    if not first.problems:
        acc, bal = read_report(first.call.outputs[0])
        result.accuracy, result.balanced = statistics.fmean(acc), \
            statistics.fmean(bal)
    recognized = [o for o in result.outcomes if o.call.truth is not None]
    if recognized:
        right = sum(o.stdout.strip().splitlines()[:1] == [o.call.truth]
                    for o in recognized)
        if right < RECOGNIZE_ACCURACY_FLOOR * len(recognized):
            trainer = next(o for o in result.outcomes
                           if o.call.command == "train-recognizer")
            runner.fail(trainer, f"recognized {right} of {len(recognized)} "
                                 "training segments correctly")
    return result


def model_rows(path: Path) -> tuple[int, int]:
    """Stored and distinct support-vector rows in a saved model file."""
    if not path.exists():
        return 0, 0
    rows = [ln for ln in path.read_text(encoding="utf-8").splitlines()
            if ln.startswith("sv ")]
    return len(rows), len(set(rows))


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8") \
                .strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        found = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": found.get("name"), "version": found.get("version")}
    except (TypeError, KeyError, ValueError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "git_commit": _git_commit(), "jobs": 1}


def _summary(passes: list[PassResult]) -> list[str]:
    lines = []
    by_command = {}
    for p in passes:
        for o in p.outcomes:
            by_command.setdefault(o.call.command, []).append(o.wall)
    for command, walls in by_command.items():
        ms = sorted(w * 1000.0 for w in walls)
        line = (f"{command}: {len(ms)} calls, median "
                f"{statistics.median(ms):.1f} ms, max {ms[-1]:.1f} ms")
        # the highest decile that still has ten samples above it
        top = next((d for d in range(9, 0, -1) if len(ms) * (10 - d) >= 100),
                   None)
        if top:
            line += (f", p{top * 10} "
                     f"{statistics.quantiles(ms, n=10)[top - 1]:.1f} ms")
        lines.append(line)
    return lines


def run(w: Workload, seed: int, seconds: float, trace: bool,
        work: Path) -> dict:
    """Set up, measure for ``seconds`` and return the result record."""
    import gesturekit.cli as cli
    from speed import SpeedProbe
    from tracing import Tracer

    tracer = Tracer()
    # traced runs report layer times as measured, without the probe
    probe = SpeedProbe(enabled=not trace)
    out = work / "out"
    out.mkdir(parents=True)
    checker = Checker(w)
    runner = Runner(cli, checker, probe)
    setup_times, setup_spans = [], (0, 0)
    for k in range(2 if trace else SETUP_REPEATS):
        traced = trace and k == 1     # one traced set-up, for the synth layer
        mark = tracer.mark()
        with tracer.installed() if traced else nullcontext(), \
                probe.measure() as timed:
            built = setup(runner, w, seed, work / f"corpus{k}")
        setup_times.append((timed.wall, timed.ref_s))
        if traced:
            setup_spans = (mark, tracer.mark())
        if k == 0:
            checker.corpus = built
        else:
            shutil.rmtree(built.root)

    calls = plan(w, checker.corpus, out, seed)
    passes, layer_runs = [], []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(run_pass(runner, calls, traced=False))
        if trace:
            mark = tracer.mark()
            with tracer.installed():
                passes.append(run_pass(runner, calls, traced=True))
            layer = tracer.aggregate(mark)
            layer["trace.spans"] = tracer.mark() - mark
            for name, value in tracer.aggregate(*setup_spans).items():
                layer[name] += value
            layer_runs.append(layer)
        if time.perf_counter() >= deadline:
            break

    plain = [p for p in passes if not p.traced]
    first = plain[0]
    if trace:
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in layer_runs[0]}
        traced = [p for p in passes if p.traced]
        metrics["trace.overhead_s"] = (
            statistics.median(p.pass_wall for p in traced)
            - statistics.median(p.pass_wall for p in plain))
        model = next((path for o in first.outcomes for path in o.call.outputs
                      if path.suffix == ".model"), None)
        stored, unique = model_rows(model) if model else (0, 0)
        metrics["svm.model_file.sv_rows"] = stored
        metrics["svm.model_file.unique_sv_rows"] = unique
        metrics["svm.model_file.unique_share"] = \
            unique / stored if stored else 0.0
        tracer.write_jsonl(work.parent / f"trace-{w.name}-seed{seed}.jsonl")
    else:
        metrics = {
            "setup_s": statistics.median(ref for _, ref in setup_times),
            "loso_ref_s": statistics.median(p.loso_ref_s for p in plain),
            "pass_ref_s": statistics.median(p.pass_ref_s for p in plain),
            "loso_accuracy": first.accuracy or 0.0,
            "loso_balanced_accuracy": first.balanced or 0.0,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
        }
    return {"metrics": metrics, "attempted": runner.attempted,
            "failed": runner.failed, "passes": passes,
            "setup_times": setup_times}


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=20)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gesturekit" / "cli.py").is_file():
        print(f"error: no gesturekit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    units = declared_units(bool(args.trace))

    WORK.mkdir(exist_ok=True)
    work = WORK / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                   f"-{os.getpid()}")
    try:
        result = run(workloads[args.workload], args.seed, args.seconds,
                     bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 1
    env = environment()
    for line in _summary(result["passes"]):
        print(line)
    print("setup wall/ref s: " + " ".join(
        f"{wall:.3f}/{ref:.3f}" for wall, ref in result["setup_times"]))
    for p in result["passes"]:
        print(f"{'traced' if p.traced else 'untraced'} pass: loso wall "
              f"{p.outcomes[0].wall:.3f} s, ref {p.loso_ref_s:.3f} s; whole "
              f"wall {p.pass_wall:.3f} s, ref {p.pass_ref_s:.3f} s")
    print(json.dumps({"env": env}, sort_keys=True))
    record = {"correct": result["failed"] == 0,
              "attempted": result["attempted"],
              "failed": result["failed"],
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(dict(record, env=env), indent=1) + "\n",
                  encoding="utf-8")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
