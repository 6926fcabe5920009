"""End-to-end runs of every subcommand through dispatch()."""

import io
import os
import shutil
import subprocess
import sys
from argparse import Namespace
from contextlib import redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest

import gesturekit
from gesturekit.cli import _kernel_from, build_parser, dispatch, read_params
from gesturekit.errors import ParseError
from gesturekit.features import read_feature_csv
from gesturekit.forest import ForestConfig
from gesturekit.imu import cut_segments, extract_segment, parse_imu_csv, \
    parse_label_csv, write_imu_csv
from gesturekit import cli, forest, pipeline
from gesturekit.pipeline import IdentificationConfig, SvmTrainer
from gesturekit.rqa import RqaConfig
from gesturekit.svm import load_model
from gesturekit.synth import TEMPLATES, SynthConfig


COMMANDS = ("synth", "rqa-features", "rp-export", "train-identifier",
            "identify", "train-recognizer", "recognize", "evaluate",
            "importance", "augment")


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus") / "data"
    code = dispatch(["synth", "--out", str(out), "--subjects", "2",
                     "--reps", "2", "--adl-minutes", "1.0", "--seed", "5"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def stream_csv(data_dir):
    return sorted((data_dir / "identification").glob("s01*.csv"))[0]


@pytest.fixture(scope="module")
def identifier(data_dir, tmp_path_factory):
    base = tmp_path_factory.mktemp("identifier")
    model = base / "identifier.model"
    report = base / "report.csv"
    code = dispatch(["train-identifier", "--data", str(data_dir),
                     "--out", str(model), "--report", str(report),
                     "--iterations", "3", "--seed", "1"])
    assert code == 0
    return model, report


@pytest.fixture(scope="module")
def recognizer(data_dir, tmp_path_factory):
    model = tmp_path_factory.mktemp("recognizer") / "recognizer.model"
    code = dispatch(["train-recognizer", "--data", str(data_dir),
                     "--out", str(model), "--seed", "1"])
    assert code == 0
    return model


class TestParsing:
    def test_no_command_prints_usage(self, capsys):
        assert dispatch([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert dispatch(["frobnicate"]) == 1

    def test_bad_flag_value(self, tmp_path, capsys):
        code = dispatch(["synth", "--out", str(tmp_path / "d"),
                         "--subjects", "many"])
        assert code == 1

    def test_help_exits_clean(self, capsys):
        assert dispatch(["--help"]) == 0
        assert "gesturekit" in capsys.readouterr().out
        assert dispatch(["train-identifier", "--help"]) == 0
        gamma = IdentificationConfig().kernel.gamma
        assert f"gamma (default {gamma})" in \
            " ".join(capsys.readouterr().out.split())
        assert dispatch(["synth", "--help"]) == 0
        assert f"subjects (default {SynthConfig().n_subjects})" in \
            " ".join(capsys.readouterr().out.split())
        assert dispatch(["identify", "--help"]) == 0
        out = capsys.readouterr().out
        assert "[rqa] sets" in out and "window 125" not in out

    @pytest.mark.parametrize("command", (None,) + COMMANDS)
    def test_help_and_usage_error_match_full_parser(self, command, capsys):
        """dispatch registers the invoked command only, and its help and
        usage-error text are the fully built parser's, byte for byte."""
        parser, subs = build_parser()
        assert tuple(subs) == COMMANDS
        head = [] if command is None else [command]
        cases = [head + ["--help"], head + ["--no-such-option"]]
        if command is not None:
            # errors that the command's own parser reports: a missing
            # required option and a bad option value
            cases += [head, head + ["--seed", "x"]]
        for argv in cases:
            code = dispatch(argv)
            lazy = capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            full = capsys.readouterr()
            assert (code, lazy.out, lazy.err) == \
                (exc.value.code, full.out, full.err)
            assert lazy.out if argv[-1] == "--help" else lazy.err

    def test_parser_for_one_command_registers_it_alone(self):
        _, subs = build_parser("recognize")
        _, full = build_parser()
        assert tuple(subs) == ("recognize",)
        assert [a.dest for a in subs["recognize"]._actions] == \
            [a.dest for a in full["recognize"]._actions]

    def test_option_defaults_are_the_library_defaults(self):
        """Every tuned option defaults to the value of the library object
        that owns it, so the CLI and the library cannot disagree."""
        _, subs = build_parser()

        def defaults(name):
            return Namespace(**{a.dest: a.default for a in subs[name]._actions})

        args = defaults("train-identifier")
        assert IdentificationConfig(
            RqaConfig.parse(vars(args)), overlap_fraction=args.overlap,
            n_balance_iters=args.iterations, kernel=_kernel_from(args),
            cost=args.cost) == IdentificationConfig()
        for name in ("train-identifier", "rqa-features", "rp-export"):
            assert RqaConfig.parse(vars(defaults(name))) == RqaConfig()
        recognition = SvmTrainer()
        for name in ("train-recognizer", "evaluate", "importance"):
            args = defaults(name)
            assert (_kernel_from(args), args.cost) == \
                (recognition.kernel, recognition.cost)
        args = defaults("evaluate")
        assert ForestConfig(n_trees=args.trees,
                            max_depth=args.depth) == ForestConfig()
        args = defaults("synth")
        assert SynthConfig(n_subjects=args.subjects, reps=args.reps,
                           rate_hz=args.rate, adl_minutes=args.adl_minutes,
                           gesture_fraction=args.gesture_fraction,
                           seed=args.seed) == SynthConfig()

    def test_console_script_installed(self):
        """The entry point pyproject.toml declares runs as its launcher would.

        An installer writes a launcher that imports the declared callable,
        sets argv[0] to the script name and exits with its return value;
        running that in a fresh interpreter checks the declaration without
        installing the package.
        """
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["gesturekit"]
        module, _, func = target.partition(":")
        launcher = (f"import sys\n"
                    f"from {module} import {func}\n"
                    f"sys.argv[0] = 'gesturekit'\n"
                    f"sys.exit({func}())\n")
        package_root = str(Path(gesturekit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", launcher, "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "COMMAND" in proc.stdout

    def test_cli_import_leaves_out_scipy_signal(self, tmp_path):
        """No command needs scipy.signal, not even synth writing ADL
        streams, so none pays for importing it."""
        package_root = str(Path(gesturekit.__file__).resolve().parents[1])
        probe = ("import sys\n"
                 f"sys.path.insert(0, {package_root!r})\n"
                 "import gesturekit.cli\n"
                 "print('scipy.signal' in sys.modules)\n"
                 "code = gesturekit.cli.dispatch(['synth', '--out', "
                 f"{str(tmp_path / 'corpus')!r}, '--subjects', '2', "
                 "'--reps', '1', '--adl-minutes', '0.5'])\n"
                 "print(code, 'scipy.signal' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "False"
        assert proc.stdout.splitlines()[-1] == "0 False"
        assert (tmp_path / "corpus" / "identification" / "s01.csv").exists()

    def test_only_the_radial_kernel_loads_scipy(self, tmp_path):
        """Spotting, the RQA exports and the forest run on numpy alone; the
        radial kernel's Gram is the one scipy user left, so an SVM
        evaluate loads scipy.spatial.distance."""
        package_root = str(Path(gesturekit.__file__).resolve().parents[1])
        data, out = tmp_path / "corpus", tmp_path / "out"
        stream = data / "identification" / "s01.csv"
        commands = [
            ["synth", "--out", data, "--subjects", "2", "--reps", "2",
             "--adl-minutes", "0.5"],
            ["train-identifier", "--data", data, "--out", out / "id.model",
             "--report", out / "id.csv", "--iterations", "2"],
            ["identify", "--in", stream, "--model", out / "id.model",
             "--out", out / "hits.csv"],
            ["rqa-features", "--in", stream, "--out", out / "rqa.csv"],
            ["rp-export", "--in", stream, "--out", out / "rp.pgm",
             "--length", "300"],
            ["evaluate", "--data", data, "--classifier", "forest",
             "--trees", "5", "--depth", "3", "--report", out / "forest.csv"],
            ["evaluate", "--data", data, "--report", out / "svm.csv"],
        ]
        out.mkdir()
        probe = ("import sys\n"
                 f"sys.path.insert(0, {package_root!r})\n"
                 "import gesturekit.cli\n"
                 "def scipy_modules():\n"
                 "    return sorted(m for m in sys.modules\n"
                 "                  if m.split('.')[0] == 'scipy')\n"
                 "print('probe', 'import', scipy_modules())\n"
                 f"for argv in {[[str(a) for a in c] for c in commands]!r}:\n"
                 "    code = gesturekit.cli.dispatch(argv)\n"
                 "    print('probe', argv[0], code, scipy_modules())\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = [line for line in proc.stdout.splitlines()
                 if line.startswith("probe ")]
        assert lines[:-1] == ["probe import []"] + [
            f"probe {c[0]} 0 []" for c in commands[:-1]]
        assert lines[-1].startswith("probe evaluate 0 [")
        assert "'scipy.spatial.distance'" in lines[-1]

    def test_geometry_options_match_the_model_file(self):
        """Only synth takes a rate (`evaluate --rate 50` exits 1), identify
        takes no RQA option (`identify --window-len 250` exits 1), and
        every train-identifier option that is not a training setting is
        recorded in the model file's [rqa] section."""
        _, subs = build_parser()
        dests = {name: {a.dest for a in p._actions}
                 for name, p in subs.items()}
        assert [name for name, d in dests.items() if "rate" in d] == \
            ["synth"]
        training = {"help", "seed", "params", "jobs", "data", "out",
                    "report", "confusion", "overlap", "iterations", "kernel",
                    "gamma", "cost", "degree", "coef0"}
        assert dests["train-identifier"] - training == \
            {f.name for f in fields(RqaConfig)}
        assert dests["identify"] == {"help", "seed", "params", "infile",
                                     "model", "outfile"}

    def test_rqa_options_read_into_config_fields(self):
        """Each train-identifier RQA option reaches the RqaConfig field of
        its name, and the [rqa] text lists the fields in order."""
        parser, _ = build_parser()
        args = parser.parse_args([
            "train-identifier", "--data", "d", "--out", "m",
            "--series", "gyro_z", "--window-len", "150", "--step", "30",
            "--dimension", "3", "--delay", "2", "--epsilon", "0.3",
            "--norm", "Linf"])
        assert RqaConfig.parse(vars(args)).text() == (
            ("series", "gyro_z"), ("window_len", "150"), ("step", "30"),
            ("dimension", "3"), ("delay", "2"), ("epsilon", "0.3"),
            ("norm", "Linf"))

    @pytest.mark.skipif(shutil.which("gesturekit") is None,
                        reason="no gesturekit executable on PATH")
    def test_console_script_on_path(self):
        proc = subprocess.run(["gesturekit", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "COMMAND" in proc.stdout


def with_bad_byte(text: str, path: Path) -> Path:
    """Write ``text`` with one byte that is not UTF-8 after its first line."""
    head, _, tail = text.partition("\n")
    path.write_bytes(head.encode() + b"\n\xff" + tail.encode())
    return path


class TestUndecodableInput:
    @pytest.mark.parametrize("reader", ["stream", "labels", "features",
                                        "model", "params"])
    def test_reader_raises_parse_error(self, reader, stream_csv, identifier,
                                       tmp_path):
        labels = stream_csv.with_name(stream_csv.stem + "_labels.csv")
        read, text = {
            "stream": (parse_imu_csv, stream_csv.read_text()),
            "labels": (parse_label_csv, labels.read_text()),
            "features": (read_feature_csv, "f0,label,subject\n1.0,Up,s01\n"),
            "model": (load_model, identifier[0].read_text()),
            "params": (read_params, "window_len = 250\n"),
        }[reader]
        path = with_bad_byte(text, tmp_path / f"bad-{reader}.txt")
        with pytest.raises(ParseError, match=f"bad-{reader}.txt: not UTF-8"):
            read(path)

    @pytest.mark.parametrize("command,option", [
        ("rqa-features", "--in"), ("identify", "--model"),
        ("identify", "--params")])
    def test_cli_exits_2(self, command, option, stream_csv, identifier,
                         tmp_path, capsys):
        argv = {"--in": stream_csv, "--model": identifier[0],
                "--out": tmp_path / "o.csv"}
        if command == "rqa-features":
            del argv["--model"]
        text = argv[option].read_text() if option in argv else "delay = 1\n"
        argv[option] = with_bad_byte(text, tmp_path / "bad.txt")
        assert dispatch([command] + [str(x) for kv in argv.items()
                                     for x in kv]) == 2
        assert "bad.txt: not UTF-8" in capsys.readouterr().err


class TestSynth:
    def test_layout_and_summary(self, data_dir, capsys):
        assert (data_dir / "manifest.json").exists()
        rec = sorted((data_dir / "recognition").glob("*.csv"))
        ident = sorted((data_dir / "identification").glob("*.csv"))
        # per subject: one stream + one label file per folder
        assert len(rec) == 4 and len(ident) == 4

    def test_same_seed_same_manifest(self, data_dir, tmp_path):
        again = tmp_path / "again"
        assert dispatch(["synth", "--out", str(again), "--subjects", "2",
                         "--reps", "2", "--adl-minutes", "1.0",
                         "--seed", "5"]) == 0
        assert (again / "manifest.json").read_bytes() == \
            (data_dir / "manifest.json").read_bytes()

    def test_one_subject_rejected(self, tmp_path, capsys):
        code = dispatch(["synth", "--out", str(tmp_path / "d"),
                         "--subjects", "1"])
        assert code == 3
        assert "error:" in capsys.readouterr().err


class TestRqaFeatures:
    def test_window_table(self, stream_csv, tmp_path, capsys):
        out = tmp_path / "rqa.csv"
        assert dispatch(["rqa-features", "--in", str(stream_csv),
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "window_start,rr,tra"
        assert len(lines) == 1 + (3000 - 125) // 25 + 1

    def test_missing_input(self, tmp_path, capsys):
        code = dispatch(["rqa-features", "--in", str(tmp_path / "no.csv"),
                         "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_index_beyond_int64_is_data_error(self, stream_csv, tmp_path,
                                              capsys):
        lines = stream_csv.read_text().splitlines()
        lines[3] = "99999999999999999999" + lines[3][lines[3].index(","):]
        bad = tmp_path / "s01.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = dispatch(["rqa-features", "--in", str(bad),
                         "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "sample index out of int64 range at line 4" in \
            capsys.readouterr().err


class TestParams:
    def test_file_overrides_defaults(self, stream_csv, tmp_path):
        params = tmp_path / "rqa.params"
        params.write_text("window_len = 250  # samples\nstep = 50\n")
        out = tmp_path / "rqa.csv"
        assert dispatch(["rqa-features", "--in", str(stream_csv),
                         "--out", str(out), "--params", str(params)]) == 0
        assert len(out.read_text().splitlines()) == \
            1 + (3000 - 250) // 50 + 1

    def test_file_overrides_defaults_on_a_lazy_parser(self, stream_csv,
                                                       tmp_path, monkeypatch):
        built = []

        def recorded(command=None):
            parser, subs = build_parser(command)
            built.append(subs)
            return parser, subs

        monkeypatch.setattr(cli, "build_parser", recorded)
        params = tmp_path / "rqa.params"
        params.write_text("window_len = 250\nstep = 50\n")
        out = tmp_path / "rqa.csv"
        assert dispatch(["rqa-features", "--in", str(stream_csv),
                         "--out", str(out), "--params", str(params)]) == 0
        assert [tuple(subs) for subs in built] == [("rqa-features",)]
        assert len(out.read_text().splitlines()) == \
            1 + (3000 - 250) // 50 + 1

    def test_explicit_flag_beats_file(self, stream_csv, tmp_path):
        params = tmp_path / "rqa.params"
        params.write_text("window_len = 250\nstep = 50\n")
        a = tmp_path / "a.csv"
        assert dispatch(["rqa-features", "--in", str(stream_csv),
                         "--out", str(a), "--params", str(params),
                         "--step", "25"]) == 0
        b = tmp_path / "b.csv"
        assert dispatch(["rqa-features", "--in", str(stream_csv),
                         "--out", str(b), "--window-len", "250",
                         "--step", "25"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_key_rejected(self, stream_csv, tmp_path, capsys):
        params = tmp_path / "bad.params"
        params.write_text("window_size = 250\n")
        code = dispatch(["rqa-features", "--in", str(stream_csv),
                         "--out", str(tmp_path / "o.csv"),
                         "--params", str(params)])
        assert code == 2

    def test_bad_value_rejected(self, stream_csv, tmp_path):
        params = tmp_path / "bad.params"
        params.write_text("delay = soon\n")
        assert dispatch(["rqa-features", "--in", str(stream_csv),
                         "--out", str(tmp_path / "o.csv"),
                         "--params", str(params)]) == 2

    def test_bad_choice_rejected(self, stream_csv, tmp_path):
        params = tmp_path / "bad.params"
        params.write_text("norm = L7\n")
        assert dispatch(["rqa-features", "--in", str(stream_csv),
                         "--out", str(tmp_path / "o.csv"),
                         "--params", str(params)]) == 2

    def test_read_params_syntax(self, tmp_path):
        p = tmp_path / "x.params"
        p.write_text("# comment only\nwindow-len = 99\n")
        assert read_params(p) == {"window_len": "99"}
        p.write_text("window_len\n")
        with pytest.raises(ParseError):
            read_params(p)


class TestRpExport:
    def test_pgm_written(self, stream_csv, tmp_path, capsys):
        out = tmp_path / "plot.pgm"
        assert dispatch(["rp-export", "--in", str(stream_csv),
                         "--out", str(out), "--length", "125"]) == 0
        head = out.read_bytes()[:2]
        assert head == b"P5"
        assert "122 x 122" in capsys.readouterr().out

    def test_out_of_bounds_span(self, stream_csv, tmp_path, capsys):
        code = dispatch(["rp-export", "--in", str(stream_csv),
                         "--out", str(tmp_path / "p.pgm"),
                         "--start", "2950", "--length", "125"])
        assert code == 3

    def test_start_without_length_runs_to_stream_end(self, stream_csv,
                                                     tmp_path, capsys):
        out = tmp_path / "tail.pgm"
        assert dispatch(["rp-export", "--in", str(stream_csv),
                         "--out", str(out), "--start", "2900"]) == 0
        # 100 samples, m = 4, tau = 1: 97 states
        assert "97 x 97" in capsys.readouterr().out
        same = tmp_path / "span.pgm"
        assert dispatch(["rp-export", "--in", str(stream_csv),
                         "--out", str(same), "--start", "2900",
                         "--length", "100"]) == 0
        assert out.read_bytes() == same.read_bytes()

    @pytest.mark.parametrize("start", ["-5", "3000", "9999"])
    def test_start_out_of_range_without_length(self, stream_csv, tmp_path,
                                               start):
        out = tmp_path / "p.pgm"
        assert dispatch(["rp-export", "--in", str(stream_csv),
                         "--out", str(out), "--start", start]) == 3
        assert not out.exists()


    def test_embedding_longer_than_default_window(self, stream_csv,
                                                  tmp_path, capsys):
        # no window is slid, so an embedding may span more samples
        # (39 * 5 + 1 = 196) than the default 125-sample window
        out = tmp_path / "wide.pgm"
        assert dispatch(["rp-export", "--in", str(stream_csv),
                         "--out", str(out), "--dimension", "40",
                         "--delay", "5", "--start", "0",
                         "--length", "400"]) == 0
        assert "205 x 205" in capsys.readouterr().out
        blob, header = out.read_bytes(), b"P5\n205 205\n255\n"
        assert blob.startswith(header) and len(blob) == len(header) + 205 ** 2

    def test_window_flags_rejected(self, stream_csv, tmp_path):
        # one span is plotted; there are no windows to size
        assert dispatch(["rp-export", "--in", str(stream_csv),
                         "--out", str(tmp_path / "p.pgm"),
                         "--window-len", "250"]) == 1

    def test_window_params_rejected(self, stream_csv, tmp_path):
        params = tmp_path / "rp.params"
        params.write_text("step = 50\n")
        assert dispatch(["rp-export", "--in", str(stream_csv),
                         "--out", str(tmp_path / "p.pgm"),
                         "--params", str(params)]) == 2


class TestTrainIdentifier:
    def test_model_and_report(self, identifier, capsys):
        model, report = identifier
        loaded = load_model(model)
        assert loaded.classes == ("ADL", "gesture")
        lines = report.read_text().splitlines()
        assert lines[0] == "fold,subject,accuracy,balanced_accuracy"
        assert len(lines) == 3

    def test_missing_labels_is_data_error(self, stream_csv, tmp_path,
                                          capsys):
        lone = tmp_path / "lone"
        lone.mkdir()
        shutil.copy(stream_csv, lone / "s01.csv")
        code = dispatch(["train-identifier", "--data", str(lone),
                         "--out", str(tmp_path / "m.model")])
        assert code == 2
        assert "missing label file" in capsys.readouterr().err

    def test_subject_without_gestures_fails_before_rqa(self, spot_corpus,
                                                      tmp_path, capsys,
                                                      monkeypatch):
        def no_rqa(stream, cfg):
            pytest.fail("windowed RQA ran")

        monkeypatch.setattr(pipeline, "window_features", no_rqa)
        data = tmp_path / "data"
        shutil.copytree(spot_corpus, data)
        labels = data / "identification" / "s03_labels.csv"
        labels.write_text(labels.read_text().splitlines()[0] + "\n")
        code = dispatch(["train-identifier", "--data", str(data),
                         "--out", str(tmp_path / "m.model")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: no gesture windows in subject s03; every held-out "
            "subject needs one\n")

    def test_stream_shorter_than_a_window_named_before_rqa(
            self, data_dir, tmp_path, capsys, monkeypatch):
        def no_rqa(stream, cfg):
            pytest.fail("windowed RQA ran")

        monkeypatch.setattr(pipeline, "window_features", no_rqa)
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        stream = data / "identification" / "s02.csv"
        stream.write_text("".join(stream.read_text().splitlines(True)[:101]))
        code = dispatch(["train-identifier", "--data", str(data),
                         "--out", str(tmp_path / "m.model")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: subject s02: stream of length 100 shorter than one "
            "window (125)\n")
        assert not (tmp_path / "m.model").exists()

    def test_model_records_geometry(self, identifier):
        lines = identifier[0].read_text().splitlines()
        assert lines[1:9] == ["[rqa]", "series acc_y", "window_len 125",
                              "step 25", "dimension 4", "delay 1",
                              "epsilon 0.1", "norm L2"]

    def test_low_rank_draw_converges(self, spot_corpus, tmp_path, capsys):
        # one 30-row draw of this geometry has a rank-10 polynomial Gram;
        # its solve needs 3943 steps, more than 100n = 3000
        model = tmp_path / "gyro_z.model"
        assert dispatch(["train-identifier", "--data", str(spot_corpus),
                         "--out", str(model), "--series", "gyro_z",
                         "--window-len", "150", "--step", "30",
                         "--iterations", "10", "--seed", "20"]) == 0
        assert model.exists()
        assert capsys.readouterr().out.startswith("folds=4 ")


@pytest.fixture(scope="module")
def spot_corpus(tmp_path_factory):
    """Four subjects with five-minute streams, seed 20."""
    out = tmp_path_factory.mktemp("spot") / "data"
    assert dispatch(["synth", "--out", str(out), "--seed", "20",
                     "--subjects", "4", "--reps", "1", "--adl-minutes", "5",
                     "--gesture-fraction", "0.005"]) == 0
    return out


@pytest.mark.parametrize("command", ["identify", "rqa-features"])
def test_stream_shorter_than_a_window_names_its_file(
        command, identifier, stream_csv, tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("".join(stream_csv.read_text().splitlines(True)[:101]))
    out = tmp_path / "out.csv"
    model = ["--model", str(identifier[0])] if command == "identify" else []
    assert dispatch([command, "--in", str(short), *model,
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: {short}: stream of length 100 shorter than one window "
        "(125)\n")
    assert not out.exists()


class TestIdentify:
    def test_segment_table(self, identifier, stream_csv, tmp_path, capsys):
        out = tmp_path / "segments.csv"
        assert dispatch(["identify", "--in", str(stream_csv),
                         "--model", str(identifier[0]),
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "start,end,subject"
        for line in lines[1:]:
            start, end, subject = line.split(",")
            assert int(end) - int(start) == 125
            assert subject == "s01"

    def test_missing_model(self, stream_csv, tmp_path):
        assert dispatch(["identify", "--in", str(stream_csv),
                         "--model", str(tmp_path / "none.model"),
                         "--out", str(tmp_path / "o.csv")]) == 2

    def test_kernel_flags_rejected(self, identifier, stream_csv, tmp_path):
        # the kernel comes from the model file
        assert dispatch(["identify", "--in", str(stream_csv),
                         "--model", str(identifier[0]),
                         "--out", str(tmp_path / "o.csv"),
                         "--kernel", "linear"]) == 1

    def test_kernel_params_rejected(self, identifier, stream_csv, tmp_path):
        params = tmp_path / "id.params"
        params.write_text("gamma = 0.5\n")
        assert dispatch(["identify", "--in", str(stream_csv),
                         "--model", str(identifier[0]),
                         "--out", str(tmp_path / "o.csv"),
                         "--params", str(params)]) == 2


    def test_trained_geometry_is_used(self, spot_corpus, tmp_path):
        # the saved model is the seed's final balanced draw, whatever
        # --iterations is; identify takes the 250/50 windows from it
        model = tmp_path / "m250.model"
        assert dispatch(["train-identifier", "--data", str(spot_corpus),
                         "--out", str(model), "--iterations", "1",
                         "--window-len", "250", "--step", "50"]) == 0
        hits = tmp_path / "hits.csv"
        assert dispatch(["identify", "--in",
                         str(spot_corpus / "identification" / "s04.csv"),
                         "--model", str(model), "--out", str(hits)]) == 0
        assert hits.read_text().splitlines() == ["start,end,subject",
                                                 "1275,1525,s04"]

    def test_rqa_params_rejected(self, identifier, stream_csv, tmp_path):
        params = tmp_path / "id.params"
        params.write_text("window_len = 250\n")
        assert dispatch(["identify", "--in", str(stream_csv),
                         "--model", str(identifier[0]),
                         "--out", str(tmp_path / "o.csv"),
                         "--params", str(params)]) == 2

    def test_model_without_rqa_asks_for_retraining(self, identifier,
                                                   stream_csv, tmp_path,
                                                   capsys):
        lines = identifier[0].read_text().splitlines()
        old = tmp_path / "old.model"
        old.write_text("\n".join(lines[:1] + lines[9:]) + "\n")
        assert dispatch(["identify", "--in", str(stream_csv),
                         "--model", str(old),
                         "--out", str(tmp_path / "o.csv")]) == 2
        assert "retrain the model with train-identifier" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        ("norm L2", "norm L7"), ("step 25", "step 0"),
        ("window_len 125", "window_len 20"), ("dimension 4", "dimension 0"),
        ("epsilon 0.1", "epsilon nan"), ("epsilon 0.1", "epsilon inf"),
        ("delay 1", "delay 1.5"), ("series acc_y", "series acc_w"),
        ("dimension 4\n", ""),
        ("norm L2", "norm L2\nnorm L1"), ("norm L2", "norm L2\nlength 9"),
        ("window_len 125\nstep 25\ndimension 4\ndelay 1",
         "window_len 5\nstep 5\ndimension 4\ndelay 3")])
    def test_bad_rqa_section_rejected(self, identifier, stream_csv,
                                      tmp_path, capsys, edit):
        bad = tmp_path / "bad.model"
        bad.write_text(identifier[0].read_text().replace(*edit, 1))
        out = tmp_path / "o.csv"
        assert dispatch(["identify", "--in", str(stream_csv),
                         "--model", str(bad), "--out", str(out)]) == 2
        assert "bad [rqa] section" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["missing", "no-rqa", "not-utf8"])
    def test_bad_stream_reported_before_bad_model(self, identifier,
                                                  stream_csv, tmp_path,
                                                  capsys, model):
        # the model is read first, for the one series the stream keeps,
        # but a bad stream still reports its own error first
        lines = stream_csv.read_text().splitlines()
        cells = lines[1500].split(",")
        cells[7] = "oops"
        lines[1500] = ",".join(cells)
        stream = tmp_path / "s01.csv"
        stream.write_text("\n".join(lines) + "\n")
        path = tmp_path / "bad.model"
        text = identifier[0].read_text()
        if model == "no-rqa":
            text = "\n".join(text.splitlines()[:1] + text.splitlines()[9:])
        if model == "not-utf8":
            with_bad_byte(text, path)
        elif model == "no-rqa":
            path.write_text(text + "\n")
        out = tmp_path / "o.csv"
        assert dispatch(["identify", "--in", str(stream), "--model",
                         str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {stream}: non-numeric cell at line 1501: could not "
            "convert string to float: 'oops'\n")
        assert not out.exists()

    def test_v1_model_asks_for_retraining(self, identifier, stream_csv,
                                          tmp_path, capsys):
        old = tmp_path / "v1.model"
        old.write_text(identifier[0].read_text().replace("GKMODEL v2",
                                                         "GKMODEL v1", 1))
        assert dispatch(["identify", "--in", str(stream_csv),
                         "--model", str(old),
                         "--out", str(tmp_path / "o.csv")]) == 2
        assert "retrain" in capsys.readouterr().err


class TestTrainRecognizer:
    def test_pairwise_model_count(self, data_dir, tmp_path, capsys):
        model = tmp_path / "rec.model"
        assert dispatch(["train-recognizer", "--data", str(data_dir),
                         "--out", str(model), "--seed", "1"]) == 0
        assert "trained 66 pairwise models on 48 segments, 93 features" \
            in capsys.readouterr().out

    def test_feature_subsets(self, data_dir, tmp_path, capsys):
        for which, width in (("stats", 63), ("samples", 30)):
            assert dispatch(["train-recognizer", "--data", str(data_dir),
                             "--out", str(tmp_path / f"{which}.model"),
                             "--features", which]) == 0
            assert f"{width} features" in capsys.readouterr().out

    def test_plain_model_does_not_depend_on_seed(self, data_dir, tmp_path):
        # the solver is deterministic and only augmentation draws noise
        paths = [tmp_path / f"seed{seed}.model" for seed in (1, 2)]
        for seed, path in zip((1, 2), paths):
            assert dispatch(["train-recognizer", "--data", str(data_dir),
                             "--out", str(path), "--seed", str(seed)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("cost", ["nan", "inf"])
    def test_non_finite_cost_rejected(self, data_dir, tmp_path, cost):
        model = tmp_path / "rec.model"
        assert dispatch(["train-recognizer", "--data", str(data_dir),
                         "--out", str(model), "--cost", cost]) == 3
        assert not model.exists()

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
    def test_bad_augment_sigma_rejected(self, tmp_path, capsys, sigma):
        # the data folder does not exist: the sigma check comes first
        model = tmp_path / "rec.model"
        assert dispatch(["train-recognizer", "--data",
                         str(tmp_path / "missing"), "--out", str(model),
                         "--augment-sigma", sigma]) == 3
        assert ("sigma must be non-negative and finite"
                in capsys.readouterr().err)
        assert not model.exists()

    def test_augmented_variant(self, data_dir, tmp_path):
        model = tmp_path / "aug.model"
        assert dispatch(["train-recognizer", "--data", str(data_dir),
                         "--out", str(model), "--augment-sigma", "0.5"]) == 0
        assert load_model(model).scaler is not None


class TestRecognize:
    def test_round_trip_label(self, data_dir, recognizer, tmp_path, capsys):
        streams = sorted((data_dir / "recognition").glob("s01*.csv"))
        stream_path = [p for p in streams
                       if not p.name.endswith("_labels.csv")][0]
        stream = parse_imu_csv(stream_path)
        interval = parse_label_csv(
            stream_path.with_name(stream_path.stem + "_labels.csv"))[0]
        segment_path = tmp_path / "segment.csv"
        write_imu_csv(extract_segment(stream, interval), segment_path)
        assert dispatch(["recognize", "--in", str(segment_path),
                         "--model", str(recognizer)]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == interval.label
        assert interval.label in TEMPLATES
        assert "votes:" in captured.err

    def test_votes_line_lists_winner_first(self, tmp_path, capsys):
        # on this corpus a whole stream ties Down and Right on 10 votes;
        # Right wins on margin sum, so it must lead the line
        data = tmp_path / "data"
        model = tmp_path / "rec.model"
        assert dispatch(["synth", "--out", str(data), "--subjects", "3",
                         "--reps", "1", "--seed", "3"]) == 0
        assert dispatch(["train-recognizer", "--data", str(data),
                         "--out", str(model)]) == 0
        capsys.readouterr()
        assert dispatch(["recognize", "--model", str(model), "--in",
                         str(data / "recognition" / "s01.csv")]) == 0
        captured = capsys.readouterr()
        assert captured.out == "Right\n"
        assert captured.err == "votes: Right=10, Down=10, Z=9\n"


# the commands that cut their folds into --jobs batches, each writing
# every file it can into {out}
JOBS_COMMANDS = {
    "evaluate": ["evaluate", "--report", "{out}/report.csv",
                 "--confusion", "{out}/confusion.csv"],
    "augmented": ["evaluate", "--augment-sigma", "0.5",
                  "--report", "{out}/report.csv",
                  "--confusion", "{out}/confusion.csv"],
    "identifier": ["train-identifier", "--iterations", "3",
                   "--out", "{out}/model", "--report", "{out}/report.csv",
                   "--confusion", "{out}/confusion.csv"],
}


def run_jobs_commands(data, base, jobs):
    """Each of JOBS_COMMANDS' stdout and written bytes at ``--jobs``."""
    out = {}
    for name, argv in JOBS_COMMANDS.items():
        folder = base / f"{name}-{jobs}"
        folder.mkdir()
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            assert dispatch([a.format(out=folder) for a in argv]
                            + ["--data", str(data), "--seed", "2",
                               "--jobs", jobs]) == 0
        out[name] = (stdout.getvalue(), {p.name: p.read_bytes()
                                         for p in sorted(folder.iterdir())})
    return out


@pytest.fixture(scope="module")
def five_subjects(tmp_path_factory):
    """A five-subject corpus (five folds, a multiple of neither 2 nor 3)
    and its outputs with one fold per batch."""
    base = tmp_path_factory.mktemp("five")
    data = base / "data"
    assert dispatch(["synth", "--out", str(data), "--subjects", "5",
                     "--reps", "1", "--adl-minutes", "1.0",
                     "--seed", "5"]) == 0
    return data, run_jobs_commands(data, base, "5")


class TestEvaluate:
    def test_svm_report(self, data_dir, tmp_path, capsys):
        report = tmp_path / "report.csv"
        confusion = tmp_path / "confusion.csv"
        assert dispatch(["evaluate", "--data", str(data_dir),
                         "--report", str(report),
                         "--confusion", str(confusion), "--seed", "2"]) == 0
        assert "folds=2" in capsys.readouterr().out
        assert len(report.read_text().splitlines()) == 3
        assert len(confusion.read_text().splitlines()) == 13

    def test_forest_classifier(self, data_dir, tmp_path, capsys):
        report = tmp_path / "report.csv"
        assert dispatch(["evaluate", "--data", str(data_dir),
                         "--classifier", "forest", "--trees", "5",
                         "--depth", "4", "--report", str(report)]) == 0
        assert len(report.read_text().splitlines()) == 3

    @pytest.mark.parametrize("jobs", ["1", "2", "3"])
    def test_jobs_do_not_change_output(self, five_subjects, jobs, tmp_path):
        # five folds cut into batches of 5, 3 + 2 and 2 + 2 + 1 write the
        # bytes of one fold per batch
        data, reference = five_subjects
        assert run_jobs_commands(data, tmp_path, jobs) == reference

    def test_forest_jobs_do_not_change_output(self, data_dir, tmp_path):
        outputs = []
        for jobs in ("1", "2"):
            report = tmp_path / f"report{jobs}.csv"
            confusion = tmp_path / f"confusion{jobs}.csv"
            assert dispatch(["evaluate", "--data", str(data_dir),
                             "--classifier", "forest", "--trees", "5",
                             "--depth", "4", "--report", str(report),
                             "--confusion", str(confusion), "--seed", "2",
                             "--jobs", jobs]) == 0
            outputs.append((report.read_bytes(), confusion.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_forest_row_bound_exits_3(self, data_dir, tmp_path, capsys,
                                      monkeypatch):
        # each fold trains on more rows than the lowered bound
        monkeypatch.setattr(forest, "_MAX_ROWS", 10)
        report = tmp_path / "r.csv"
        assert dispatch(["evaluate", "--data", str(data_dir),
                         "--classifier", "forest", "--trees", "2",
                         "--report", str(report)]) == 3
        assert ("the forest's exact split test allows at most 10"
                in capsys.readouterr().err)
        assert not report.exists()

    def test_select_below_one_rejected(self, tmp_path, capsys):
        # the data folder does not exist: the bound check comes first
        report = tmp_path / "r.csv"
        assert dispatch(["evaluate", "--data", str(tmp_path / "missing"),
                         "--report", str(report), "--select", "0"]) == 3
        assert "k=0" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("options,message", [
        (("--select", "64"), "k=64 must lie in 1..63"),
        (("--features", "stats", "--select", "64"), "k=64 must lie in 1..63"),
        (("--features", "samples", "--select", "5"), "k=5 must lie in 1..0"),
    ], ids=["full", "stats", "samples"])
    def test_select_above_statistic_count_rejected(self, tmp_path, capsys,
                                                   options, message):
        # the data folder does not exist: the bound check comes first
        report = tmp_path / "r.csv"
        assert dispatch(["evaluate", "--data", str(tmp_path / "missing"),
                         "--report", str(report), *options]) == 3
        assert message in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
    def test_bad_augment_sigma_rejected(self, tmp_path, capsys, sigma):
        # the data folder does not exist: the sigma check comes first
        report = tmp_path / "r.csv"
        assert dispatch(["evaluate", "--data", str(tmp_path / "missing"),
                         "--report", str(report),
                         "--augment-sigma", sigma]) == 3
        assert ("sigma must be non-negative and finite"
                in capsys.readouterr().err)
        assert not report.exists()

    @pytest.mark.parametrize("option", [("--select", "43"),
                                        ("--augment-sigma", "0.5")])
    def test_svm_option_rejected_for_forest(self, tmp_path, capsys, option):
        # the data folder does not exist: the option check comes first
        report = tmp_path / "r.csv"
        assert dispatch(["evaluate", "--data", str(tmp_path / "missing"),
                         "--classifier", "forest", "--report", str(report),
                         *option]) == 3
        assert (f"{option[0]} applies to --classifier svm only"
                in capsys.readouterr().err)
        assert not report.exists()

    def test_mode_flag_rejected(self, data_dir, tmp_path):
        assert dispatch(["evaluate", "--data", str(data_dir),
                         "--report", str(tmp_path / "r.csv"),
                         "--mode", "loso"]) == 1

    def test_zero_jobs_rejected(self, tmp_path, capsys):
        # the data folder does not exist: the --jobs check comes first
        report = tmp_path / "r.csv"
        assert dispatch(["evaluate", "--data", str(tmp_path / "missing"),
                         "--report", str(report), "--jobs", "0"]) == 3
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert not report.exists()

    def test_single_subject_rejected(self, data_dir, tmp_path, capsys):
        lone = tmp_path / "lone"
        shutil.copytree(data_dir, lone)
        for p in list(lone.rglob("s02*")):
            p.unlink()
        code = dispatch(["evaluate", "--data", str(lone),
                         "--report", str(tmp_path / "r.csv")])
        assert code == 3
        assert "subjects" in capsys.readouterr().err


class TestImportance:
    def test_centroid_table(self, data_dir, tmp_path, capsys):
        out = tmp_path / "importance.csv"
        assert dispatch(["importance", "--data", str(data_dir),
                         "--out", str(out), "--classifier", "centroid",
                         "--reps", "2"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "feature,mean_accuracy,drop"
        assert lines[1].startswith("original,")
        # default feature set for ranking is the 63 statistics
        assert len(lines) == 2 + 63
        assert "baseline accuracy" in capsys.readouterr().out


class TestAugment:
    def test_doubles_feature_table(self, data_dir, recognizer, tmp_path,
                                   capsys):
        from gesturekit.cli import _load_streams
        from gesturekit.features import featurize_segments, \
            read_feature_csv, write_feature_csv
        table = tmp_path / "features.csv"
        dataset = featurize_segments(
            cut_segments(_load_streams(data_dir / "recognition")))
        write_feature_csv(dataset, table)
        out = tmp_path / "augmented.csv"
        assert dispatch(["augment", "--in", str(table),
                         "--out", str(out), "--sigma", "0.5"]) == 0
        augmented = read_feature_csv(out)
        assert len(augmented) == 2 * len(dataset)
        assert (augmented.X[:len(dataset)] == dataset.X).all()
        assert "48 original + 48 noisy" in capsys.readouterr().out

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, capsys, cell):
        table = tmp_path / "features.csv"
        table.write_text("f0,f1,label,subject\n1.0,2.0,Up,s01\n"
                         f"3.0,{cell},Down,s01\n5.0,6.0,Up,s02\n")
        out = tmp_path / "o.csv"
        assert dispatch(["augment", "--in", str(table),
                         "--out", str(out)]) == 2
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_sigma_rejected(self, tmp_path):
        table = tmp_path / "features.csv"
        table.write_text("f0,label,subject\n1.0,Up,s01\n2.0,Down,s01\n")
        assert dispatch(["augment", "--in", str(table),
                         "--out", str(tmp_path / "o.csv"),
                         "--sigma", "-1"]) == 3

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
    def test_bad_sigma_rejected_before_reading(self, tmp_path, capsys,
                                               sigma):
        # the input table does not exist: the sigma check comes first
        out = tmp_path / "o.csv"
        assert dispatch(["augment", "--in", str(tmp_path / "missing.csv"),
                         "--out", str(out), "--sigma", sigma]) == 3
        assert ("sigma must be non-negative and finite"
                in capsys.readouterr().err)
        assert not out.exists()


@pytest.mark.parametrize("command,option,value", [
    ("train-recognizer", "--coef0", "nan"),
    ("train-recognizer", "--coef0", "inf"),
    ("train-recognizer", "--gamma", "inf"),
    ("evaluate", "--gamma", "inf"),
    ("augment", "--sigma", "nan"),
    ("augment", "--sigma", "inf"),
    ("synth", "--rate", "nan"),
    ("synth", "--rate", "inf"),
    ("synth", "--adl-minutes", "nan"),
    ("synth", "--adl-minutes", "inf"),
])
def test_non_finite_setting_exits_3_and_writes_nothing(
        command, option, value, data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    argv = {
        "train-recognizer": ["--data", str(data_dir), "--out", str(out)],
        "evaluate": ["--data", str(data_dir), "--report", str(out)],
        "augment": ["--in", str(tmp_path / "features.csv"),
                    "--out", str(out)],
        "synth": ["--out", str(out), "--subjects", "2", "--reps", "1"],
    }[command]
    (tmp_path / "features.csv").write_text(
        "f0,label,subject\n1.0,Up,s01\n2.0,Down,s01\n")
    assert dispatch([command, *argv, option, value]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command,option,value,message", [
    ("train-identifier", "--iterations", "0", "n_balance_iters"),
    ("train-identifier", "--epsilon", "-1", "epsilon"),
    ("rp-export", "--epsilon", "nan", "epsilon"),
    ("rp-export", "--dimension", "0", "m >= 1"),
    ("evaluate", "--samples", "1", "at least 2 output samples"),
    ("evaluate", "--samples", "0", "at least 2 output samples"),
    ("train-recognizer", "--samples", "1", "at least 2 output samples"),
    ("importance", "--samples", "1", "at least 2 output samples"),
    ("importance", "--reps", "0", "n_reps"),
    ("importance", "--gamma", "inf", "gamma must be finite"),
    ("rqa-features", "--window-len", "5", "window shorter than the "
     "embedding needs"),
    ("train-identifier", "--jobs", "0", "--jobs must be >= 1"),
    ("evaluate", "--jobs", "0", "--jobs must be >= 1"),
    ("importance", "--jobs", "0", "--jobs must be >= 1"),
    ("rp-export", "--start", "-1", "--start must be >= 0"),
    ("rp-export", "--length", "0", "--length must be >= 1"),
    ("synth", "--seed", "-1", "--seed must be >= 0"),
    ("evaluate", "--seed", "-5", "--seed must be >= 0"),
    ("train-identifier", "--seed", "-1", "--seed must be >= 0"),
    *((command, "--cost", cost, "cost must be positive and finite")
      for command in ("train-identifier", "evaluate", "train-recognizer",
                      "importance")
      for cost in ("0", "-1", "inf", "nan")),
])
def test_bad_setting_rejected_before_reading(command, option, value,
                                             message, tmp_path, capsys):
    # the input does not exist (synth reads none): the setting's check
    # comes first
    out = tmp_path / "out"
    source = "--in" if command in ("rp-export", "rqa-features") else "--data"
    inputs = [] if command == "synth" else [source, str(tmp_path / "missing")]
    target = "--report" if command == "evaluate" else "--out"
    # a 5-sample window holds 5 - 3 * 3 < 2 states of an m=4, tau=3
    # embedding
    more = {"rqa-features": ["--step", "5", "--dimension", "4",
                             "--delay", "3"]}.get(command, [])
    assert dispatch([command, *inputs, target, str(out), option, value,
                     *more]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_in_params_rejected_before_writing(tmp_path, capsys):
    params = tmp_path / "params.txt"
    params.write_text("seed = -1\n")
    out = tmp_path / "out"
    assert dispatch(["synth", "--out", str(out), "--params", str(params)]) == 3
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_pools_capped_at_task_count(data_dir, tmp_path, monkeypatch):
    """synth opens at most one worker per subject and importance one per
    feature, whatever --jobs asks for; the outputs are those of one
    process."""
    sizes = []

    class Recorder:
        """Records the pool size and maps in this process, starting no
        worker."""
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    runs = {}
    for jobs in ("1", "500"):
        if jobs == "500":
            monkeypatch.setattr(pipeline, "ProcessPoolExecutor", Recorder)
        corpus = tmp_path / f"corpus{jobs}"
        table = tmp_path / f"importance{jobs}.csv"
        assert dispatch(["synth", "--out", str(corpus), "--subjects", "2",
                         "--reps", "1", "--adl-minutes", "0",
                         "--jobs", jobs]) == 0
        assert dispatch(["importance", "--data", str(data_dir),
                         "--out", str(table), "--classifier", "centroid",
                         "--reps", "1", "--jobs", jobs]) == 0
        runs[jobs] = ({p.relative_to(corpus): p.read_bytes()
                       for p in corpus.rglob("*") if p.is_file()},
                      table.read_bytes())
    assert sizes == [2, 63]
    assert runs["500"] == runs["1"]
