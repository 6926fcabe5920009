"""Self-test of the benchmark on tiny corpora.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

sys.path.insert(0, str(bench.ROOT / "src"))

TINY = {
    "spot": replace(bench.WORKLOADS["spot"], subjects=2, adl_minutes=1.0,
                    iterations=3),
    "recognize": replace(bench.WORKLOADS["recognize"], subjects=3),
    "forest": replace(bench.WORKLOADS["forest"], subjects=2, reps=1,
                      evaluate=("--classifier", "forest", "--trees", "5",
                                "--depth", "3")),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_declared_metric_is_printed_with_its_unit(capsys, workload,
                                                        trace):
    status = bench.main(["--workload", workload, "--seed", "21",
                         "--seconds", "0", "--trace", str(trace)],
                        workloads=TINY)
    assert status == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    printed = {name: m["unit"] for name, m in last["metrics"].items()}
    assert printed == bench.declared_units(bool(trace))
    assert all(isinstance(m["value"], (int, float))
               for m in last["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tracing_leaves_output_bytes_unchanged(tmp_path, workload):
    result = bench.run(TINY[workload], seed=21, seconds=0, trace=True,
                       work=tmp_path / "work")
    plain = [p.digests() for p in result["passes"] if not p.traced]
    traced = [p.digests() for p in result["passes"] if p.traced]
    assert plain and traced
    assert all(d == plain[0] for d in plain + traced)
    assert result["metrics"]["cli.dispatch.calls"] >= len(plain[0])


def test_speed_probe_samples_nested_measurements_and_restores_sigalrm():
    import signal
    import time

    from speed import SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    with probe.measure() as outer:
        with probe.measure() as inner:
            end = time.perf_counter() + 0.1
            while time.perf_counter() < end:
                pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert inner.samples >= 5 and outer.samples > inner.samples
    assert 0 < inner.ref_s and 0 < outer.ref_s
    # the reference speed is within a factor of ten of this machine's
    assert 0.1 < inner.ref_s / inner.wall < 10

    with SpeedProbe(enabled=False).measure() as plain:
        pass
    assert plain.ref_s == plain.wall and plain.samples == 0
