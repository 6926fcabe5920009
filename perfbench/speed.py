"""Wall time rescaled to a reference machine speed.

On a shared host the speed of this process's core drifts: a fixed loop
runs 20-50% slower for seconds to minutes at a time while other tenants
load the machine, and neither process CPU time nor a probe taken before
and after a command tracks it. So while a measurement is open, a timer
interrupts the main thread every ``INTERVAL`` seconds and times a small
fixed probe: a Python loop of small numpy products, then sorts of a
column, like the classifiers' inner loops. The probe's mean duration
during the measurement tells how fast the core ran meanwhile:

    reference seconds = (wall - probe time) * REFERENCE_S / mean probe

``REFERENCE_S`` is about the probe's duration on a quiet core of a 2-core
Intel Xeon VM, so there reference seconds are close to wall seconds. The
probe code is the benchmark's own and does not change with the program.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

INTERVAL = 0.01
REFERENCE_S = 0.25e-3
_ROWS = np.random.default_rng(0).standard_normal((64, 16))
_COLUMN = np.random.default_rng(1).standard_normal(600)


def probe() -> float:
    """Small dot products in a Python loop, then sorts of a column."""
    acc, seen = 0.0, {}
    for i in range(150):
        row = _ROWS[i & 63]
        acc += float(row @ row)
        seen[i & 7] = seen.get(i & 7, 0) + 1
    for _ in range(6):
        acc += float(np.cumsum(_COLUMN[np.argsort(_COLUMN)]).max())
    return acc


@dataclass
class Measurement:
    wall: float = 0.0
    ref_s: float = 0.0        # wall time at the reference speed
    samples: int = 0


class SpeedProbe:
    """Samples the core's speed while measurements are open.

    Measurements may nest; the timer runs while any is open. With
    ``enabled`` false a measurement is plain wall time (traced runs,
    whose layer times are reported as measured).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples = []
        self._open = 0
        self._previous = None

    def _sample(self, signum, frame):
        start = perf_counter()
        probe()
        self.samples.append(perf_counter() - start)

    @contextmanager
    def measure(self):
        m = Measurement()
        if self.enabled:
            self._sample(None, None)    # at least one sample per measurement
            if self._open == 0:
                self._previous = signal.signal(signal.SIGALRM, self._sample)
                signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
            self._open += 1
        first = len(self.samples) - 1 if self.enabled else 0
        start = perf_counter()
        try:
            yield m
        finally:
            m.wall = perf_counter() - start
            if self.enabled:
                self._open -= 1
                if self._open == 0:
                    signal.setitimer(signal.ITIMER_REAL, 0, 0)
                    signal.signal(signal.SIGALRM, self._previous)
                taken = self.samples[first:]
                # the first sample ran before the clock started
                work = m.wall - sum(taken[1:])
                m.samples = len(taken)
                m.ref_s = work * REFERENCE_S * len(taken) / sum(taken)
            else:
                m.ref_s = m.wall
