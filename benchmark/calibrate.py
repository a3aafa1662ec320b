"""Speed probe that lets stage rates be compared across a shared machine's
speed swings.

On a virtual machine shared with other tenants, the same code can run up to
about 1.5x slower for seconds to minutes at a time. While a stage runs, a
50 ms interval timer runs a small fixed kernel (interpreter work, small numpy
arrays and scipy.special calls, the same mix the library's hot paths use)
twice in the signal handler and times the second run, so the stage's own
cache traffic does not count as machine slowdown. The kernel never calls the
library, so a change to the library does not change it; a slower machine
slows both. A stage's rate is multiplied by the kernel's slowdown over that
stage, and all probe time is taken out of the stage's time.

Only the untraced run starts the probe. With the probe stopped, marks carry no
kernel time and every speed factor is 1.
"""

from __future__ import annotations

import signal
import time
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

INTERVAL_S = 0.05
# Kernel time that a slowdown of 1 stands for: about the warm kernel's time on
# the 2-vCPU Xeon virtual machine the bounds were set on.
REFERENCE_MS = 0.4


def kernel() -> float:
    x = np.arange(1.0, 9.0)
    total = 0.0
    for k in range(40):
        y = x * (1.0 + k * 1e-3)
        total += float(np.sum(gammaln(y) - np.log1p(y))) + float(np.exp(-k * 0.01))
    return total


class Mark(NamedTuple):
    t: float
    probe_ns: int  # all time spent in the probe
    kernel_ns: int  # time of the timed (second) kernel runs
    probes: int


class SpeedProbe:
    def __init__(self):
        self.probe_ns = 0
        self.kernel_ns = 0
        self.probes = 0
        self._previous = None

    def _on_alarm(self, signum, frame):
        start = time.perf_counter_ns()
        kernel()
        warm = time.perf_counter_ns()
        kernel()
        end = time.perf_counter_ns()
        self.probe_ns += end - start
        self.kernel_ns += end - warm
        self.probes += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), self.probe_ns, self.kernel_ns, self.probes)


def stage(start: Mark, end: Mark) -> tuple[float, float]:
    """(seconds between the marks without probe time, the machine's slowdown
    over them relative to REFERENCE_MS; 1 when no probe ran)."""
    probes = end.probes - start.probes
    seconds = end.t - start.t - (end.probe_ns - start.probe_ns) / 1e9
    slowdown = (end.kernel_ns - start.kernel_ns) / probes / 1e6 / REFERENCE_MS if probes else 1.0
    return seconds, slowdown
