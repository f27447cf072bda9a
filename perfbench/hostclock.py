"""CPU time corrected for the speed the host gives the benchmark.

On a virtual machine that shares its cores with other guests, the same code
takes from 1x to about 1.6x the CPU time, and the host switches between
these speeds within a second and for minutes at a time. A :class:`Probe`
measures that speed while the program runs: a real-time interval timer
interrupts the program every few milliseconds, and the signal handler runs
a fixed piece of work (:func:`probe_work`) that uses none of the program's
code twice and times the second run. :meth:`Probe.normalise` rescales the
CPU time of one program call by ``REFERENCE_S / level``, where ``level`` is the mean probe time during the
call (or just before it, for calls shorter than a few probes). The result
is the CPU time the call would take on a host where the probe takes
``REFERENCE_S``: a change to the program moves it, a change of host speed
moves it far less than it moves plain CPU time.

Times are on the thread CPU clock (the program is single-threaded), and the
probe's own time within a call is taken out of the call's time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Probe time on the reference host: about its median when run in a loop on
# a 2-vCPU x86_64 virtual machine (Python 3.11, numpy 2.4, OpenBLAS 0.3).
REFERENCE_S = 70e-6
INTERVAL_S = 0.006  # wall time between samples
MIN_PROBES = 16  # probes a call's level rests on

_VECTOR = np.linspace(0.0, 1.0, 64)
_MATRIX = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)


def probe_work() -> float:
    """Fixed work in about equal parts: an integer loop, string formatting,
    small-array arithmetic and a small matrix product, as the program mixes
    interpreter and numpy work and the host slows them by different
    amounts."""
    total = 0
    for i in range(200):
        total += i * i
    parts = [f"<rect x='{i}' y='{i * 0.5:.2f}'/>" for i in range(15)]
    x = _VECTOR
    for _ in range(4):
        x = np.sqrt(x * 0.5 + 1.0)
    m = _MATRIX
    for _ in range(2):
        m = np.tanh(_MATRIX @ m * 0.05)
    return total + len("".join(parts)) + float(x[0] + m[0, 0])


class Probe:
    """Samples the probe time while installed; see the module docstring."""

    def __init__(self):
        self.at = []  # thread CPU time at which each sample ended
        self.took = []  # thread CPU seconds of each timed probe
        self.cost = []  # thread CPU seconds of each whole sample
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # The first run brings the probe back into the caches the program
        # used meanwhile, so the timed second run reads the host's speed
        # rather than how much memory the program touched.
        start = time.thread_time()
        probe_work()
        warm = time.thread_time()
        probe_work()
        end = time.thread_time()
        self.at.append(end)
        self.took.append(end - warm)
        self.cost.append(end - start)

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def level(self, start: float, end: float) -> float:
        """Trimmed mean probe time over [start, end] of the thread CPU
        clock, widened backwards to the last ``MIN_PROBES`` probes."""
        hi = bisect.bisect_right(self.at, end)
        lo = min(bisect.bisect_left(self.at, start), max(hi - MIN_PROBES, 0))
        took = sorted(self.took[lo:hi])
        if not took:
            return REFERENCE_S
        # Drop the slowest tenth: a probe interrupted by the kernel.
        return statistics.fmean(took[:max(1, len(took) - len(took) // 10)])

    def spent(self, start: float, end: float) -> float:
        """Thread CPU seconds the samples took within [start, end]."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        return sum(self.cost[lo:hi])

    def normalise(self, start: float, end: float) -> float:
        """CPU seconds of the program over [start, end] at reference speed."""
        own = end - start - self.spent(start, end)
        return own * REFERENCE_S / self.level(start, end)
