"""Machine-speed probe: fixed reference work timed alongside catrep calls.

The benchmark host is shared.  Over minutes its speed drifts by more than
half (a whole run reads 50 or 85 queries/s at the same seed), far beyond
any bound a regression check could use.  So every run times a fixed
reference kernel, interleaved with the workload in the same thread, and
reports times scaled to the speed at which the kernel takes ``NOMINAL_S``:

    reported = measured * NOMINAL_S / (mean kernel time during the block)

The speed also drifts within a block, so a single call's latency is
scaled instead by the kernel runs inside it, or by the ``NEAREST_RUNS``
runs closest to it in time when fewer ran inside.

While a workload runs, a SIGALRM timer runs the kernel every
``INTERVAL_S``, so probes land inside long calls too (a validate call
takes seconds); the time spent in the kernel is subtracted from the call
that it interrupted.  The kernel mixes the kinds of work catrep does
(interpreted Python, many small numpy/scipy calls, a dense einsum loop)
and never calls catrep, so a change to catrep cannot move the scale.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
from time import perf_counter

import numpy as np
from scipy.special import gammaln, logsumexp

# Mean kernel time on the reference host (2-core x86-64 VM, Python 3.11,
# numpy 2.4, one BLAS thread) in its faster state.
NOMINAL_S = 0.008
INTERVAL_S = 0.05
NEAREST_RUNS = 4

_X = np.arange(40.0)
_A = np.linspace(0.0, 1.0, 16 * 16).reshape(16, 16) + 0j
_T = np.linspace(0.0, 1.0, 2 * 16 * 2 * 16).reshape(2, 16, 2, 16) + 0j


def kernel() -> float:
    s = 0.0
    for i in range(1200):
        s += math.sqrt(i) * 1e-3
    for i in range(40):
        s += float(logsumexp(_X * 0.01 * i - gammaln(_X + 1.0)))
    for _ in range(2):
        s += float(np.einsum("pm,ambn,qn->apbq", _A, _T, _A.conj()).real.sum())
    return s


class SpeedProbe:
    """Kernel runs as (start, end) times, from the timer or on demand."""

    def __init__(self):
        self.runs: list = []
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a tick that arrives while the kernel runs is dropped
            return
        self._busy = True
        try:
            start = perf_counter()
            kernel()
            self.runs.append((start, perf_counter()))
        finally:
            self._busy = False

    @contextlib.contextmanager
    def interleaved(self):
        """Run the kernel every ``INTERVAL_S`` of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, first: int, t0: float, t1: float) -> list:
        """Times of the kernel runs within [t0, t1], looking at runs[first:]."""
        return [e - s for s, e in self.runs[first:] if s >= t0 and e <= t1]

    def slowdown_near(self, first: int, t0: float, t1: float) -> float:
        """Mean time over ``NOMINAL_S`` of the runs of runs[first:] within
        [t0, t1], or of the ``NEAREST_RUNS`` closest to it if fewer."""
        near = self.inside(first, t0, t1)
        if len(near) < NEAREST_RUNS:
            runs = self.runs[first:]
            i = bisect.bisect([s for s, _ in runs], t0)
            near = [
                e - s
                for s, e in sorted(
                    runs[max(0, i - NEAREST_RUNS):i + NEAREST_RUNS],
                    key=lambda run: abs(run[0] + run[1] - t0 - t1),
                )[:NEAREST_RUNS]
            ]
        return sum(near) / len(near) / NOMINAL_S

    def slowdown(self, first: int = 0) -> float:
        """Mean kernel time of runs[first:] over ``NOMINAL_S``."""
        runs = self.runs[first:]
        return sum(e - s for s, e in runs) / len(runs) / NOMINAL_S
