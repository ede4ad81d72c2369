"""The host's speed, sampled inside the measured process.

The 2-vCPU VMs this benchmark was tuned on run at two speeds about 1.5x
apart (a Python loop and small-matrix LAPACK slow by 1.5x and 1.7x, a
cache-resident ``np.roll`` by 1.2x), in phases that last from under a
second to minutes; ``cpu_s`` moves with ``wall_s``, so it is not time
stolen from the process but slower execution.  A phase of a minute
decides a whole run, so medians over a run cannot absorb it.

``Probe`` times a fixed reference kernel every ``PERIOD_S`` of wall time
from a ``SIGALRM`` handler, in the measured process, so each sample sees
the speed of the CPU the workload runs on at that moment.  The kernel is
a Python loop, a batch of 3x3 inverses and a ``np.roll``: the kinds of
work the workloads do, on arrays under 1 MB so that it leaves
``peak_rss_mb`` alone.  Python runs the handler between bytecodes of the
main thread, never inside a numpy call, so a long call only delays the
next sample.  The probe's own time is left out of the measured wall and
CPU time.

A time ``t`` measured while the probe took ``p`` on average (spikes above
twice the median dropped) is reported as ``t * REFERENCE_S / p``: seconds
at the speed where the probe takes ``REFERENCE_S``.  Over repetitions
that ran at different speeds, every workload's time followed the
probe's with an exponent of 1.0-1.2 (README.md, "Steadiness"), so the
plain ratio is used.  The scale depends on the host's speed only: two
commits measured at the same speed keep the ratio of their raw times,
and what the scaling removes is the spread the phases put between runs.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.2
REFERENCE_S = 2.5e-3   # a typical probe time on the tuning VM


class Probe:
    """Samples the reference kernel; ``with probe:`` samples periodically."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._mats = rng.random((1000, 3, 3)) + 3 * np.eye(3)
        self._cube = rng.random((24, 24, 24, 3))
        self.times: list[float] = []
        self.wall_s = self.cpu_s = 0.0
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        c0, t0 = time.process_time(), time.perf_counter()
        total = 0
        for i in range(20000):
            total += i
        np.linalg.inv(self._mats)
        np.roll(self._cube, 1, axis=0) - self._cube
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.wall_s += dt
        self.cpu_s += time.process_time() - c0
        self._busy = False

    def __enter__(self) -> "Probe":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_s(self) -> float:
        """Mean probe time, spikes (interrupts, page faults) dropped."""
        cap = 2 * statistics.median(self.times)
        kept = [t for t in self.times if t <= cap]
        return sum(kept) / len(kept)


def at_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, scaled to the
    reference speed."""
    return seconds * REFERENCE_S / probe_s
