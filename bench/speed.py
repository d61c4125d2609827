"""Machine-speed correction for timed sections.

The host's speed changes by up to a factor of two within seconds (measured
on a 2-core shared machine: the same 100-iteration PSO cell took 6.5 ms in
one second and 12-13 ms in the next, with process CPU time equal to wall
time, so the change is in the processor's speed, not in scheduling).  Raw
wall times of runs made minutes apart therefore differ by more than any
useful regression bound.

SpeedProbe samples that speed while a section runs: a timer signal every
INTERVAL_S seconds runs a fixed reference burst (small numpy operations and
interpreter arithmetic, the mix swarmpp itself runs) and records how long it
took.  A section's corrected time is its busy time, excluding the bursts,
multiplied by the mean of REFERENCE_BURST_S / burst time: the section's
duration on this machine at the speed where one burst takes
REFERENCE_BURST_S.  Sampling during the section, rather than before and
after it, is what makes the correction follow changes that last less than
a section.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.01
REFERENCE_BURST_S = 400e-6


class SpeedProbe:
    """Context manager: samples reference-burst durations on SIGALRM.

    With a tracer, each burst is also a span, so that the time it takes is
    not counted in the self time of the span it interrupted.
    """

    def __init__(self, tracer=None):
        self._a = np.arange(320.0).reshape(32, 10)
        self._tracer = tracer
        self.samples: list[float] = []

    def _work(self):
        acc = 0.0
        for i in range(30):
            acc += float(np.clip(self._a * 0.5 + i, 0.0, 100.0).sum())
            for j in range(10):
                acc += j * 0.1
        return acc

    def burst(self, signum=None, frame=None):
        t = perf_counter()
        if self._tracer is None:
            self._work()
        else:
            self._tracer.call("speed.burst", self._work)
        self.samples.append(perf_counter() - t)

    def __enter__(self):
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self.burst)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.inside_s = sum(self.samples)
        if not self.samples:  # a section shorter than one interval
            self.burst()

    def corrected(self, elapsed: float) -> float:
        """elapsed, less the bursts that ran inside it, at the reference speed.

        The bursts sample the speed at even intervals of wall time, so the
        work done is the busy time times the mean speed, REFERENCE_BURST_S /
        burst averaged over the samples (not REFERENCE_BURST_S over the mean
        burst, which under-reads when the speed changes within the section).
        """
        speed = statistics.mean(REFERENCE_BURST_S / b for b in self.samples)
        return (elapsed - self.inside_s) * speed
