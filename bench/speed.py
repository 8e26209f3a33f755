"""Speed probe: how fast this process runs Python right now.

The benchmark runs on shared virtual CPUs whose speed drifts: the same
pass can take half as long again a minute later, and the process's own CPU
time drifts with it.  Twenty times a second a timer signal runs a fixed
loop in this process and records how long it took.  `factor()` is the mean
probe speed relative to `REFERENCE_S`; a duration times the factor is the
duration at the reference speed, so a run made during a slow spell reads
about the same as one made during a quick spell.  The probe's own time is
reported by `busy()`, so that callers can take it out of the time they
measure.  Only the main thread runs the handler.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.05
REFERENCE_S = 300e-6   # the loop's duration in the quietest spells seen on a 2.1 GHz Xeon vCPU


def _loop() -> None:
    d: dict = {}
    for i in range(3000):
        d[i & 255] = d.get(i & 255, 0) + i


class SpeedProbe:
    def __init__(self):
        self.samples: list = []   # (start, duration)

    def _tick(self, signum, frame) -> None:
        t = perf_counter()
        _loop()
        self.samples.append((t, perf_counter() - t))

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds the probe ran between perf_counter() readings t0 and t1."""
        return sum(d for t, d in self.samples if t0 <= t < t1)

    def factor(self) -> float:
        """Mean probe speed as a share of the reference speed."""
        return statistics.fmean(REFERENCE_S / d for _, d in self.samples)
