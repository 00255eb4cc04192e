"""CPU-speed normalisation of measured times.

The machines this benchmark runs on are shared: the same pure-Python work
takes up to 25% longer from one minute to the next, and a run can do
nothing about that.  A fixed probe of Fraction and dict work, the kind of
work the library does, is timed every PROBE_EVERY_S of CPU time by a
virtual-time signal while the cases run.  A case's time is its wall time
minus the probes inside it, scaled by REF_PROBE_S over the probe time
during the case (mean) or just before it (median).  Reported seconds are
thus seconds on a machine where the probe takes REF_PROBE_S; on a 2-core
x86 cloud machine with Python 3.11 the probe takes 2.5 to 4 ms.  Pass
times are kept in raw seconds as well.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_EVERY_S = 0.05
REF_PROBE_S = 0.003
MIN_INSIDE = 5      # probes inside a case that suffice on their own
WINDOW = 25         # otherwise the most recent probes


def probe_once() -> float:
    """Time one fixed unit of Fraction and dict work."""
    start = perf_counter()
    acc = {}
    x = Fraction(1, 3)
    for i in range(300):
        x = x * Fraction(i + 2, i + 1) - Fraction(1, 7)
        acc[(i, i % 5)] = x.numerator % 1000003
    return perf_counter() - start


class CaseTimeout(BaseException):
    """A case ran past its limit; a BaseException so no library handler catches it."""


class SpeedProbe:
    """Samples the probe periodically while running; scales measured times.

    Between ``begin`` and ``end`` it also enforces the case's time limit in
    normalised seconds, at the granularity of the probe interval.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._start = 0.0
        self._mark = 0
        self._limit: float | None = None

    def _tick(self, signum, frame):
        self.samples.append(probe_once())
        if self._limit is not None and self._elapsed() > self._limit:
            self._limit = None
            raise CaseTimeout()

    def _elapsed(self) -> float:
        return self.normalise(perf_counter() - self._start, self._mark)

    def begin(self, limit: float) -> None:
        """Start timing a case that may run for ``limit`` normalised seconds."""
        self._mark = self.mark()
        self._limit = limit
        self._start = perf_counter()

    def end(self) -> tuple[float, float]:
        """Stop the case's clock and limit; its net raw and normalised durations."""
        self._limit = None
        seconds = perf_counter() - self._start
        return self.net(seconds, self._mark), self.normalise(seconds, self._mark)

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, since: int) -> float:
        """REF_PROBE_S over the probe time for work since ``mark()`` gave ``since``.

        With enough probes inside the span their mean is used: a probe is
        stalled by the host as often as the work around it, so the mean
        carries those stalls in the same proportion.  A short span borrows
        the median of the most recent probes instead.
        """
        inside = self.samples[since:]
        if len(inside) >= MIN_INSIDE:
            return REF_PROBE_S / statistics.fmean(inside)
        if not self.samples:
            self.samples.extend(probe_once() for _ in range(3))
        return REF_PROBE_S / statistics.median(self.samples[-WINDOW:])

    def net(self, seconds: float, since: int) -> float:
        """Wall time since ``mark()`` gave ``since``, minus the probes inside it."""
        return seconds - sum(self.samples[since:])

    def normalise(self, seconds: float, since: int) -> float:
        return self.net(seconds, since) * self.scale(since)


def normalised_once(seconds: float, repeats: int = 7) -> float:
    """Scale a time measured just before, from probes taken now."""
    return seconds * REF_PROBE_S / statistics.median(probe_once() for _ in range(repeats))
