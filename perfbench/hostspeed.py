"""The host's speed, sampled through the run, and times scaled by it.

The benchmark runs on a few vCPUs of a shared machine whose speed
drifts by a quarter or more in phases of a tenth of a second to
minutes, while CPU time stays equal to wall time: the same pass runs
slower, it is not preempted.  Nothing the benchmark repeats inside one
run averages that away, so every reported time is scaled to a fixed
reference speed.

A fixed pure-Python probe (:func:`probe`, about 0.35 ms) runs every
:data:`PERIOD_S` of wall time from a ``SIGALRM`` handler, between the
bytecodes of whatever the pass is doing.  Its speed relative to
:data:`REFERENCE_S` is the host's speed at that moment; a time measured
over an interval, minus the probes that ran inside it, is multiplied by
the mean relative speed of those probes (of the two nearest ones when
none ran inside).  The result
is "seconds on a host where one probe takes exactly ``REFERENCE_S``".
The probe is independent of the program, so a change to the program
moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

#: wall time between two probes during the timed passes
PERIOD_S = 0.05
#: duration of one probe at the reference speed
REFERENCE_S = 350e-6


def probe() -> float:
    """Run the fixed probe once and return how long it took."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(1500):
        table[i & 255] = table.get(i & 255, 0) + i
        total += i * 3 % 7
    return time.perf_counter() - start


def speed_now(samples: int = 20) -> float:
    """Median relative speed over ``samples`` back-to-back probes."""
    return statistics.median(REFERENCE_S / probe() for _ in range(samples))


class Sampler:
    """Probes the host every :data:`PERIOD_S` while entered."""

    def __init__(self) -> None:
        #: start time of each probe, ascending
        self.at: list[float] = []
        #: relative speed measured by each probe
        self.speed: list[float] = []
        #: total time spent probing, subtracted from every timing
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        at = time.perf_counter()
        took = probe()
        self.at.append(at)
        self.speed.append(REFERENCE_S / took)
        self.spent += time.perf_counter() - at

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def mean_speed(self, start: float, end: float) -> float:
        """Mean relative speed of the probes in ``[start, end]``.

        With no probe there, the probes just before and just after
        decide; with no probe at all, a fresh measurement does.  The
        host's speed changes within a second, so the nearest probes
        track an item better than a wider window does.
        """
        lo = bisect_left(self.at, start)
        hi = bisect_right(self.at, end)
        window = self.speed[lo:hi] or self.speed[max(lo - 1, 0):lo + 1]
        return statistics.fmean(window) if window else speed_now()
