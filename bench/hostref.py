"""Host-speed reference, sampled during a run and after set-up.

On a shared 2-vCPU virtual machine, speed was measured to change by up
to 1.6x within seconds (a fixed pure-Python loop and the same recipgas
call both vary that much, with CPU time tracking wall time).  To make
timings comparable between runs,
`HostReference` runs a small fixed computation, written with the standard
library only, every PERIOD_S seconds from a SIGALRM handler in the main
thread, and records how long it took.  `ref_units(a, b)` turns the span
[a, b] into multiples of the reference duration measured around it, after
removing the time the handler itself took inside the span.
`reference_seconds()` measures the reference once, right after a
worker's set-up, so that set-up time can be scaled to NOMINAL_S.

The reference is a sparse product of two fixed 20-term polynomials with
Fraction coefficients stored in dicts: the same kind of interpreter,
allocation and dict work that dominates recipgas, and no recipgas code, so
no change to the program can move it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.05
WINDOW_S = 0.25
MIN_SAMPLES = 5
# the reference's median duration over many runs on the 2-vCPU machine
# of bench/baseline.json; set-up times are reported at this speed
NOMINAL_S = 0.002

_rng = random.Random(20240801)
_A = {_rng.randrange(1 << 20): Fraction(_rng.randint(-99, 99),
                                        _rng.randint(1, 30))
      for _ in range(20)}
_B = {_rng.randrange(1 << 20): Fraction(_rng.randint(-99, 99),
                                        _rng.randint(1, 30))
      for _ in range(20)}


def reference_work():
    out = {}
    for m1, c1 in _A.items():
        for m2, c2 in _B.items():
            m = m1 + m2
            out[m] = out.get(m, 0) + c1 * c2
    return out


def reference_seconds(repeats=15):
    """Median duration of the reference computation, measured now."""
    times = []
    for _ in range(repeats):
        t = perf_counter()
        reference_work()
        times.append(perf_counter() - t)
    return statistics.median(times)


class HostReference:
    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _sample(self, signum, frame):
        t = perf_counter()
        reference_work()
        self.starts.append(t)
        self.durations.append(perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def sampling_time(self, a, b):
        """Seconds the handler spent inside [a, b]."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_right(self.starts, b)
        return sum(self.durations[i:j])

    def ref_units(self, a, b):
        """Net duration of [a, b] in multiples of the median reference
        duration sampled within WINDOW_S of it (at least MIN_SAMPLES
        nearest samples)."""
        net = (b - a) - self.sampling_time(a, b)
        i = bisect.bisect_left(self.starts, a - WINDOW_S)
        j = bisect.bisect_right(self.starts, b + WINDOW_S)
        n = len(self.starts)
        if n < MIN_SAMPLES:
            raise RuntimeError("too few host reference samples")
        while j - i < MIN_SAMPLES:
            if i > 0 and (j >= n or a - self.starts[i - 1]
                          <= self.starts[j] - b):
                i -= 1
            else:
                j += 1
        return net / statistics.median(self.durations[i:j])
