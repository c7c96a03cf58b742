"""Host-speed sampling, to correct operation times on a host whose speed swings.

On a shared host the same operation can take up to twice as long while
neighbours are busy, in swings of a fraction of a second to a minute, so
raw wall times of one run are not comparable with those of the next.  While
a :class:`HostSpeed` is open, a timer signal runs a fixed pure-Python probe
(about 50 microseconds of dual-number-like arithmetic, independent of
glome) every 5 ms on the main thread.  The probe's duration tracks the
host's momentary speed for interpreter-bound code.  :meth:`corrected`
rescales the wall time of an interval to a fixed nominal speed, a probe
of NOMINAL_PROBE_S: the time the interval would have taken on a host
that ran the probe that fast throughout.  The nominal value is the
probe's duration on an unloaded 2-vCPU Xeon guest, so on such a host
corrected and raw times agree.  A run that never sees the host unloaded
has no reference of its own, which is why the nominal speed is fixed and
not taken from the run.  The probes cost about 1% of the time they sample.
"""

from __future__ import annotations

import bisect
import math
import signal
from array import array
from time import perf_counter

INTERVAL_S = 0.005
PROBE_ITERATIONS = 100
NOMINAL_PROBE_S = 50e-6
FAST_QUANTILE = 0.01


class _Pair:
    __slots__ = ("value", "slope")

    def __init__(self, value, slope):
        self.value = value
        self.slope = slope

    def __add__(self, other):
        return _Pair(self.value + other.value, self.slope + other.slope)

    def __mul__(self, other):
        return _Pair(self.value * other.value, self.slope * other.value + self.value * other.slope)


_A = _Pair(1.0001, 0.5)
_B = _Pair(0.9999, 0.25)


class HostSpeed:
    """Context manager: samples host speed from a timer signal while open."""

    def __init__(self):
        self.ends = array("d")
        self.durations = array("d")
        self._previous = None

    def __enter__(self):
        for _ in range(3):  # let the interpreter specialise the probe first
            _probe_once()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _probe(self, signum, frame):
        duration = _probe_once()
        self.ends.append(perf_counter())
        self.durations.append(duration)

    def fastest(self) -> float:
        """Probe duration at the run's fastest FAST_QUANTILE (for the record)."""
        if not self.durations:
            raise RuntimeError("no host-speed probe ran")
        ordered = sorted(self.durations)
        return ordered[int(len(ordered) * FAST_QUANTILE)]

    def rate(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Mean of 1 / probe duration over the probes that ended in [start, end].

        Probes come at equal wall-clock intervals, so this is proportional
        to the work the host allowed per second in the interval.  An
        interval shorter than the probe period uses the next probe.
        """
        i = bisect.bisect_left(self.ends, start)
        j = bisect.bisect_right(self.ends, end)
        window = self.durations[i:j] or self.durations[min(i, len(self.durations) - 1):][:1]
        if not window:
            raise RuntimeError("no host-speed probe ran")
        return sum(1.0 / p for p in window) / len(window)

    def corrected(self, start: float, end: float) -> float:
        """Wall time of [start, end] had the host run at the nominal speed."""
        return (end - start) * NOMINAL_PROBE_S * self.rate(start, end)


def _probe_once() -> float:
    t0 = perf_counter()
    acc = _Pair(0.0, 0.0)
    for _ in range(PROBE_ITERATIONS):
        acc = acc + _A * _B
    return perf_counter() - t0
