"""Host-speed probe for untraced runs.

On a shared VM the speed of the same code changes by 1.3-1.7x in
stretches of 20-60 s, longer than one run, so raw wall times of runs
made a minute apart differ by more than any regression bound.  Every
untraced run therefore times a fixed probe between requests, at least
every ``PROBE_EVERY_S``, and scales each request's latency by
``REF_PROBE_S`` over the mean probe time within ``WINDOW_S`` of the
request: times are reported in seconds of a host running at reference
speed.  The speed also changes within a second, so probes are dense and
the window is narrow.  The probe runs only the standard library (``Fraction``
arithmetic and dict updates on tuple keys, the shape of the rewriter's
inner loop), so no change to the package can move it.  Raw figures are
reported next to the scaled ones.  Work bound by BLAS or I/O slows less
than the probe, so scaling over-corrects it somewhat (see README.md).
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# median probe time on the reference box (2 vCPUs, Python 3.11.7); it
# only sets the scale of the reported times
REF_PROBE_S = 0.0035
PROBE_EVERY_S = 0.04
WINDOW_S = 0.25


def probe() -> float:
    """Seconds one fixed stdlib-only task takes now."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(1, 700):
        key = (i % 13, (i * 7) % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 17 + 1, i % 11 + 2)
    return time.perf_counter() - t0


class HostSpeed:
    def __init__(self):
        self.stamps = []
        self.times = []
        self._next = 0.0

    def tick(self, force=False):
        """Probe if ``PROBE_EVERY_S`` has passed since the last probe."""
        now = time.perf_counter()
        if force or now >= self._next:
            t = probe()
            self.stamps.append(now + t / 2)
            self.times.append(t)
            self._next = now + t + PROBE_EVERY_S

    def scale(self, t0: float, t1: float) -> float:
        """Reference-speed seconds per wall second over [t0, t1]."""
        lo = bisect.bisect_left(self.stamps, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t1 + WINDOW_S)
        if lo == hi:  # no probe near: the nearest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return REF_PROBE_S / statistics.fmean(self.times[lo:hi])
