"""A fixed probe that gauges how fast the host runs, sampled while units run.

A shared host changes speed from one second to the next: when other tenants
load the same cores, interpreter-bound and numpy code alike slow down by up
to about 1.5 times, in bursts of a fraction of a second to a minute.
:class:`Gauge` runs :func:`probe`, a few milliseconds of fixed work, on a
timer every ``INTERVAL_S`` while a timed segment of a unit runs, and a few
times just before and after it. The segment's wall time, less the probes'
own time, is scaled by ``NOMINAL_S`` over the mean probe time. The probes
sample the host's speed evenly over the segment, so the scaled time reads
about the same whichever state the host was in, and it still moves one for
one with the program's own speed, since the probe is the benchmark's code,
not the program's.

The probe mixes, in about equal time, the kinds of work the workloads do: a
pure Python loop, a bisection through numpy scalar calls, small matrix
products with ``tanh``, sorting and ``exp`` on a short vector, and a pass over
an array larger than the core's own caches. Each kind slows by a different
factor in the slow state; the mix slows by about their mean.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# seconds the probe takes on the reference host, where scaled times are
# read; any constant works, since runs are compared with each other
NOMINAL_S = 0.0045
INTERVAL_S = 0.1   # probe period inside a segment (wall clock)
EDGE_PROBES = 4    # probes run just before and just after each segment

_rng = np.random.default_rng(20221)
_KNOTS = np.cumsum(_rng.random(64))
_H = _rng.random((256, 32))
_W = _rng.random((32, 32)) / 8.0
_SHORT = _rng.random(20_000)
_LONG = _rng.random(500_000)


def _python_loop() -> int:
    total = 0
    for i in range(9_000):
        total += i * i % 7
    return total


def _scalar_bisection() -> float:
    acc = 0.0
    for i in range(7):
        target = float(_KNOTS[0]) + 4.0 * i
        lo, hi = float(_KNOTS[0]), float(_KNOTS[-1])
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            j = int(np.searchsorted(_KNOTS, mid))
            if float(_KNOTS[min(j, _KNOTS.size - 1)]) >= target:
                hi = mid
            else:
                lo = mid
        acc += hi
    return acc


def _small_matmul() -> float:
    h = _H
    for _ in range(26):
        h = np.tanh(h @ _W)
    return float(h[0, 0])


def _short_vector() -> float:
    acc = 0.0
    for _ in range(6):
        acc += float(np.sort(_SHORT)[100] + np.exp(-_SHORT).sum())
    return acc


def _long_array() -> float:
    return float((_LONG * 2.0 + 1.0).sum())


_PARTS = (_python_loop, _scalar_bisection, _small_matmul, _short_vector, _long_array)


def probe() -> float:
    """Run the fixed probe once and return its wall time in seconds."""
    t0 = time.perf_counter()
    for part in _PARTS:
        part()
    return time.perf_counter() - t0


def scale_now(n: int = 2 * EDGE_PROBES) -> float:
    """NOMINAL_S over the mean time of ``n`` probes run now."""
    return NOMINAL_S / statistics.fmean(probe() for _ in range(n))


class Segment:
    """Wall time of one timed segment, less the probes, and its scale."""

    wall_s = 0.0
    scale = 1.0

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale


class Gauge:
    """Times segments of work, each scaled by probes run before, during and after it.

    A disabled gauge runs no probe and leaves every scale at 1, so that
    traced units measure the program alone.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._spans = []  # (start, end) of each probe run inside the current segment
        if enabled:
            probe()  # the first call pays for the probe's page faults

    def _sample(self, signum, frame):
        start = time.perf_counter()
        probe()
        self._spans.append((start, time.perf_counter()))

    def probed_s(self, t0: float, t1: float) -> float:
        """Seconds of probes that ran inside the current segment between two
        ``time.perf_counter()`` readings, to subtract from their difference."""
        return sum(end - start for start, end in self._spans if t0 <= start and end <= t1)

    @contextlib.contextmanager
    def segment(self):
        seg = Segment()
        if not self.enabled:
            t0 = time.perf_counter()
            yield seg
            seg.wall_s = time.perf_counter() - t0
            return
        edges = [probe() for _ in range(EDGE_PROBES)]
        self._spans = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield seg
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        seg.wall_s = t1 - t0 - self.probed_s(t0, t1)  # the probes' time is not the program's
        edges += [probe() for _ in range(EDGE_PROBES)]
        inner = [end - start for start, end in self._spans]
        seg.scale = NOMINAL_S / statistics.fmean(edges + inner)
