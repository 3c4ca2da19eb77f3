"""Interpreter speed sampled between ops, to express op times at a reference speed.

On a shared machine the speed of the same Python code drifts by tens of
percent over tens of seconds: a fixed loop, run for a minute on the 2-CPU
machine the benchmark was defined on, managed between 154 and 267 rounds
per 2 s, with no steal time in ``/proc/stat``.  A 20 s run can sit wholly in
a slow or a fast phase, so raw op times from two runs of the same code
differ by more than any useful bound.

The probe therefore runs a fixed kernel, written here and independent of
the package under test, between ops: at least every ``INTERVAL_S`` of wall
time, never inside an op.  An op's time is scaled by
``REFERENCE_S / local``, where ``local`` is the median kernel time within
``WINDOW_S`` of the op, so a scaled time reads as the op's time on a
machine where the kernel takes ``REFERENCE_S``.  The kernel is table-driven
loop code like the package's law checks, so it slows with them.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

REFERENCE_S = 1e-3
INTERVAL_S = 0.05
WINDOW_S = 0.25

_N = 12
_TABLE = tuple(tuple((a + b) % _N for b in range(_N)) for a in range(_N))


def kernel() -> bool:
    """Associativity of the cyclic group of order 12, decided 12 times over."""
    mul, ok = _TABLE, True
    for _ in range(12):
        for a in range(_N):
            ra = mul[a]
            for b in range(_N):
                ab, rb = ra[b], mul[b]
                for c in range(_N):
                    if mul[ab][c] != ra[rb[c]]:
                        ok = False
    return ok


class SpeedProbe:
    """Kernel times, sampled between ops, and the scaling they give an op."""

    def __init__(self) -> None:
        self.times: list[float] = []  # sample start times, increasing
        self.seconds: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        self.times.append(start)
        self.seconds.append(perf_counter() - start)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < 3 and (lo > 0 or hi < len(self.times)):
            if lo > 0:
                lo -= 1
            if hi < len(self.times) and hi - lo < 3:
                hi += 1
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])
