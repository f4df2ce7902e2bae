"""Speed normalisation against a fixed stdlib calibration kernel.

The speed of a shared machine drifts over seconds, so raw wall times of the
same work spread widely from run to run.  The kernel below does the kinds of
work varsep does (Fraction arithmetic into a dict keyed by exponent tuples,
and float evaluation with math calls) and uses no varsep code.  It is timed
between queries, and every query's wall time is rescaled to what it would
have been had the kernel taken its nominal time:

    normalised = wall * NOMINAL_S / kernel

Interleave policy: one kernel sample (the median of REPEATS back-to-back
kernel runs) before every query and one after the last, so each query is
scaled by the mean of the two samples that bracket it.  The speed moves
within fractions of a second, and wider windows tracked it worse.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.5e-3
REPEATS = 3


def kernel() -> int:
    a = {(i, 3 - i % 4): Fraction(i + 1, i % 5 + 2) for i in range(12)}
    b = {(i % 3, i): Fraction(2 * i - 7, 3) for i in range(10)}
    acc: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = (e1[0] + e2[0], e1[1] + e2[1])
            acc[key] = acc.get(key, Fraction(0)) + c1 * c2
    s = 0.0
    for i in range(400):
        x = i * 0.0125 - 2.5
        s += math.sin(x) * math.exp(-x * x) + abs(x) / (1.0 + x * x)
    return len(acc) + (s > 0)


def sample() -> float:
    """One kernel sample: the median wall time of REPEATS kernel runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Normaliser:
    """Interleaves kernel samples with queries and rescales their times.

    Call `before_query()` ahead of each query and `add(record)` after it;
    `finish()` takes the closing sample.  A record gets `record.scale`
    (NOMINAL_S / mean of its bracketing samples) once the next sample is in.
    """

    def __init__(self, sampler=sample):
        self.sampler = sampler
        self.samples: list[float] = []
        self.calib_s = 0.0
        self._pending = None

    def before_query(self) -> None:
        start = time.perf_counter()
        value = self.sampler()
        self.calib_s += time.perf_counter() - start
        if self._pending is not None:
            self._pending.scale = NOMINAL_S / ((self.samples[-1] + value) / 2)
            self._pending = None
        self.samples.append(value)

    def add(self, record) -> None:
        self._pending = record

    def finish(self) -> None:
        self.before_query()

    @property
    def current(self) -> float:
        """Latest kernel sample, for converting reference seconds to wall."""
        return self.samples[-1]
