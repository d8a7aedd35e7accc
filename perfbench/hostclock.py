"""A stopwatch that corrects for the host's speed.

On a shared host the same CPU-bound job runs up to 1.7x slower in phases
that last from under a second to minutes, with CPU time equal to wall time,
so a plain wall time mostly measures the neighbours.  ``calibrate()`` times
a fixed loop of the kinds of work zpoly does (small-int arithmetic, small
sets and dicts, big-int arithmetic) that never touches zpoly.  The loop's
data fit in the first-level cache, so the job that ran before it hardly
changes its time; the host's speed does.  A job's time is cut into segments
of about ``SEGMENT_S`` at the boundaries between its library calls, the loop
runs at every cut, and each segment's wall time is scaled by
``CAL_REF_S / (mean of the calibrations at its two ends)``.  The result is
in seconds at the speed where the loop takes ``CAL_REF_S``; the
calibration's own time is excluded.
"""

from __future__ import annotations

import bisect
import time

# The loop's typical time on a 2-vCPU x86-64 VM with CPython 3.11; a fixed
# unit, not a measurement the results depend on.
CAL_REF_S = 0.015
SEGMENT_S = 0.2


def _calibration_loop() -> int:
    total = 0
    for i in range(60_000):
        total += i * i % 7
    base = frozenset(range(0, 40, 3))
    for i in range(1_000):
        total += len((base | {i % 50, i * 7 % 50}) & base)
        table = {j: j + 1 for j in range(8)}
        total += table[i % 8]
    x, y = 3 ** 300, 7 ** 200
    for i in range(1_000):
        total += (x * y + i) // (y + i) % 1_000_003
    return total


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    _calibration_loop()
    return time.perf_counter() - t0


class HostClock:
    """Calibrated durations between ``time.perf_counter()`` readings.

    Call ``cut()`` before the first reading and after the last one, and
    ``tick()`` wherever a cut may fall (between library calls); then
    ``seconds(a, b)`` gives the calibrated time between readings a and b.
    """

    def __init__(self):
        self.cuts = []          # (start, end, calibration seconds)

    def cut(self):
        start = time.perf_counter()
        cal = calibrate()
        self.cuts.append((start, time.perf_counter(), cal))

    def tick(self):
        if self.cuts and time.perf_counter() - self.cuts[-1][1] >= SEGMENT_S:
            self.cut()

    def seconds(self, a: float, b: float, scaled: bool = True) -> float:
        """Time between readings a <= b outside the calibrations; scaled to
        the reference speed unless scaled is False."""
        total = 0.0
        first = max(0, bisect.bisect_right([c[1] for c in self.cuts], a) - 1)
        for before, after in zip(self.cuts[first:], self.cuts[first + 1:]):
            lo, hi = max(a, before[1]), min(b, after[0])
            if hi > lo:
                scale = 2 * CAL_REF_S / (before[2] + after[2]) if scaled else 1.0
                total += (hi - lo) * scale
        return total

    def median_calibration(self) -> float:
        cals = sorted(c[2] for c in self.cuts)
        return cals[len(cals) // 2]
