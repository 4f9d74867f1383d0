"""A fixed pure-Python reference kernel that measures machine speed.

It does exact ``Fraction`` arithmetic, modular integer arithmetic and
dict work on tuple keys -- the same kinds of interpreter work simdual
does -- but calls no simdual code, so no change to the program can move
it.  Timing a unit of simdual work against this kernel, run at regular
intervals during the unit, cancels the slow drift in machine speed that
a shared host shows between processes.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction


def kernel(rounds: int = 6) -> int:
    """One fixed batch of work; returns a checksum so nothing is skipped."""
    acc = 0
    table = {}
    m = 3**5
    for r in range(rounds):
        a = [[Fraction(3 * r + 1, 7), Fraction(-2, 9)],
             [Fraction(5, 3), Fraction(r + 2, 11)]]
        b = [[Fraction(1, 3), Fraction(4, 5)], [Fraction(-7, 2), Fraction(2)]]
        for _ in range(6):
            a = [[a[0][0] * b[0][0] + a[0][1] * b[1][0],
                  a[0][0] * b[0][1] + a[0][1] * b[1][1]],
                 [a[1][0] * b[0][0] + a[1][1] * b[1][0],
                  a[1][0] * b[0][1] + a[1][1] * b[1][1]]]
            det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
            a = [[a[1][1] / det, -a[0][1] / det],
                 [-a[1][0] / det, a[0][0] / det]]
        x = (r * 17 + 5) % m
        for i in range(60):
            x = (x * x + 7 * i + 1) % m
            key = (x % 9, x % 27, (x * 5) % m, i & 7)
            table[key] = table.get(key, 0) + 1
        acc += len(table) + a[0][0].numerator % 97
    return acc


def time_kernel() -> float:
    """Seconds for one kernel batch, with the garbage collector held off
    so a collection of the caller's objects is not charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


# Seconds one kernel batch takes at the reference speed: about its median
# on the 2-vCPU host the benchmark was written on.  Normalised times are
# "seconds at reference speed"; the constant only sets their scale.
REF_SECONDS = 0.0020


class SpeedProbe:
    """Samples machine speed with the reference kernel during a timed
    region, from a wall-clock interval timer, and converts the region's
    wall time into seconds at reference speed.

    Each probe's own duration is excluded from the region.  The time
    between two probes is weighted by the mean speed the two probes saw,
    so a slow stretch of the host is charged at the speed it ran at.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples = []          # (probe start, probe end, kernel seconds)

    def _probe(self, *_):
        t0 = time.perf_counter()
        dt = time_kernel()
        self.samples.append((t0, time.perf_counter(), dt))

    def __enter__(self):
        self.samples = []
        time_kernel()              # warm the kernel before the first sample
        self._probe()
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._probe()
        return False

    def median_speed(self) -> float:
        """Median speed over the probes, relative to the reference."""
        speeds = sorted(REF_SECONDS / dt for _, _, dt in self.samples)
        return speeds[len(speeds) // 2]

    def raw_seconds(self) -> float:
        """Wall time of the region with the probes taken out."""
        s = self.samples
        return sum(s[i + 1][0] - s[i][1] for i in range(len(s) - 1))

    def normalised_seconds(self) -> float:
        s = self.samples
        total = 0.0
        for i in range(len(s) - 1):
            speed = (REF_SECONDS / s[i][2] + REF_SECONDS / s[i + 1][2]) / 2
            total += (s[i + 1][0] - s[i][1]) * speed
        return total
