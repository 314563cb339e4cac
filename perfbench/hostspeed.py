"""Host-speed meter: a fixed calibration loop, timed every TICK_S seconds
while the benchmark measures, so that operation times can be stated at one
reference host speed.

On a shared host the speed of a vCPU drifts by up to 1.7x over seconds to
minutes, as other tenants load the same physical cores.  The calibration
loop runs the same kind of interpreter work as the program (scalar float
math through the math module) but calls nothing of it, so a
change to the program moves the operation times and not the calibration,
while a change of host speed moves both.

    with HostMeter() as meter:
        start = time.perf_counter(); op(); end = time.perf_counter()
    own = end - start - meter.spent(start, end)   # tick time removed
    at_reference = own * meter.factor(start, end)

The ticks come from SIGALRM, so the meter runs only in the main thread.
Python runs the handler between bytecodes of the operation; the time the
ticks took inside an operation is subtracted from its time.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

TICK_S = 0.02
# An operation's host speed is the median calibration time over its own
# span widened by WINDOW_S on both sides, so a short operation has some
# ten samples.
WINDOW_S = 0.1
# Calibration time at the reference host speed, a round value near the
# loop's time between operations on a quiet 2.1 GHz x86-64 vCPU (CPython
# 3.11), so that times at the reference speed read close to measured ones
# there.
REF_CAL_S = 6.0e-5


def calibrate() -> float:
    """The calibration loop: a fixed amount of interpreter work."""
    acc, x = 0.0, 0.1
    for _ in range(300):
        x += 0.001
        acc += math.exp(-x) * math.sqrt(x) + math.lgamma(1.5 + x)
    return acc


class HostMeter:
    """Times calibrate() every TICK_S seconds while the `with` block runs."""

    def __init__(self):
        self.stamps: list[float] = []  # start of each tick, ascending
        self.cals: list[float] = []  # its calibration time
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        calibrate()
        self.cals.append(time.perf_counter() - start)
        self.stamps.append(start)

    def __enter__(self) -> "HostMeter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)  # a last tick, so the last run has one near it

    def _range(self, start: float, end: float) -> tuple[int, int]:
        return bisect.bisect_left(self.stamps, start), bisect.bisect_right(self.stamps, end)

    def spent(self, start: float, end: float) -> float:
        """Seconds the ticks took between start and end."""
        lo, hi = self._range(start, end)
        return math.fsum(self.cals[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """Reference speed over host speed around [start, end]: multiply a
        time measured there by this to state it at the reference speed."""
        lo, hi = self._range(start - WINDOW_S, end + WINDOW_S)
        if hi == lo:
            raise RuntimeError(f"no calibration tick within {WINDOW_S} s of a run")
        return REF_CAL_S / statistics.median(self.cals[lo:hi])
