"""Machine-speed calibration.

The shared machines this benchmark runs on change speed by up to a
quarter within tens of seconds, for reasons outside the process (the
process's CPU time and wall time move together).  Operation times are
therefore scaled to a reference speed: a fixed pure-Python loop is timed
between operations, and an operation time t taken at moment m becomes
t * REFERENCE_S / (median loop time within WINDOW_S of m).  Raw wall times
are kept in the result files.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

REFERENCE_S = 0.0028  # the loop's time at the reference speed
REPEATS = 3

_RNG = random.Random(0)
_LEFT = [tuple(_RNG.randrange(3) for _ in range(24)) for _ in range(30)]
_RIGHT = [tuple(_RNG.randrange(3) for _ in range(24)) for _ in range(30)]


def loop() -> None:
    """A sparse product of exponent tuples over F_2, the shape of the
    program's hottest loop."""
    out: dict = {}
    for e1 in _LEFT:
        for e2 in _RIGHT:
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) ^ 1


def calibrate() -> float:
    """Median time of REPEATS runs of the loop, collector off."""
    samples = []
    gc.disable()
    try:
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            loop()
            samples.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(samples)


class SpeedLog:
    """Loop times and the moments they were taken."""

    WINDOW_S = 2.0
    NEAREST = 3  # samples used at least, when the window holds fewer

    def __init__(self) -> None:
        self.moments: list[float] = []
        self.times: list[float] = []

    def sample(self) -> None:
        self.moments.append(time.perf_counter())
        self.times.append(calibrate())

    def factor(self, moment: float) -> float:
        """REFERENCE_S over the median loop time near ``moment``."""
        near = sorted(range(len(self.moments)), key=lambda i: abs(self.moments[i] - moment))
        picked = [i for i in near if abs(self.moments[i] - moment) <= self.WINDOW_S]
        if len(picked) < self.NEAREST:
            picked = near[: self.NEAREST]
        return REFERENCE_S / statistics.median(self.times[i] for i in picked)
