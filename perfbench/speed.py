"""Machine-speed calibration with a fixed kernel that does not touch the program.

Shared virtual machines (such as a 2-vCPU Xeon VM) change speed by up to
1.7x over tens of seconds, for every kind of work at once (process CPU time
tracks wall time, so it is not descheduling).  A run therefore times this
kernel between units of ops and scales each op's time by REFERENCE_S /
(mean of the median kernel times just before and after its unit), and
each set-up time by REFERENCE_S / (median of five kernel times right
after it): times read as seconds at the speed the kernel had when
REFERENCE_S was taken.
The kernel mixes the three kinds of work the workloads do (interpreter
bytecode, numpy calls on small arrays, full passes over a field), so it
slows down with them.  Its arrays take about 1.1 MiB, which stay resident
for the whole run and so are part of every peak RSS figure.  Raw times are
reported alongside.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4),
# where the committed baseline was recorded.
REFERENCE_S = 0.0032


class Kernel:
    def __init__(self) -> None:
        rng = np.random.default_rng(1)
        self.small = rng.uniform(size=(2, 64, 64))
        self.big = rng.uniform(size=(2, 128, 256))
        self.out = np.empty_like(self.big)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        x, table = 0, {}
        for i in range(20_000):
            table[i & 255] = x
            x += i
        for _ in range(60):
            np.exp(self.small).sum()
        for _ in range(16):
            np.exp(self.big, out=self.out)
        return time.perf_counter() - t0

    def median(self, reps: int) -> float:
        return float(np.median([self.seconds() for _ in range(reps)]))


def factor(kernel_seconds: float) -> float:
    """Multiply a time measured while the kernel took `kernel_seconds` by this."""
    return REFERENCE_S / kernel_seconds
