"""Fixed reference computations that time the machine, not bvp8.

The shared host this benchmark runs on changes speed by up to 2x, on every
time scale from milliseconds to minutes; CPU time tracks wall time, so it is
the core that slows, not the scheduler.  How much an op slows depends on its
mix of work: small numpy calls, Python loops and megabyte tables respond
differently.  Latencies are therefore reported in units of a reference
kernel whose mix resembles the workload's op, sampled in the same process
directly before and after each op.  The kernel imports nothing from bvp8, so
a change to bvp8 cannot move it.
"""

from __future__ import annotations

import math
import time

import numpy as np


def _table(z: np.ndarray, degree: int, order: int) -> np.ndarray:
    """Chebyshev derivative table by the three-term recurrence."""
    table = np.zeros((order + 1, degree + 1, z.size))
    table[0, 0] = 1.0
    table[0, 1] = z
    table[1, 1] = 1.0
    for k in range(1, degree):
        table[0, k + 1] = 2.0 * z * table[0, k] - table[0, k - 1]
        for p in range(1, order + 1):
            table[p, k + 1] = 2.0 * p * table[p - 1, k] + 2.0 * z * table[p, k] - table[p, k - 1]
    return table


class Kernel:
    """Collocation-like work at fixed sizes.

    A derivative table on `points` nodes; with `cols`, also a Python loop with
    a small numpy call per node and a QR of a points x cols matrix, the three
    kinds of work in a solve.
    """

    def __init__(self, points: int, degree: int, order: int, cols: int = 0):
        self.z = np.linspace(-1.0, 1.0, points)
        self.degree, self.order, self.cols = degree, order, cols

    def run(self) -> float:
        table = _table(self.z, self.degree, self.order)
        acc = float(table[-1, -1, 0])
        if self.cols:
            rows = table[:, -self.cols:, :]
            for k, x in enumerate(self.z):
                acc += float(np.array([math.exp(x), math.sin(x)]) @ rows[:2, :2, k].sum(axis=1))
            _, r = np.linalg.qr(table[0, -self.cols:, :].T)
            acc += float(r[0, 0])
        return acc

    def sample(self) -> int:
        """Nanoseconds one run takes now."""
        t0 = time.perf_counter_ns()
        self.run()
        return time.perf_counter_ns() - t0
