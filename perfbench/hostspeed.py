"""Host speed, sampled during a run to adjust its time metrics.

On a shared host the CPU speed available to one process swings by up to
~1.8x for seconds to minutes at a time, which no statistic over one run can
average out.  A fixed slice of interpreter and numpy work, using no bbl code,
is timed every ``EVERY_S`` seconds of the timed phase and in each set-up
probe.  Times are then scaled by ``NOMINAL_S / slice duration``: they read as
they would at the host speed where the slice takes ``NOMINAL_S``.  The raw
figures are printed beside the adjusted ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

EVERY_S = 0.25
# The slice's median duration on the 2-vCPU host the benchmark was tuned on.
NOMINAL_S = 2.0e-4

_X = np.linspace(0.0, 1.0, 64)


def _slice() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(1500):
        acc += i * i % 7
    for _ in range(20):
        acc += float(np.exp(_X) @ _X)
    return time.perf_counter() - t0


def sample() -> float:
    """Seconds the fixed slice of work takes: the least of three tries, so that
    a preemption during one try does not read as a slow host."""
    return min(_slice() for _ in range(3))


def median_sample(count: int = 5) -> float:
    return statistics.median(sample() for _ in range(count))
