"""A fixed reference computation that tracks the speed of the machine.

The benchmark runs on shared hosts whose speed drifts: a busy neighbour on
the same physical core slows our work, in stretches from a fraction of a
second to minutes, by up to 1.9x.  A 30-second run cannot average out a
slow minute, so the end-to-end times are reported at a fixed reference
speed::

    reported = measured * REFERENCE_S / median(calibration samples)

:func:`sample` times a fixed piece of work that never touches
``refinable``, made of the four kinds of work the package spends its time
on: an interpreter loop, a dict of tuple keys with float formatting (the
writers), a row-wise ``numpy.unique`` (the cascade kernel's merge) and a
sum of ``Fraction``s (the exact analysis).  The run takes one sample before
every problem of every untraced round and three before every set-up probe,
so the medians cover the same minutes as the measured work.  A slow minute
of the host moves the measured times and the samples alike, while a change
to the package moves only the measured times.  The correction is partial:
the host's slow stretches do not slow every kind of work alike (README.md).
run.py prints the measured figures beside the reported ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# Median of :func:`sample` on the reference machine (README.md); the
# end-to-end times are expressed in seconds at this speed.
REFERENCE_S = 0.010

_ROWS = (np.arange(6000 * 2, dtype=np.int64).reshape(6000, 2) * 2654435761) % 997


def _work() -> int:
    total = 0
    for i in range(30000):
        total += i * i
    acc: dict[tuple[int, int], float] = {}
    for i in range(2500):
        key = ((i * 7919) % 1201, (i * 104729) % 1193)
        acc[key] = acc.get(key, 0.0) + i / 1024.0
    text = sum(len(f"{k[0]}\t{k[1]}\t{v!r}\n") for k, v in acc.items())
    merged = len(np.unique(_ROWS, axis=0))
    exact = sum((Fraction(i, 7 * i + 3) for i in range(1, 300)), Fraction(0))
    return total + text + merged + exact.denominator


def sample() -> float:
    """Seconds one pass of the fixed reference work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def speed_factor(samples: list[float]) -> float:
    """REFERENCE_S over the median sample: multiply a measured time by this
    to express it at the reference speed."""
    return REFERENCE_S / statistics.median(samples)
