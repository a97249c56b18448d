"""The reference kernel that pass walls are divided by.

The sandbox drifts between faster and slower states that last seconds to
minutes (one fixed 0.27 s replay, repeated for six minutes: interquartile
range 13.5% of the median, lag-1 autocorrelation 0.75), so the raw wall of a
2 s pass spreads by 10-17% from run to run whatever statistic summarises it.
The drift is common to everything the process does. A fixed piece of work of
the benchmark's own, run right before and right after every pass, sees the
same state of the machine; the pass wall divided by it spreads about half as
much. The kernel shares no code with the program, so no change to the
program moves it.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List, Sequence

import numpy

_VALUES = numpy.random.default_rng(0).random(1 << 18)
# 8 MB of pointers to the interpreter's cached small ints: a scattered read
# pattern without 28 MB of int objects on top of the workload's peak RSS.
_TABLE = [i & 0xFF for i in range(1 << 20)]


def reference_kernel() -> float:
    """Run the fixed work once (≈0.25 s); returns its wall in seconds.

    Interpreter-bound dict, heap and list traffic with a scattered read
    pattern, then numpy sorts: the same mix the replay engines are made of.
    """
    start = time.perf_counter()
    counts: dict = {}
    heap: list = []
    for i in range(250_000):
        key = (i * 2654435761) & 0xFFFF
        counts[key] = counts.get(key, 0) + i
        if len(heap) < 1024:
            heapq.heappush(heap, (key, i))
        else:
            heapq.heapreplace(heap, (key, i))
    table = _TABLE
    total = 0
    for i in range(0, 1 << 20, 7):
        total += table[(i * 40503) & 0xFFFFF]
    for _ in range(3):
        numpy.cumsum(_VALUES[numpy.argsort(_VALUES)])
    return time.perf_counter() - start


def in_reference_units(walls: Sequence[float], kernels: Sequence[float]) -> float:
    """Median over passes of ``wall / mean(kernel before, kernel after)``;
    ``kernels`` holds one more sample than ``walls``."""
    ratios: List[float] = [
        wall / ((kernels[i] + kernels[i + 1]) / 2.0) for i, wall in enumerate(walls)
    ]
    return statistics.median(ratios)
