"""The host's speed, measured inside each run with a fixed reference task.

The benchmark runs on a shared host whose speed drifts by a third from
one stretch of minutes to the next: on the 2-vCPU VM this benchmark was
written on, ten runs of ``decompose-tr`` in a row took 2.7 s per serial
decomposition in the first four and 3.7-3.9 s in the last two, and read
p50 moved from 0.078 to 0.128 ms with them.  No median within a run
removes a drift that outlasts the run.

So each run also times a reference task: fixed work of the same kinds the
program does (NumPy sorting, counting and gathering over arrays of integer
ids, and interpreted Python over a dict), on each CPU the run uses,
before each of its decompositions.  The task is the benchmark's own code, so
no change to the program moves it.  The run's timings are then reported
at reference speed: multiplied by ``REFERENCE_S`` over the task's median
time in the run (a throughput is divided by the same factor).  A change
that makes the program 10% faster moves them by 10%; a host that runs
everything 30% slower does not move them.  Over five minutes of planted
decompositions, the medians of 20-second stretches ranged over 1.63x as
measured and 1.27x at reference speed (IQR over median 0.27 and 0.11).
"""

from __future__ import annotations

import os
import time

import numpy as np

#: The task's time at the speed the figures are reported at: about its
#: median on the 2-vCPU VM this benchmark was written on.
REFERENCE_S = 0.045

#: Arrays of a few MiB, as the program's edge and wedge arrays are: a task
#: that fit in a core's cache tracked the decompositions' drift poorly.
_IDS = np.random.default_rng(0).integers(0, 1 << 16, 1 << 18)
_ORDER = np.random.default_rng(1).permutation(1 << 18)


def task() -> int:
    """The reference work; returns a checksum so none of it can be skipped."""
    counts = np.bincount(np.sort(_IDS))
    unique = np.unique(_IDS[_ORDER])
    table: dict = {}
    for k in range(30000):
        key = k & 1023
        table[key] = table.get(key, 0) + k
    return int(counts.max()) + int(unique.size) + len(table)


def measure() -> list:
    """The task's time on each CPU this process may use, in seconds."""
    allowed = os.sched_getaffinity(0)
    seconds = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            clock = time.perf_counter()
            task()
            seconds.append(time.perf_counter() - clock)
    finally:
        os.sched_setaffinity(0, allowed)
    return seconds
