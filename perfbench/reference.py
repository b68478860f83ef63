"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark's times are normalized by it: each timed sample is divided by
the reference time measured next to it and multiplied by NOMINAL_S, the
kernel's time on an uncontended core.  On a machine of steady speed this
leaves the wall time unchanged.  On a shared machine whose cores lose up to
half their speed for tens of seconds at a time it removes that drift, which
a median over one run cannot.  The kernel does not use the library, so no
change to the library can move it.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

#: time of one kernel call on an uncontended core of the shared 2-vCPU Xeon VM
#: the baseline was measured on (its 5th percentile over 1,500 calls)
NOMINAL_S = 0.0041

_X = np.linspace(0.0, 1.0, 64)
_KEYS = list(range(300))


def kernel(_=None) -> float:
    """Seconds for a fixed mix of the operations the library spends its time
    in: small numpy reductions driven from Python, a pure-Python integer
    loop and keyed sorts of a list."""
    start = time.perf_counter()
    for _ in range(500):
        float(np.exp(_X - _X.max()).sum())
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    for _ in range(20):
        sorted(_KEYS, key=lambda v: (v * 7919) % 301)
    return time.perf_counter() - start


class Reference:
    """The kernel on as many cores as the workload uses.

    A multi-worker workload is compared with the kernel run in that many
    processes at once (mean of their times), so that a slow core shows in
    the reference as it does in the workload.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._pool = None
        if workers > 1:
            # fork, not spawn: a spawn or forkserver pool starts a resource
            # tracker process that outlives this one
            ctx = multiprocessing.get_context("fork")
            self._pool = ctx.Pool(workers)
            self._pool.map(kernel, range(workers))  # start-up and warm-up

    def measure(self, calls: int = 1) -> float:
        """Mean kernel time over ``calls`` calls (per worker)."""
        if self._pool is None:
            return sum(kernel() for _ in range(calls)) / calls
        times = self._pool.map(kernel, range(self.workers * calls), chunksize=calls)
        return sum(times) / len(times)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
