"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark runs on shared hosts whose speed moves in phases of tens of
seconds, by up to about 1.4 times, for reasons outside the benchmark.  A
25-second run sits inside one or two such phases, so its raw timings move
with them.  The kernel below does a fixed amount of work of the same kind
as hypbranch's hot loops (small numpy array recurrences and dict
arithmetic in the interpreter) and never calls hypbranch, so a change to
the program cannot change its time.  The benchmark times it between
requests and rescales each request's time by ``REFERENCE_KERNEL_S`` over
the mean time of the ``RUNS`` kernel runs just before the request and the
``RUNS`` just after it: a timing then reads as it would on the machine at
its reference speed.  The kernel runs next to each request because the
machine's speed also flips between two levels about 2 times apart within
milliseconds to seconds; the mean, not the median, because what a request
pays is the average over those flips.  Set-up time is rescaled by the
kernel's mean over the whole run.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's mean time on the 2-core x86-64 VM the benchmark was
# tuned on, where it ranged over 1.0-1.7 ms.  Rescaled timings are in
# seconds at this speed.
REFERENCE_KERNEL_S = 1.6e-3
# Kernel runs in a row, before the first request and after every request.
RUNS = 2

_X = np.linspace(-0.99, 0.99, 128)


def _kernel() -> float:
    c_prev, c = np.ones_like(_X), _X.copy()
    for k in range(2, 120):
        c, c_prev = (2.0 * (k - 0.5) * _X * c - (k - 1.0) * c_prev) / k, c
    table = {}
    for i in range(1500):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i * 3 // 7
    return float(c[0]) + len(table)


def kernel_seconds() -> float:
    """Wall time of one kernel call."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0

