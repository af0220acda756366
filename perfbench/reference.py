"""The reference kernel that op latencies are measured against.

The benchmark runs this kernel after every op and reports an op's latency as
a multiple of the kernel's time around it (unit ``ref``).  On a shared host
the speed of the whole machine drifts: the kernel took 7.5 ms in one process
and 13.6 ms in another a minute later, and the ops slowed with it.  The ratio
cancels that drift, while a change to semistab moves the op and not the
kernel.

The kernel is exact rational Gaussian elimination on a fixed 12 x 12 integer
matrix, three times over: ``Fraction`` arithmetic and list handling in pure
Python, the same kind of work as semistab's exact LP and polynomial code.  It
uses nothing from semistab, so no change there can move it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

SIZE = 12
REPEATS = 3
_rng = random.Random(1)
_MATRIX = [[_rng.randint(-9, 9) for _ in range(SIZE)] for _ in range(SIZE)]


def eliminate() -> list:
    """Row-reduce the fixed matrix over the rationals; returns the result."""
    A = [[Fraction(v) for v in row] for row in _MATRIX]
    for c in range(SIZE):
        p = next((i for i in range(c, SIZE) if A[i][c] != 0), None)
        if p is None:
            continue
        A[c], A[p] = A[p], A[c]
        for i in range(c + 1, SIZE):
            f = A[i][c] / A[c][c]
            if f:
                A[i] = [a - f * b for a, b in zip(A[i], A[c])]
    return A


def reference_s() -> float:
    """Wall time of one run of the kernel, in seconds."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        eliminate()
    return time.perf_counter() - t0
