"""A fixed computation that samples how fast the machine runs right now.

The benchmark's host is a shared virtual machine whose speed for the same
single-threaded work swings by up to 2x within seconds (one `verify` row
took 0.38 s to 0.90 s in back-to-back processes).  Raw wall-clock rates
of two sets of ten runs of one commit then differ by more than any useful
bound.  The worker therefore times this yardstick before and after every
case and scales the case's seconds to the yardstick's reference time.

The yardstick mixes what the program spends its time on: a pure-Python
float recursion (the shape of a Sturm sweep), scalar math calls (the shape
of a residual evaluation) and numpy ufuncs on preallocated arrays, so that
its speed does not depend on the allocator state the workload leaves
behind.  It shares no code with the program, so a faster program does not
make it faster.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: the yardstick's time at the reference speed; a round figure near its
#: median on a 2-vCPU Intel Xeon VM with Python 3.11 and numpy 2.4.  It
#: only sets the scale of the reported times.
REFERENCE_S = 4e-3

_FLOATS = [2.0 + 1e-3 * i for i in range(4000)]
_X = np.linspace(0.1, 5.0, 4096)
_TMP = np.empty_like(_X)
_OUT = np.empty_like(_X)


def sample() -> float:
    """Seconds one pass of the yardstick takes now."""
    t0 = time.perf_counter()
    d, negative = 1.0, 0
    for _ in range(5):
        for a in _FLOATS:
            d = (a - 1.5) - 0.25 / d
            if d < 0:
                negative += 1
    acc = 0.0
    for i in range(4000):
        acc += math.sqrt(1.0 + i) / (2.0 + i)
    for _ in range(100):
        np.multiply(_X, -0.7, out=_TMP)
        np.exp(_TMP, out=_OUT)
        np.multiply(_OUT, _X, out=_OUT)
    return time.perf_counter() - t0
