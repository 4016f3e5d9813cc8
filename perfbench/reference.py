"""A fixed computation timed between the steps of a march, to measure the
speed of the host at that moment.

On a shared host the same code runs up to 1.7 times slower in some minutes
than in others, in phases that can outlast a benchmark run.  Dividing a
step's CPU time by the CPU time of this computation, measured on the same
thread a few milliseconds later, cancels most of that.  The computation is
interpreted Python only: a numpy part shaped like a matrix-free apply, tried
beside it, changed speed less than semwave's steps between fast and slow
phases, most of all on the small-step workloads (perfbench/README.md gives
the figures).  It never calls semwave, so a change to the program leaves it
as it is.
"""
from __future__ import annotations

from time import thread_time

PY_LOOPS = 8000
# A round figure near the reference's CPU time on the 2-vCPU machine where the
# benchmark was written; times "at the reference's nominal speed" are CPU
# times scaled by this over the reference time measured beside them.
REFERENCE_NOMINAL_S = 1.0e-3


class Reference:
    def __init__(self):
        self.table = {i: float(i) for i in range(64)}

    def __call__(self) -> float:
        """Thread CPU time of one run, in s."""
        c0 = thread_time()
        table, acc = self.table, 0.0
        for i in range(PY_LOOPS):
            acc += table[i & 63] * 0.5 if i % 3 else -table[(i * 7) & 63]
        return thread_time() - c0
