"""Contention probe: samples how fast this CPU is running, on a timer.

On a shared host, other tenants' load changes the speed left to the
benchmark by a factor of up to two within seconds (on a 2-vCPU Intel Xeon
host running CPython 3.11, the kernel below takes either about 55 or about
100 microseconds, switching between the two).  The probe runs a tiny
fixed kernel (the inner loop of a sparse multiply: tuple adds, dict updates,
int products, the work the library spends its time on) from a SIGALRM
handler every ``INTERVAL_S`` of wall time, twice, and records when it ran
and how long the second, warm, run took.  The cyclic garbage collector is
off while the kernel runs, so no collection of the library's heap lands
inside a sample.

A call's contention-corrected time is its wall time, minus the time the
probe itself took inside it, times ``REFERENCE_S`` (the kernel's time on an
uncontended core of the reference host) over the mean kernel time during
the call and ``WINDOW_S`` either side: the time the call would have taken
on an uncontended core.  It is the mean, not the median or a trimmed mean:
a slow sample can be time the process lost to other tenants, which the
call lost too, and the speed is bimodal, so a median jumps between the
modes.  Over the same four runs of each workload on the reference host,
the median left 1.2 times the mean's run-to-run range on ``battery`` and 3
times on ``fold_requests`` p90 latency.  The kernel is the benchmark's own
code; the library can reach its timing only through the state it leaves in
the process, such as its heap.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from array import array

INTERVAL_S = 0.01
# Samples this close to a call also describe the speed it ran at.
WINDOW_S = 0.05
# The kernel's time on the reference host (an Intel Xeon vCPU, CPython
# 3.11) when its core is uncontended: the floor of its run times there.
REFERENCE_S = 5.5e-5

_TERMS = tuple(((i, i + 1, 2 * i % 5), i + 1) for i in range(8))


def kernel() -> None:
    acc: dict = {}
    for e1, c1 in _TERMS:
        for e2, c2 in _TERMS:
            key = tuple(a + b for a, b in zip(e1, e2))
            acc[key] = acc.get(key, 0) + c1 * c2


class ContentionProbe:
    """Kernel timings taken on a wall-clock timer while started."""

    def __init__(self):
        self.at = array("d")  # start of each kernel run
        self.cost = array("d")  # duration of the timed kernel run
        self.own = array("d")  # wall time the whole sample took
        self._old = None

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()  # untimed: refills the caches the interrupted code evicted
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.at.append(start)
        self.cost.append(t1 - t0)
        self.own.append(t1 - start)

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def corrected(self, spans: list[tuple[float, float]]) -> list[float]:
        """Contention-corrected seconds of calls that ran over (start, end) spans."""
        if not self.cost:
            return [t1 - t0 for t0, t1 in spans]
        overall = sum(self.cost) / len(self.cost)
        out = []
        for t0, t1 in spans:
            own = sum(self.own[bisect.bisect_left(self.at, t0):bisect.bisect_left(self.at, t1)])
            near = self.cost[bisect.bisect_left(self.at, t0 - WINDOW_S):
                             bisect.bisect_left(self.at, t1 + WINDOW_S)]
            mean = sum(near) / len(near) if near else overall
            out.append((t1 - t0 - own) * REFERENCE_S / mean)
        return out
