"""Processor speed sampled while a run measures, to scale its timings.

On a virtual machine shared with other tenants the same work takes from
0.6 to 1.3 times its usual time for stretches of seconds to a minute, and
a slow stretch lengthens CPU time as much as wall time.  Such a swing
moves every timing of a run together, and over ten seeds the raw
request timings spread by 0.2 to 0.3 of their median, wider than any
bound a benchmark may set.

A ``SpeedProbe`` thread wakes every ``INTERVAL_S`` and times a fixed
loop of built-in integer arithmetic with ``time.thread_time``, the CPU
time of that thread alone, so waiting for the interpreter lock or for
the processor does not count.  The loop uses no module the program under
test could replace.  ``factor`` turns seconds measured in an interval
into seconds at the reference speed: ``REFERENCE_CPU_S`` divided by the
mean probe time around that interval.  The process is pinned to one processor,
so the probe runs where the requests run.
"""

import bisect
import os
import statistics
import threading
import time

INTERVAL_S = 0.05
# Half-width of the window of probe samples averaged for one interval;
# an interval longer than the window uses the samples inside it.
WINDOW_S = 1.0
# CPU time of ``reference_work`` on the 2-vCPU machine described in
# README.md in its usual state; scaled timings are in seconds at that speed.
REFERENCE_CPU_S = 2.0e-4
_MODULUS = 1000000007 ** 3


def reference_work():
    """A fixed amount of pure-Python integer arithmetic."""
    x = 1
    for i in range(1, 800):
        x = (x * 1000003 + i) % _MODULUS
    return x


def pin_to_one_processor():
    """Run this process (and the threads and children it starts) on one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Samples the CPU time of ``reference_work`` until stopped."""

    def __init__(self):
        self.times = []
        self.cpu_s = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _loop(self):
        while not self._stop.wait(INTERVAL_S):
            at = time.perf_counter()
            start = time.thread_time()
            reference_work()
            self.cpu_s.append(time.thread_time() - start)
            self.times.append(at)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def local_cpu_s(self, start, end):
        """Mean probe time over [start, end], widened to WINDOW_S each side of its middle."""
        middle = (start + end) / 2
        lo = bisect.bisect_left(self.times, min(start, middle - WINDOW_S))
        hi = bisect.bisect_right(self.times, max(end, middle + WINDOW_S))
        if lo == hi:
            raise RuntimeError("no speed probe sample near a timed interval")
        return statistics.fmean(self.cpu_s[lo:hi])

    def factor(self, start, end):
        """Multiplier from seconds measured in [start, end] to seconds at the reference speed."""
        return REFERENCE_CPU_S / self.local_cpu_s(start, end)

    def summary(self):
        """(samples, median probe CPU seconds, quartile spread) of the whole run."""
        q1, median, q3 = statistics.quantiles(self.cpu_s, n=4)
        return len(self.cpu_s), median, (q3 - q1) / median
