"""Host speed sampling, to put times measured on a shared host on one scale.

On a shared host the speed of the same code drifts by a third and more over
seconds to minutes, as other tenants load the cores, caches and memory it
runs on.  A slow phase spans whole operations and whole runs, so no number
of repeats averages it away.  While a pass runs, an interval timer
interrupts it every ``PERIOD_S`` and times ``loop_s``, a fixed pure-Python
loop that does no gor3 work.  An operation's time, less the time spent in
those interruptions, is scaled by ``NOMINAL_S`` over the median loop time
around it: it reads as the time the operation takes on a host that runs the
loop in ``NOMINAL_S``.  A change to gor3 changes the operation's time and
not the loop's, so it shows in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

clock = time.perf_counter

LOOP = 5000
# The loop's time on the host the benchmark was defined on (Python 3.11,
# shared 2-core VM) in its fast phases.  Only the ratio of two scaled times
# means anything; the constant keeps them near seconds.
NOMINAL_S = 0.00040
PERIOD_S = 0.05
# Loop samples started this close to an operation count towards its scale.
WINDOW_S = 0.25


def loop_s():
    """One timing of the reference loop."""
    t0 = clock()
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7
    return clock() - t0


class HostSpeed:
    """Samples the reference loop while in a ``with`` block."""

    def __init__(self):
        self.starts = []      # when each sample began
        self.loops = []       # the loop's time in each sample
        self.costs = []       # each sample's time, taken from what it interrupted

    def _tick(self, signum, frame):
        t0 = clock()
        loop = loop_s()
        self.starts.append(t0)
        self.loops.append(loop)
        self.costs.append(clock() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def at_nominal(self, t0, t1):
        """Seconds from t0 to t1, less the samples taken in between, at the
        nominal speed."""
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_left(self.starts, t1)
        net = (t1 - t0) - sum(self.costs[first:last])
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        # none close by: the samples just before and after
        near = self.loops[lo:hi] or self.loops[max(0, first - 1):first + 1]
        if not near:
            raise RuntimeError("no host speed samples were taken")
        return net * NOMINAL_S / statistics.median(near)
