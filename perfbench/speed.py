"""A machine-speed reference for timing on a shared host.

On a host shared with other tenants the speed of one core drifts, by up to
half over a few seconds, as the work beside it comes and goes.  The benchmark
therefore times a fixed pure-Python kernel all through each run, from a
SIGALRM handler every EVERY_S seconds, and rescales each timed sample by
REF_S (the kernel's time at the reference speed) over the median kernel time
around that sample.  It so reports seconds at one fixed machine speed.  Time
spent in the kernel is taken out of the sample it interrupted.  The kernel
is benchmark code that calls nothing in charfield2, so no change to the
package can move it.
"""

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

REF_S = 0.005      # kernel seconds at the reference speed
EVERY_S = 0.1      # kernel period while sampling
WINDOW_S = 0.25    # kernel runs this close to a sample set its speed


def kernel():
    """Carry-less products of pseudo-random 24- and 40-bit operands: work of
    the same kind as charfield2's, which the speed of a plain integer loop
    tracks less closely."""
    x, acc = 0x123456789, 0
    for _ in range(1500):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        a, b = x >> 40, x & 0xFFFFFFFFFF
        p = 0
        while a:
            low = a & -a
            p ^= b << (low.bit_length() - 1)
            a ^= low
        acc ^= p
    return acc


class SpeedRef:
    """Kernel times through a run, to rescale the samples taken meanwhile."""

    def __init__(self):
        self.stamps = []      # perf_counter at each kernel start, ascending
        self.times = []       # kernel seconds
        self.spent = 0.0      # total seconds spent in the kernel

    def sample(self, repeat=1):
        for _ in range(repeat):
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
            self.stamps.append(t0)
            self.times.append(dt)
            self.spent += dt

    @contextmanager
    def sampling(self):
        """Run the kernel every EVERY_S seconds while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def rescale(self, start, seconds):
        """`seconds` measured from `start` (kernel time already taken out),
        at the reference speed: scaled by the median kernel time of the runs
        within WINDOW_S of the sample, or of the nearest runs if none is."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, start + seconds + WINDOW_S)
        if hi - lo < 2:
            mid = bisect.bisect_left(self.stamps, start)
            lo, hi = max(0, mid - 1), min(len(self.stamps), mid + 1)
        return seconds * REF_S / statistics.median(self.times[lo:hi])
