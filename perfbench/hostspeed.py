"""The speed of the host while the benchmark runs, and a clock that leaves
out the time spent finding it.

The host is a shared virtual machine whose speed drifts by half or more for
tens of seconds at a time, longer than one run, so the least or median of an
op's runs still carries the speed of the moment.  A fixed probe that does
not call igc runs at most every EVERY seconds between ops and between the
cases of a check.  A time is scaled by REFERENCE over the median probe time
within MARGIN seconds of it: it then reads as the time the op takes on the
reference host at the speed it usually has.

`clock()` is time.perf_counter minus the time spent in the probe, so the ops
are timed as if it had not run.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

EVERY = 0.1
MARGIN = 1.0

# Probe time on the reference host, a 2-vCPU Intel Xeon virtual machine
# (Python 3.11), at its usual speed.
REFERENCE = 2.5e-3

# The product of two small polynomials with Fraction coefficients, kept in a
# dict keyed by exponent tuples: igc's commonest inner loop.
_A = {(i, j, (i * j) % 5): Fraction(i + 1, j + 2) for i in range(5) for j in range(3)}
_B = {(j, (i + j) % 4, i): Fraction(j - 3, i + 1) for i in range(5) for j in range(6)}


def probe() -> dict:
    out: dict = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


class HostSpeed:
    """Probe times of this process, and the time spent taking them."""

    def __init__(self):
        self.samples: list[float] = []  # probe times, in order
        self.at: list[float] = []  # when each probe ran, by time.perf_counter
        self.spent = 0.0
        self.due = 0.0
        self.active = True

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def tick(self, force: bool = False) -> None:
        """Run the probe if EVERY seconds have passed since the last run, or if forced."""
        start = time.perf_counter()
        if not self.active or (start < self.due and not force):
            return
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - t0)
        self.at.append(t0)
        if collecting:
            gc.enable()
        end = time.perf_counter()
        self.spent += end - start
        self.due = end + EVERY

    def scale(self, start: float, end: float) -> float:
        """REFERENCE over the median probe time within MARGIN seconds of an
        interval of time.perf_counter, or of the probes next to it if none."""
        lo = bisect.bisect_left(self.at, start - MARGIN)
        hi = bisect.bisect_right(self.at, end + MARGIN)
        near = self.samples[lo:hi] or self.samples[max(0, lo - 1):lo + 1]
        return REFERENCE / statistics.median(near)


HOST = HostSpeed()
