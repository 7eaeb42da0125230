"""CPU-speed normalisation of timings on a small shared host.

The 2-vCPU machines this benchmark was built on drift between speed states
that last from about a second to a minute, and the slow state can take
1.5-2x the time of the fast one for the same work (CPU time follows wall
time, so it is not time spent descheduled).  A whole run can sit in one
state, so medians within a run cannot remove it.  Instead every timing is
scaled to a reference speed: a fixed pure-Python kernel, independent of
the package, is timed next to the work, and a time t measured while the
kernel took k seconds is reported as t * ref / k, "seconds at reference
speed", where ref is the kernel's time at reference speed.

In a measured pass, `Sampler` runs the kernel from a SIGALRM handler every
INTERVAL_S, in the same process and on the same core as the work, and an
operation is scaled by the kernel times sampled during it (see
`Sampler.scale`).  The handler's own time is subtracted from the
operation's.  Set-up is scaled by kernel timings taken in the parent just
before the child starts and in the child just after its set-up.

The slow state does not slow all code alike, so each workload has the
kernel whose mix of work tracked it best (KERNELS, WORKLOAD_KERNEL).
"""

from __future__ import annotations

import math
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL_S = 0.05  # sampling period in a measured pass
MIN_SAMPLES = 5  # a short operation is scaled by at least this many samples


def _sweep_mix(k: int) -> int:
    """Modular powers (Euler's criterion), trial division (factoring p -+ 1
    above the smallest-factor table) and a Lucas-style ladder (the group
    order), in the proportions of a sweep."""
    p, s = 1000003, 0
    for i in range(2, 2 + 150 * k):
        s += pow(i, 65537, p)
    n = 3 * 1000000007
    for d in range(3, 3 + 6000 * k, 2):
        if n % d == 0:
            s += d
    x, y = 5, 7
    for _ in range(1000 * k):
        x, y = (x * x - 2) % p, (x * y - 5) % p
    return s + x + y


def _step(z: int, p: int) -> int:
    return (z * z - 2) % p


def _scan(n: int) -> int:
    """Every residue below n through short power chains and a function call,
    like the enumeration loops of the splitting suites."""
    p, hits = 10007, [0, 0, 0, 0]
    for x in range(1, n):
        y = x
        for j in range(1, 4):
            y_next = pow(y, 3, p)
            if y_next == 1 and y != 1:
                hits[j] += 1
            y = y_next
        if _step(x, p) == 5:
            hits[0] += 1
    return sum(hits)


def sweep_kernel() -> int:
    return _sweep_mix(2)


def suite_kernel() -> int:
    return _sweep_mix(1) + _scan(390)


# Each workload is timed against the kernel that tracked it best.  A
# kernel's reference time is about its time in the fast state of the 2-vCPU
# machine of baseline.json.
# The sweep kernel left the verification suites' scaled times still rising
# with their raw times (correlation 0.95 over 30 passes); half of it plus a
# residue scan did not (spread over passes 0.03 instead of 0.08).
KERNELS = {"sweep": (sweep_kernel, 0.85e-3), "suite": (suite_kernel, 0.70e-3)}
WORKLOAD_KERNEL = {"density-table": "sweep", "sweep-window": "sweep",
                   "verify-suites": "suite", "index-queries": "sweep"}


def kernel_times(workload: str, reps: int) -> list:
    kernel = KERNELS[WORKLOAD_KERNEL[workload]][0]
    times = []
    for _ in range(reps):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return times


def ref_s(workload: str) -> float:
    """The workload's kernel time at reference speed."""
    return KERNELS[WORKLOAD_KERNEL[workload]][1]


class Sampler:
    """Times the workload's kernel every INTERVAL_S from SIGALRM while a pass runs."""

    def __init__(self, workload: str):
        self.kernel, self.ref_s = KERNELS[WORKLOAD_KERNEL[workload]]
        self.at = []  # perf_counter() when each sample started
        self.took = []  # kernel seconds of each sample
        self.busy = 0.0  # seconds spent in the handler so far

    def _tick(self, signum, frame):
        start = perf_counter()
        self.kernel()
        end = perf_counter()
        self.at.append(start)
        self.took.append(end - start)
        self.busy += end - start

    def start(self) -> None:
        for _ in range(MIN_SAMPLES):  # so that even a pass shorter than INTERVAL_S has samples
            self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """The reference time over the kernel's time during [start, end].

        The kernel time is the interquartile mean of the samples taken
        during the interval, widened to the MIN_SAMPLES samples nearest to
        it when the interval is short.
        """
        at = self.at
        lo, hi = bisect_left(at, start), bisect_right(at, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(at)):
            before = start - at[lo - 1] if lo > 0 else math.inf
            after = at[hi] - end if hi < len(at) else math.inf
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return self.ref_s / interquartile_mean(self.took[lo:hi])


def interquartile_mean(values) -> float:
    """Mean of the middle half of the values (all of them when there are fewer than 4)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)
