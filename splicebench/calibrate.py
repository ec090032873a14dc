"""Host-speed calibration: a fixed kernel timed all through a run.

The host is a few cores of a shared machine.  A fixed op's time there is
bimodal, in bursts of a fraction of a second (a sibling hardware thread busy
or not), and the share of slow bursts drifts over minutes: the medians of
back-to-back 20-second windows of one fixed op spread by up to 24%, more
than a usable bound, while the same medians divided by those of a fixed
kernel timed in the same windows spread by 4-8%.

``Sampler`` times the kernel every ``every_s`` seconds of the process's CPU
time, from a profiling-timer signal, so that the samples cover the run
evenly even while one op runs for seconds; the caller subtracts the
sampler's own time from the op it interrupted.  The kernel is an integer
loop over a dict and a set of tuples: the interpreter's bytecode loop, which
is what rule enumeration, saturation and splicing spend their time in.  It
does not touch splicekit, so a change to splicekit cannot move it.  Kernels
that also allocated strings or ran scipy sparse products followed the
workloads less well (over ten seeds a run, op_s_p50 spread 0.10 on
unary-theorem-no with this kernel alone, 0.14 with all three).

A host-speed factor is a mean kernel time over ``REFERENCE_S``, above 1
where the host ran slower than the reference; a calibrated time is a raw
time divided by it.  ``Sampler.speed`` is the factor of the whole run,
``Sampler.speed_around`` that of the seconds around one op (the bursts are
short, and an op of a second or two sees only the few around it), and
``speed_now`` that of the moment a process finished its set-up.  The mean,
not the median, because an op sees the mix of fast and slow bursts, which
the mean follows smoothly.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# Mean seconds of the kernel on the 2-vCPU host the benchmark was tuned on.
REFERENCE_S = 0.021
WINDOW_S = 1.0  # speed_around looks this far before and after an op
MIN_SAMPLES = 3  # ... or at the nearest samples, where the window has fewer


def sample() -> float:
    """Seconds the kernel takes, once.  The cyclic garbage collector is off
    meanwhile, so that what the ops left on the heap does not move it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict[int, int] = {}
        pairs = set()
        for i in range(40_000):
            counts[i & 4095] = counts.get(i & 4095, 0) + i
            pairs.add((i & 511, i & 7))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_now(count: int) -> tuple[float, float]:
    """Host-speed factor from ``count`` samples taken now, after a warm-up
    sample that is not kept, and the seconds all of that took."""
    start = time.perf_counter()
    sample()
    speed = statistics.fmean(sample() for _ in range(count)) / REFERENCE_S
    return speed, time.perf_counter() - start


class Sampler:
    """Times the kernel every ``every_s`` seconds of CPU time, on SIGPROF.

    ``spent_s`` is the wall time spent in the sampler so far; an op's time is
    its wall time minus the growth of ``spent_s`` across it.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.samples: list[float] = []
        self.times: list[float] = []  # perf_counter at each sample
        self.spent_s = 0.0
        self._busy = False

    def start(self) -> None:
        sample()  # first use pays for cold caches; not kept
        self._on_signal(signal.SIGPROF, None)  # so that no run has none
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.every_s, self.every_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self._on_signal(signal.SIGPROF, None)

    def _on_signal(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append(sample())
            self.times.append(start)
        finally:
            self.spent_s += time.perf_counter() - start
            self._busy = False

    def speed(self) -> float:
        """Host-speed factor of the whole run."""
        return statistics.fmean(self.samples) / REFERENCE_S

    def speed_around(self, start: float, end: float) -> float:
        """Host-speed factor of the samples from ``WINDOW_S`` before
        ``start`` to ``WINDOW_S`` after ``end`` (perf_counter times), or of
        the ``MIN_SAMPLES`` nearest to the op where the window holds fewer."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            middle = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(middle - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return statistics.fmean(self.samples[lo:hi]) / REFERENCE_S
