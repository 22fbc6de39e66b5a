"""The machine's speed, sampled during the timed work, for steady figures.

On a shared host the CPU's speed drifts by 20-30% over seconds to
minutes, in wall time and process CPU time alike, so raw times of the same
code taken an hour apart differ by more than a regression worth catching.
A fixed pure-Python kernel that belongs to the benchmark, not to the
program, slows down with it: modular elimination on a small matrix of
slotted scalar objects, the interpreter paths the program spends its time
on.  A timer signal runs the kernel every ``INTERVAL`` seconds while the
workload runs, in the workload's own thread (a sampler on the other CPU
does not follow this one's speed).  The kernel runs twice per sample and
only the second, warm run is timed, so that the samples do not depend on
what the program left in the caches; the garbage collector is off during
the sample, so that no collection of the program's garbage falls into it.

Each operation's time is then divided by how much slower than
``NOMINAL_S`` the kernel ran around it (``factor``): the figures are times
at the speed at which the kernel takes ``NOMINAL_S``.  The time the sampler
takes is left out of every operation (``now`` is wall time minus it), and
the kernel does the same work whatever the program does, so a faster
program shows as faster.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

INTERVAL = 0.025     # seconds of wall time between samples
WINDOW = 0.05        # program seconds around an operation whose samples scale it
NEAREST = 4          # samples that scale an operation with fewer in its window
NOMINAL_S = 0.0008   # the kernel's time at the reference speed


class _Residue:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % 10007

    def __add__(self, other):
        return _Residue(self.v + other.v)

    def __sub__(self, other):
        return _Residue(self.v - other.v)

    def __mul__(self, other):
        return _Residue(self.v * other.v)

    def inv(self):
        return _Residue(pow(self.v, 10005, 10007))


def kernel(n: int = 16) -> int:
    """Row-reduce a fixed n x n matrix over F_10007; returns its rank."""
    rows = [[_Residue(7 * i + j * j + 3 * i * j + 1) for j in range(n)] for i in range(n)]
    seen: dict[int, int] = {}
    rank = 0
    for c in range(n):
        pivot = next((i for i in range(rank, n) if rows[i][c].v), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][c].inv()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][c].v:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        for x in rows[rank]:
            seen[x.v] = seen.get(x.v, 0) + 1
        rank += 1
    return rank


class SpeedSampler:
    """Runs ``kernel`` on a timer signal and keeps its times.

    ``now`` is program time: wall time less the time spent in the sampler,
    so an interval of program time is the work's own time.  Samples are
    kept as (program time, kernel seconds).  Not started, it samples
    nothing and ``factor`` is 1.
    """

    def __init__(self):
        self.spent = 0.0
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._previous = None

    def now(self) -> float:
        return perf_counter() - self.spent

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            kernel()
            warm = perf_counter()
            kernel()
            seconds = perf_counter() - warm
        finally:
            if collecting:
                gc.enable()
        self.times.append(start - self.spent)
        self.kernel_s.append(seconds)
        self.spent += perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def factor(self, start: float, end: float) -> float:
        """How much slower than the reference speed the machine ran over
        [start, end] of program time.

        The samples within WINDOW of the interval, or the NEAREST samples to
        its middle where there are fewer, each give a speed, NOMINAL_S over
        the kernel's time.  Since the samples are evenly spaced in time, the
        mean speed is the work the interval did per second; a tenth of the
        samples at either end is left out first, so that a sample the host
        interrupted does not count.  The speed drops in and out within a
        long operation, so a median of the samples would follow whichever
        phase lasted longer, not the work done.
        """
        if not self.times:
            return 1.0
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.times) - NEAREST))
            hi = lo + NEAREST
        speeds = sorted(NOMINAL_S / k for k in self.kernel_s[lo:hi])
        trim = len(speeds) // 10
        return 1 / statistics.fmean(speeds[trim:len(speeds) - trim])

    def scaled(self, start: float, end: float) -> float:
        """The interval's length at the reference speed."""
        return (end - start) / self.factor(start, end)
