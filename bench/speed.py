"""The machine's speed during a run, from a fixed reference task.

The machine the benchmark runs on is shared: the same pure-Python work can
take twice as long in one minute as in the next, in spells of seconds to
minutes.  Timed as they are, two runs of the same jobs then disagree by
more than any bound worth setting.  So the benchmark times a fixed piece of
pure-Python work, ``reference_task``, between jobs, and expresses every job
time in *reference milliseconds*: the time the job would take on a machine
where the reference task takes ``REFERENCE_S``.  The task resembles the
program's own work (exact rationals, small objects, dicts, sets, sorting,
strings), so a slow spell stretches both about alike.  The task is part of
the benchmark, not of the program, so a change to the program does not
change it.
"""

from __future__ import annotations

import gc
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

# The reference task takes about this long on the machine the baseline was
# recorded on, so reference times are close to wall times there.
REFERENCE_S = 0.001
# Take a sample when this much time has passed since the last one.
INTERVAL_S = 0.05
# A sample is the fastest of this many back-to-back runs of the task, which
# drops runs that an interrupt happened to hit.  The garbage collector is
# off while they run, so the objects a job left behind do not slow them.
RUNS_PER_SAMPLE = 3


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b


def reference_task() -> tuple:
    total = Fraction(0)
    groups: dict[int, list[int]] = {}
    seen: set[tuple[int, int]] = set()
    order = []
    for i in range(1, 150):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        pair = _Pair(i % 13, i * 7 % 17)
        key = (pair.a, pair.b)
        if key not in seen:
            seen.add(key)
            order.append(key)
        groups.setdefault(pair.a, []).append(pair.b)
    text = " ".join(f"{a}:{b}" for a, b in sorted(order))
    return total, len(text.split()), sorted(groups)


class SpeedProbe:
    """Timed samples of the reference task, each with the time it was taken."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")

    def sample(self) -> None:
        best = float("inf")
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(RUNS_PER_SAMPLE):
                start = time.perf_counter()
                reference_task()
                best = min(best, time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        self.at.append(time.perf_counter())
        self.took.append(best)

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over ``[start, end]``.

        Uses the median of the samples taken within two intervals of it;
        there is one when samples were taken as due before and after it.
        Failing that, the first sample after it, or the last one.
        """
        lo = bisect_left(self.at, start - 2 * INTERVAL_S)
        hi = bisect_right(self.at, end + 2 * INTERVAL_S)
        if lo == hi:
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def reference_seconds(self, start: float, seconds: float) -> float:
        return seconds * self.scale(start, start + seconds)
