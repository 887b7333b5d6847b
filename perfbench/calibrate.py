"""Host-speed calibration: a fixed reference loop, timed between cases.

The benchmark host is shared.  Its speed swings by up to 1.7x in phases
that last from seconds to minutes, longer than a run, so neither a fastest
sample nor a median inside one run removes them.  A fixed loop of pure-Python
work of the same kind the package does (tuples, frozensets and divisibility
tests on exponent vectors) slows down with the program: in 10-second windows
on a 2-vCPU host, the program's time moved by 1.5x while its ratio to this
loop's time stayed within +-6%.

So every time the benchmark reports is in *reference seconds*: the measured
duration times REFERENCE_S over the reference loop's local duration, the
median of the samples taken nearest to it.  This file belongs to the
benchmark, not to the program, so a change to the program cannot move the
loop.  The garbage collector is off while a sample runs, so a program that
holds a larger heap does not make the loop slower.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

#: Nominal duration of one reference sample; about what it takes on the
#: 2.0 GHz Xeon host in its fast phase.
REFERENCE_S = 0.003
#: A sample is taken before the next case once this much time has passed.
EVERY_S = 0.1
#: Samples on each side of a moment that set its local reference duration.
HALF_WINDOW = 3
_ROUNDS = 80


def reference_work(rounds: int = _ROUNDS) -> int:
    acc = 0
    for i in range(rounds):
        gens = frozenset((a, (i + a) % 5, (a * i) % 4) for a in range(8))
        minimal = [
            g for g in gens
            if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in gens)
        ]
        acc += len(minimal) + sum(map(sum, minimal))
    return acc


class Calibrator:
    """Takes reference samples while a pass runs and scales durations."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        clock = self.clock
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            reference_work()
            end = clock()
        finally:
            if enabled:
                gc.enable()
        self.times.append(end)
        self.durations.append(end - start)

    def maybe_sample(self) -> None:
        if not self.times or self.clock() - self.times[-1] >= EVERY_S:
            self.sample()

    def scale(self, moment: float) -> float:
        """Factor that turns a duration measured at `moment` into reference
        seconds."""
        i = bisect.bisect_left(self.times, moment)
        lo = max(0, i - HALF_WINDOW)
        window = self.durations[lo:i + HALF_WINDOW]
        return REFERENCE_S / statistics.median(window)
