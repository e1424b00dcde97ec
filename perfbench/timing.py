"""Clock readings corrected for the host's speed at the moment they were taken.

The machine is shared, and its speed moves with other tenants' load: a fixed
loop runs up to twice as slow in stretches of a tenth of a second to several
minutes, with CPU time equal to wall time, so neither a longer run nor CPU
time removes it. The workload's own time cannot tell a slow host from slow
code, so a fixed pure-Python step, `calibration_step`, is timed between the
workload's units, about every `CALIBRATE_EVERY_S` of work. It is
interpreter-bound like most of hpindex, and it lives here, so no change to
the package can change it.

Each unit's time is divided by the calibration time measured around it and
multiplied by `REFERENCE_STEP_S`, the step's median time on the machine of
the recorded baseline, rounded (baseline.json has the runs' figures). So every reported time is in
reference seconds: how long the unit would take with the host as fast as it
usually was there. On that machine the raw and the reported times agree
within the host's swings, and the raw times are printed alongside.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_STEP_S = 0.0003
CALIBRATE_EVERY_S = 0.010

CALIBRATION_SPAN = "perfbench.calibration"

clock = time.perf_counter

_ADJ = [[(v * 7 + k * 13) % 400 for k in range(6)] for v in range(400)]


def calibration_step() -> int:
    """A fixed graph walk: set and list traffic, int arithmetic, bit ops."""
    seen = {0}
    stack = [0]
    acc = mask = 0
    while stack:
        v = stack.pop()
        for w in _ADJ[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
                acc += (w * v) & 1023
                mask ^= 1 << (w & 63)
    return acc + mask.bit_count()


def time_step() -> float:
    t0 = clock()
    calibration_step()
    return clock() - t0


def host_speed(samples: int = 15) -> float:
    """Median calibration time over `samples` steps taken now."""
    return statistics.median(time_step() for _ in range(samples))


class Timeline:
    """The units of one pass, in order, with calibration steps between them.

    Call `mark()` at every unit boundary: it takes a calibration step if one
    is due, and returns its time, which belongs to no unit. Then
    `unit(seconds)` records a unit. Under a tracer each step is a span of its
    own, `CALIBRATION_SPAN`, so that it counts in no traced function's self
    time.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.steps: list[float] = []
        self.units: list[float] = []
        self._segment: list[int] = []  # per unit: calibration steps before it
        self._due = 0.0

    def mark(self, force: bool = False) -> float:
        """Take a calibration step if one is due; return its time, else 0."""
        if not (force or clock() >= self._due):
            return 0.0
        if self.tracer is None:
            step = time_step()
        else:
            self.tracer.enter(CALIBRATION_SPAN)
            calibration_step()
            step = self.tracer.exit()
        self.steps.append(step)
        self._due = clock() + CALIBRATE_EVERY_S
        return step

    def unit(self, seconds: float) -> None:
        self.units.append(seconds)
        self._segment.append(len(self.steps))

    def close(self) -> None:
        self.mark(force=True)

    def reference_units(self) -> list[float]:
        """Each unit's time in reference seconds.

        A unit between steps i-1 and i is scaled by the mean of those two
        steps, each first replaced by the median of itself and its
        neighbours, so that one step slowed by an interrupt does not count.
        """
        c = self.steps
        if not c:
            raise ValueError("a timeline needs at least one calibration step")
        smooth = [statistics.median(c[max(i - 1, 0):i + 2]) for i in range(len(c))]
        out = []
        for t, i in zip(self.units, self._segment):
            lo, hi = smooth[max(i - 1, 0)], smooth[min(i, len(c) - 1)]
            out.append(t * 2 * REFERENCE_STEP_S / (lo + hi))
        return out
