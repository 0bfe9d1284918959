"""Machine-speed calibration for the benchmark's timings.

Small shared machines change speed by up to 2x for seconds at a time (other
tenants, frequency), which would swamp the differences the benchmark must
resolve.  A fixed loop of pure interpreter work, unrelated to the program
under test, is timed between instances; each measured duration is scaled by
``REF_NOMINAL_S / reference duration`` to the time it would have taken on a
machine where that loop takes ``REF_NOMINAL_S``.  The unscaled wall times
are kept in the run's report.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REF_NOMINAL_S = 0.0003  # about the loop's time on the 2.1 GHz vCPU it was tuned on
REF_REPEATS = 3  # median of three loops per reading
INTERVAL_S = 0.025  # at most one reading per this much measured work


def reference_loop() -> int:
    """Fixed work: integer arithmetic, tuple indexing and dict stores."""
    acc = 0
    table = {}
    row = tuple(range(64))
    for i in range(2000):
        x = row[i & 63]
        acc += (x * i) % 7
        table[i & 31] = acc
    return acc + len(table)


def reading() -> float:
    """Seconds the reference loop takes now (median of a few runs)."""
    times = []
    for _ in range(REF_REPEATS):
        t0 = perf_counter()
        reference_loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Speedometer:
    """Scale factors for consecutive measurements.

    ``before`` gives the scale for a measurement about to start, from a
    reading at most ``INTERVAL_S`` old; ``after`` corrects it for a long
    measurement by averaging with a fresh reading taken when it ends.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.scale = 1.0
        self._next = 0.0

    def _read(self) -> None:
        r = reading()
        self.readings.append(r)
        self.scale = REF_NOMINAL_S / r
        self._next = perf_counter() + INTERVAL_S

    def before(self) -> float:
        if perf_counter() >= self._next:
            self._read()
        return self.scale

    def after(self, start_scale: float, seconds: float) -> float:
        if seconds < INTERVAL_S:
            return start_scale
        self._read()
        return (start_scale + self.scale) / 2
