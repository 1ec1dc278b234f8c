"""The machine's current speed, from a fixed reference loop.

The benchmark's host is a few cores of a shared machine, whose speed moves
by 30-45% for tens of seconds at a time as other tenants load it. Timings
are therefore reported at a nominal machine speed: a measured time is
scaled by ``NOMINAL_UNIT_S`` over the time the reference unit took around
it. The unit mixes interpreter work, small numpy calls and one large FFT,
like the workloads, and does not touch hfpa, so a change to the package
never moves it. Raw times are kept in the report.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds one reference unit takes on the shared 2-core VM the benchmark's
#: bounds were set on (0.65-1.05 ms as its load varied).
NOMINAL_UNIT_S = 1.0e-3
#: Units per probe; the probe reports their median time.
PROBE_UNITS = 5

_SMALL = np.linspace(0.0, 1.0, 64)
_LARGE = np.exp(1j * np.linspace(0.0, 100.0, 16384))


def reference_unit() -> float:
    acc = 0.0
    for i in range(4000):
        acc += i * 0.5
    for _ in range(40):
        acc += float(np.sum(_SMALL * 1.5))
    acc += float(np.abs(np.fft.fft(_LARGE)).max())
    return acc


class SpeedProbe:
    """Times PROBE_UNITS reference units at a time and keeps every probe."""

    def __init__(self):
        self.probes = []
        self.last_t = -float("inf")

    def probe(self) -> float:
        """Median seconds per unit right now."""
        times = []
        for _ in range(PROBE_UNITS):
            t0 = time.perf_counter()
            reference_unit()
            times.append(time.perf_counter() - t0)
        self.last_t = time.perf_counter()
        unit_s = statistics.median(times)
        self.probes.append(unit_s)
        return unit_s

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor taking a time measured between two probes to nominal speed."""
        return NOMINAL_UNIT_S / (0.5 * (before + after))

    def slowdown(self) -> float:
        """Median probe over nominal: 1.0 at the nominal speed."""
        return statistics.median(self.probes) / NOMINAL_UNIT_S
