"""Host speed probe: a fixed kernel, timed in short bursts during a phase.

The machine this benchmark was built on is a small share of a host
whose speed drifts by up to 1.7x over tens of seconds, with the load
of other tenants.  A compute-bound phase's wall time follows that
drift, so from run to run it measures the host as much as the program.

While a :class:`SpeedProbe` is active, a timer signal runs a short,
fixed numpy-and-Python kernel on the measuring (main) thread every
``interval`` seconds, in the middle of the program's own work, and
times it.  The phase's *normalized* time is its wall time less the
probe's own time, scaled by ``NOMINAL_BURST_S`` over the typical burst
time: the time the phase would have taken with the host at the speed
at which one burst takes ``NOMINAL_BURST_S``.  The kernel runs no code
of the program, so a change to the program moves the normalized time
as it moves the wall time, while a change in the host's speed cancels.
Both the wall time and the normalized time are recorded.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

import numpy as np

__all__ = ["SpeedProbe", "NOMINAL_BURST_S"]

#: Burst time that defines the nominal host speed: about a burst's time
#: in the faster spells of the 2-core machine the benchmark was built on.
NOMINAL_BURST_S = 0.00125

_RNG = np.random.default_rng(0)
_VALUES = _RNG.standard_normal(4096)
_SORTED = np.sort(_VALUES)
_INDEX = _RNG.integers(0, 4096, size=2048)
_SMALL = _RNG.standard_normal((32, 32))


def _touch() -> float:
    return float(_VALUES.sum() + _SORTED.sum() + _INDEX.sum() + _SMALL.sum())


def kernel() -> float:
    """One burst: small numpy operations and a Python loop, like the
    program's sampler and forward pass, but none of its code."""
    acc = 0.0
    for _ in range(2):
        order = np.argsort(_VALUES[_INDEX])
        found = np.searchsorted(_SORTED, _VALUES[order])
        acc += float(np.unique(found).size)
        acc += float((_SMALL @ _SMALL).sum())
        for i in range(200):
            acc += i & 7
    return acc


class SpeedProbe:
    """Context manager that times :func:`kernel` bursts during a phase."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.bursts: List[float] = []
        #: Wall time the probe itself took (touches and bursts).
        self.spent_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        begin = time.perf_counter()
        # Bring the kernel's arrays back into cache first, so that a
        # burst times the host's speed rather than how much of the cache
        # the program's own work just evicted.
        _touch()
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.bursts.append(end - start)
        self.spent_s += end - begin

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def typical_burst_s(self) -> float:
        """Mean burst time, without the fastest and slowest tenth.

        A mean, because the phase's wall time adds up its work over all
        of the host's fast and slow spells, which the bursts sample
        evenly in time; trimmed, so that one burst caught by a
        garbage-collection pass or a descheduling does not move it.
        """
        ordered = sorted(self.bursts)
        cut = len(ordered) // 10
        return statistics.fmean(ordered[cut:len(ordered) - cut])

    def normalize(self, wall_s: float) -> float:
        """``wall_s`` (measured around the probe) at the nominal speed."""
        if not self.bursts:
            return wall_s
        return (wall_s - self.spent_s) * NOMINAL_BURST_S / self.typical_burst_s()

    def summary(self) -> dict:
        """Burst count, typical burst and the probe's own time, for the record."""
        return {
            "bursts": len(self.bursts),
            "burst_ms": self.typical_burst_s() * 1000.0 if self.bursts else None,
            "spent_s": self.spent_s,
        }
