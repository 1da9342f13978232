"""Host-speed probe: scales wall times to a reference host speed.

On a shared virtual machine the speed of the host drifts by tens of percent
over a minute, and longer runs do not average the drift away.  The probe is
a short fixed piece of work -- a pure-Python loop plus one numpy gather,
because the workloads mix both kinds of work -- timed only while no program
work is in flight: before and after each timed unit (one operation, one
drained service segment, one set-up).  A unit's wall time is multiplied by
``p_ref / p``, where ``p`` is the mean of the probe timings around it and
``p_ref`` is the probe time recorded once on the reference host
(``spec.json``), so scaled timings read in seconds at reference speed.

The probe never imports :mod:`repro`: a program change must not move it.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

#: Iterations of the pure-Python half of the probe (about 1 ms).
PY_ITERATIONS = 12_000
#: Elements of the numpy half's gather (1 MiB of float64, about 1 ms).
GATHER_SIZE = 1 << 17
#: Repeats per probe point; the median rejects one preempted repeat.
REPEATS = 3


def scale_factor(p_ref: float, before: float, after: float) -> float:
    """Factor that converts a wall time taken between two probes to reference speed."""
    if p_ref <= 0 or before <= 0 or after <= 0:
        raise ValueError("probe timings must be positive")
    return p_ref / ((before + after) / 2.0)


class HostProbe:
    """Times the probe and scales timed units by the probes around them."""

    def __init__(self, p_ref: float) -> None:
        rng = np.random.default_rng(20080818)
        self._values = rng.random(GATHER_SIZE)
        self._index = rng.permutation(GATHER_SIZE)
        self.p_ref = float(p_ref)
        #: Every probe point taken, in seconds.
        self.samples: List[float] = []
        self._last = None

    def _once(self) -> float:
        started = time.perf_counter()
        acc = 0
        for i in range(PY_ITERATIONS):
            acc = (acc + i * i) % 1_000_003
        self._values[self._index].sum()
        return time.perf_counter() - started

    def measure(self) -> float:
        """Take one probe point (median of :data:`REPEATS` repeats), in seconds."""
        times = sorted(self._once() for _ in range(REPEATS))
        value = times[len(times) // 2]
        self.samples.append(value)
        self._last = value
        return value

    def invalidate(self) -> None:
        """Forget the last probe, so the next unit probes afresh.

        Call after any untimed work (checks, rebuilds) between units.
        """
        self._last = None

    def timed(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``fn`` as one timed unit; return ``(result, wall_s, factor)``.

        The probe after one unit serves as the probe before the next, so
        back-to-back units share their boundary probe.
        """
        before = self._last if self._last is not None else self.measure()
        started = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - started
        after = self.measure()
        return result, wall, scale_factor(self.p_ref, before, after)
