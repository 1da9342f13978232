"""Percentiles that carry their sample count."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile of ``samples`` values."""

    q: float
    value: float
    samples: int

    @property
    def beyond(self) -> int:
        """How many samples lie above the selected rank."""
        return self.samples - rank(self.q, self.samples)


def rank(q: float, count: int) -> int:
    """1-based nearest rank of quantile ``q`` in ``count`` sorted samples."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {q}")
    if count < 1:
        raise ValueError("a percentile needs at least one sample")
    # The epsilon keeps a product such as 0.1 * 30 = 3.0000000000000004 at rank 3.
    return min(count, max(1, math.ceil(q * count - 1e-9)))


def percentile(values: Sequence[float], q: float) -> Percentile:
    """Nearest-rank percentile ``q`` of ``values`` with its sample count."""
    ordered = sorted(values)
    return Percentile(q=q, value=ordered[rank(q, len(ordered)) - 1], samples=len(ordered))
