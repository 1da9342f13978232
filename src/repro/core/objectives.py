"""Cost objectives for BBC games.

The paper studies two per-node objectives:

* **sum** (Sections 2-4): the preference-weighted *sum* of shortest-path
  distances to all other nodes;
* **max** (Section 5, "BBC-max games"): the preference-weighted *maximum*
  distance.

Both share the same distance semantics, including the disconnection penalty
``M`` for unreachable targets, so the rest of the engine is parameterised by
an :class:`Objective` value rather than duplicated.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Hashable, Mapping

Node = Hashable


class Objective(enum.Enum):
    """Which aggregate of weighted distances a node minimises."""

    SUM = "sum"
    MAX = "max"

    def aggregate(self, weighted_distances: Mapping[Node, float]) -> float:
        """Aggregate a ``{target: weight * distance}`` mapping into a cost.

        SUM adds left to right in mapping order, in an explicit loop: the
        builtin ``sum()`` compensates float rounding since Python 3.12, and
        the cost engine's scoring loops add left to right, so this keeps the
        two bit-identical on every Python version.
        """
        if self is Objective.SUM:
            total = 0.0
            for value in weighted_distances.values():
                total += value
            return float(total)
        if not weighted_distances:
            return 0.0
        return float(max(weighted_distances.values()))

    @property
    def description(self) -> str:
        """Human-readable description used in reports."""
        if self is Objective.SUM:
            return "preference-weighted sum of distances"
        return "preference-weighted maximum distance"


def aggregate_costs(
    objective: Objective,
    weights: Callable[[Node], float],
    distances: Mapping[Node, float],
    penalty: float,
    all_targets: Mapping[Node, float] | None = None,
) -> float:
    """Aggregate raw distances into a node cost.

    ``distances`` maps *reachable* targets to their distance.  Targets that
    appear in ``all_targets`` (a ``{target: weight}`` mapping) but not in
    ``distances`` contribute ``weight * penalty``.  When ``all_targets`` is
    ``None`` only the reachable targets are aggregated (used by callers that
    pre-fill missing distances themselves).
    """
    weighted: Dict[Node, float] = {}
    if all_targets is None:
        for target, distance in distances.items():
            weighted[target] = weights(target) * distance
    else:
        for target, weight in all_targets.items():
            distance = distances.get(target, penalty)
            weighted[target] = weight * distance
    return objective.aggregate(weighted)
