"""MapPro-style proactive first-node selection (NOCS'15 companion).

MapPro ("Proactive Runtime Mapping for Dynamic Workloads by Quantifying
the Ripple Effect of Applications on Networks-on-Chip", NOCS 2015, same
group) selects the *region* for an incoming application proactively: the
chip maintains, for every node, a **spatial availability potential** that
quantifies how much free, un-fragmented area surrounds it; mapping an
application degrades the potential of the nodes around it (the "ripple"),
and the next application is steered to the node with the best remaining
potential for its size class.

We reproduce the quantified-potential idea with a distance-discounted
availability field:

``potential(n) = Σ_{m available} gamma^{manhattan(n, m)}``

computed over the currently available cores with a per-size radius cut.
Compared to the plain SHiC-style square score (our ``ContiguousMapper``),
the exponential discount prefers *round, dense* free regions over
elongated ones of equal area, which is what reduces dispersion and
congestion in the MapPro evaluation.

The field is recomputed per mapping request from the available set —
O(available² ) with a radius cut — which at mesh sizes up to 16×16 is
far below the cost of the simulation step; the incremental-update
optimisation of the paper is an implementation detail we do not need.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.mapping.base import (
    MappingContext,
    RuntimeMapper,
    assign_tasks_near,
)
from repro.platform.core import Core
from repro.workload.application import ApplicationInstance


class MapProMapper(RuntimeMapper):
    """Proactive region selection via a distance-discounted potential."""

    name = "mappro"

    def __init__(self, gamma: float = 0.6) -> None:
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        self.gamma = gamma

    # ------------------------------------------------------------------
    def radius_for(self, n_tasks: int) -> int:
        """Smallest square radius whose area holds the application."""
        radius = 1
        while (2 * radius + 1) ** 2 < n_tasks:
            radius += 1
        return radius

    def potential(
        self, ctx: MappingContext, core: Core, radius: int
    ) -> float:
        """Distance-discounted availability around ``core``."""
        return _potential(core.position, ctx.available, self._discounts(radius))

    def potential_field(
        self, ctx: MappingContext, n_tasks: int
    ) -> Dict[int, float]:
        """The potential of every available node for this app size."""
        discounts = self._discounts(self.radius_for(n_tasks))
        return {
            core.core_id: _potential(core.position, ctx.available, discounts)
            for core in ctx.available
        }

    def _discounts(self, radius: int) -> List[float]:
        """``gamma ** d`` for every distance ``d`` inside the radius cut."""
        gamma = self.gamma
        return [gamma ** d for d in range(2 * radius + 1)]

    # ------------------------------------------------------------------
    def map_application(
        self, app: ApplicationInstance, ctx: MappingContext
    ) -> Optional[Dict[int, int]]:
        if app.graph.n_tasks > len(ctx.available):
            return None
        field = self.potential_field(ctx, app.graph.n_tasks)
        if not field:
            return None
        by_core: Dict[int, Core] = {c.core_id: c for c in ctx.available}
        best_id = min(field, key=lambda cid: (-field[cid], cid))
        return assign_tasks_near(app, ctx, by_core[best_id])


def _potential(
    position: Tuple[int, int], available: List[Core], discounts: List[float]
) -> float:
    """``Σ discounts[manhattan(position, m)]`` over ``available``, in order."""
    x, y = position
    reach = len(discounts) - 1
    total = 0.0
    for other in available:
        ox, oy = other.position
        distance = abs(x - ox) + abs(y - oy)
        if distance <= reach:
            total += discounts[distance]
    return total
