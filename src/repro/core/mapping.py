"""The proposed test-aware utilization-oriented runtime mapper (DATE'15).

The baseline contiguous mapper optimises communication locality only.  The
paper's mapper keeps the contiguity machinery but biases *which* cores a
new application occupies with two policy terms:

* **utilization orientation** — prefer cores with low recent utilization,
  spreading stress across the die (cooler, slower-aging chip) and keeping
  chronically busy cores from never seeing an idle period;
* **test awareness** — avoid cores whose test criticality is high (they
  are about to be tested; occupying them would either delay the test or
  force an abort) and avoid cores currently running a test session.

Both terms enter the shared placement cost in "hop-equivalents", so the
weights directly trade communication hops against stress/test pressure.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.criticality import TestCriticality
from repro.mapping.base import (
    MappingContext,
    RuntimeMapper,
    assign_tasks_near,
    pick_first_node,
)
from repro.platform.core import Core, CoreState
from repro.workload.application import ApplicationInstance


class TestAwareUtilizationMapper(RuntimeMapper):
    """Contiguous mapping biased by utilization and test criticality."""

    name = "test-aware"

    def __init__(
        self,
        criticality: TestCriticality,
        utilization_weight: float = 2.0,
        criticality_weight: float = 2.0,
        testing_penalty: float = 6.0,
        utilization_window_us: float = 2000.0,
        type_weight: float = 1.0,
    ) -> None:
        if utilization_weight < 0 or criticality_weight < 0 or testing_penalty < 0:
            raise ValueError("weights must be non-negative")
        if type_weight < 0:
            raise ValueError("weights must be non-negative")
        if utilization_window_us <= 0:
            raise ValueError("utilization window must be positive")
        self.criticality = criticality
        self.utilization_weight = utilization_weight
        self.criticality_weight = criticality_weight
        self.testing_penalty = testing_penalty
        self.utilization_window_us = utilization_window_us
        self.type_weight = type_weight

    # ------------------------------------------------------------------
    def core_cost(self, now: float, core: Core) -> float:
        """Policy cost of occupying ``core`` (hop-equivalents)."""
        cost = self.utilization_weight * core.utilization(
            now, self.utilization_window_us
        )
        cost += self.criticality_weight * min(
            2.0, self.criticality.value(core, now)
        )
        if core.state is CoreState.TESTING:
            cost += self.testing_penalty
        # Heterogeneity: hot tile types cost extra.  The bias is exactly
        # 0.0 for std tiles and added only when nonzero, so homogeneous
        # placement costs keep their pre-heterogeneity bits.
        bias = self.type_bias(core)
        if bias != 0.0:
            cost += self.type_weight * bias
        return cost

    def map_application(
        self, app: ApplicationInstance, ctx: MappingContext
    ) -> Optional[Dict[int, int]]:
        if app.graph.n_tasks > len(ctx.available):
            return None
        # A core's cost walks its busy window, so it is evaluated once per
        # candidate per decision and both placement stages read the table.
        now = ctx.now
        core_cost = self.core_cost
        costs = {core.core_id: core_cost(now, core) for core in ctx.available}
        first = pick_first_node(ctx, app.graph.n_tasks, core_costs=costs)
        if first is None:
            return None
        return assign_tasks_near(app, ctx, first, core_costs=costs)
