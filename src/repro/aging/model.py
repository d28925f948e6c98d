"""Device-aging (wear-out stress) model.

The DATE'15 test-criticality metric ranks cores by how much *stress* they
have accumulated since they were last tested: utilization ages a core, and
running hot (high voltage) ages it faster.  We model stress accrual as

``d(stress) = base_rate · activity · exp(k · (V − V_nominal)) · dt``

while a core executes (workload or, at a configurable fraction, test
routines).  This is a deliberately simple exponential-in-voltage law — it
preserves the two properties the scheduler exploits (more utilization ⇒
more stress; higher V/F ⇒ more stress) without fitting a specific NBTI/HCI
dataset we do not have (see DESIGN.md substitutions).

Accrued stress feeds two sinks on the core record:

* ``age_stress`` — lifetime stress, drives the fault-injection hazard;
* ``stress_since_test`` — reset by a completed test, drives criticality.
"""

from __future__ import annotations

import math

from repro.core.config_io import AgingParameters
from repro.platform.core import Core
from repro.platform.dvfs import VFLevel
from repro.platform.technology import TechnologyNode


class AgingModel:
    """Accrues wear-out stress on cores as they execute."""

    def __init__(self, node: TechnologyNode, params: AgingParameters = AgingParameters()) -> None:
        self.node = node
        self.params = params

    def stress_rate(self, level: VFLevel, activity: float = 1.0) -> float:
        """Stress units accrued per µs of execution at ``level``."""
        if activity < 0:
            raise ValueError("activity must be non-negative")
        accel = math.exp(
            self.params.voltage_acceleration * (level.vdd - self.node.vdd_nominal)
        )
        return self.params.base_rate * activity * accel

    def accrue_busy(
        self, core: Core, duration_us: float, level: VFLevel, activity: float
    ) -> float:
        """Accrue workload-execution stress on ``core``; returns the delta.

        The core type's ``aging_scale`` multiplies the accrual (exactly
        1.0 for ``std``, so homogeneous chips are bit-unchanged).
        """
        if duration_us < 0:
            raise ValueError("duration must be non-negative")
        delta = (
            self.stress_rate(level, activity)
            * duration_us
            * core.core_type.aging_scale
        )
        core.age_stress += delta
        core.stress_since_test += delta
        return delta

    def accrue_test(self, core: Core, duration_us: float, level: VFLevel) -> float:
        """Accrue (reduced) stress for executing a test routine."""
        if duration_us < 0:
            raise ValueError("duration must be non-negative")
        delta = (
            self.stress_rate(level, 1.0)
            * self.params.test_stress_fraction
            * duration_us
            * core.core_type.aging_scale
        )
        core.age_stress += delta
        # Note: stress_since_test is *not* increased by the test itself; the
        # test's completion resets it (see the test runner).
        return delta
