"""Permanent-fault injection with an age-dependent hazard.

Premature permanent faults are the threat model of the paper ("aggressive
technology scaling ... increased occurrence of premature permanent
faults").  We inject them per core with a hazard that grows with the
core's accumulated aging stress:

``λ(core) = λ0 · (1 + age_stress / stress_scale)``

Each control epoch the injector Bernoulli-samples every healthy core with
``p = 1 − exp(−λ · dt)``.  An injected fault gets a *corner*: a
manifestation level plus a direction.

* ``high`` faults (e.g. delay faults) misbehave at level indices **at or
  above** the manifestation level — they need a fast/hot test to show;
* ``low`` faults (e.g. near-threshold SNM failures) misbehave at level
  indices **at or below** it — they only show in low-voltage operation.

This two-sided corner model is what makes the TC'16 "test at every V/F
level" extension meaningful (experiment E6): a nominal-only test campaign
is structurally blind to ``low`` faults, however often it runs.

A fault is *latent* until a test whose level reaches its corner runs on
the core (detection also requires passing the routine's coverage draw).
Detection latency — injection to detection — is the E8 headline metric,
and undetected-fault exposure time (core kept computing while faulty) is
the silent-corruption proxy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro._sum import lsum
from repro.metrics.collectors import FaultRecord
from repro.platform.chip import Chip
from repro.platform.core import Core


@dataclass(frozen=True)
class FaultParameters:
    """Hazard-law coefficients."""

    base_hazard_per_us: float = 0.0   # λ0; 0 disables injection
    stress_scale: float = 50.0        # stress units that double the hazard
    max_manifest_fraction: float = 1.0  # manifest level drawn in [0, L·frac)
    low_corner_fraction: float = 0.35   # share of faults that are "low" kind

    def __post_init__(self) -> None:
        if self.base_hazard_per_us < 0:
            raise ValueError("base hazard must be non-negative")
        if self.stress_scale <= 0:
            raise ValueError("stress_scale must be positive")
        if not 0.0 < self.max_manifest_fraction <= 1.0:
            raise ValueError("max_manifest_fraction must be in (0, 1]")
        if not 0.0 <= self.low_corner_fraction <= 1.0:
            raise ValueError("low_corner_fraction must be in [0, 1]")


@dataclass
class FaultInjector:
    """Samples age-dependent permanent faults each epoch."""

    chip: Chip
    params: FaultParameters
    rng: random.Random
    records: List[FaultRecord] = field(default_factory=list)

    def hazard(self, core: Core) -> float:
        """Instantaneous fault hazard of ``core`` (per µs).

        Scaled by the core type's ``fault_hazard_scale`` (1.0 for ``std``).
        A zero scale pins the hazard to exactly 0, so such a core draws a
        Bernoulli sample with p = 0 each epoch: it can never fault, yet it
        consumes the same RNG draw as any other core, leaving the other
        cores' fault streams untouched (the typed zero-hazard metamorphic
        relation relies on both halves).
        """
        return (
            self.params.base_hazard_per_us
            * (1.0 + core.age_stress / self.params.stress_scale)
            * core.core_type.fault_hazard_scale
        )

    def tick(self, now: float, dt: float) -> List[FaultRecord]:
        """Sample injections over the epoch just elapsed."""
        if self.params.base_hazard_per_us == 0.0:
            return []
        injected: List[FaultRecord] = []
        n_levels = len(self.chip.vf_table)
        max_manifest = max(
            1, int(round(n_levels * self.params.max_manifest_fraction))
        )
        for core in self.chip:
            if core.is_faulty() or core.fault_present:
                continue
            p = 1.0 - math.exp(-self.hazard(core) * dt)
            if self.rng.random() < p:
                kind = (
                    "low"
                    if self.rng.random() < self.params.low_corner_fraction
                    else "high"
                )
                record = FaultRecord(
                    core_id=core.core_id,
                    injected_at=now,
                    manifest_level=self.rng.randrange(max_manifest),
                    kind=kind,
                )
                core.fault_present = True
                core.fault_injected_at = now
                self.records.append(record)
                injected.append(record)
        return injected

    # ------------------------------------------------------------------
    # Detection bookkeeping (called by the test runner)
    # ------------------------------------------------------------------
    def open_record(self, core: Core) -> Optional[FaultRecord]:
        """The undetected fault record of ``core``, if any."""
        for record in reversed(self.records):
            if record.core_id == core.core_id and not record.detected:
                return record
        return None

    def try_detect(
        self, core: Core, now: float, test_level_index: int, coverage: float
    ) -> Optional[FaultRecord]:
        """Attempt detection after a test at ``test_level_index`` finished.

        Detection requires the fault to manifest at the tested corner and
        the routine's structural coverage draw to succeed.
        """
        if not core.fault_present:
            return None
        record = self.open_record(core)
        if record is None:
            return None
        if not record.manifests_at(test_level_index):
            return None
        if self.rng.random() >= coverage:
            return None
        record.detected_at = now
        core.fault_detected_at = now
        return record

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def detected_records(self) -> List[FaultRecord]:
        return [r for r in self.records if r.detected]

    def undetected_records(self) -> List[FaultRecord]:
        return [r for r in self.records if not r.detected]

    def mean_detection_latency(self) -> Optional[float]:
        latencies = [r.detection_latency() for r in self.detected_records()]
        if not latencies:
            return None
        return lsum(latencies) / len(latencies)
