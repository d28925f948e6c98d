"""Software-Based Self-Test (SBST) routine models.

An SBST routine is a functional test program a core runs on itself.  The
scheduler only needs three observable properties per routine (see
DESIGN.md substitutions — we model routines parametrically rather than
porting actual test programs):

* ``cycles`` — length of the routine in clock cycles, so its wall-clock
  duration depends on the DVFS level it runs at (``cycles / f``);
* ``power_factor`` — switching-activity multiplier; good SBST maximises
  toggling, so routines typically burn *more* dynamic power than average
  workload (factor > 1);
* ``coverage`` — probability that the routine exposes a fault that
  manifests at the tested operating point.

A full test session for a core is a suite of routines targeting different
units; :class:`SBSTLibrary` aggregates them and answers duration/power/
coverage queries for a whole session at a given V/F level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro._sum import lsum
from repro.platform.coretypes import CoreType
from repro.platform.dvfs import VFLevel
from repro.platform.technology import TechnologyModel, TechnologyNode


@dataclass(frozen=True)
class SBSTRoutine:
    """One self-test program targeting a functional unit."""

    name: str
    cycles: float
    power_factor: float = 1.1
    coverage: float = 0.9

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ValueError(f"{self.name}: cycles must be positive")
        if self.power_factor <= 0:
            raise ValueError(f"{self.name}: power_factor must be positive")
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError(f"{self.name}: coverage must be in (0, 1]")

    def duration_at(self, level: VFLevel) -> float:
        """Wall-clock duration (µs) at DVFS ``level``."""
        return self.cycles / level.f_mhz


class SBSTLibrary:
    """A suite of routines executed back-to-back as one test session."""

    def __init__(self, routines: Sequence[SBSTRoutine]) -> None:
        if not routines:
            raise ValueError("library needs at least one routine")
        names = [r.name for r in routines]
        if len(set(names)) != len(names):
            raise ValueError("duplicate routine names")
        self.routines: List[SBSTRoutine] = list(routines)
        # Per-core-type derived libraries, built lazily by ``scaled_for``.
        self._typed: Dict[str, "SBSTLibrary"] = {}

    def __len__(self) -> int:
        return len(self.routines)

    def __iter__(self):
        return iter(self.routines)

    @property
    def total_cycles(self) -> float:
        return lsum(r.cycles for r in self.routines)

    def session_duration(self, level: VFLevel) -> float:
        """Duration (µs) of the full suite at ``level``."""
        return self.total_cycles / level.f_mhz

    def session_power_factor(self) -> float:
        """Cycle-weighted mean power factor of the suite."""
        return (
            lsum(r.cycles * r.power_factor for r in self.routines)
            / self.total_cycles
        )

    def session_coverage(self) -> float:
        """Probability the suite exposes a manifesting fault.

        Routines target disjoint units, so the session misses a fault only
        if every routine misses it: ``1 - Π(1 - coverage_i)``.
        """
        miss = 1.0
        for routine in self.routines:
            miss *= 1.0 - routine.coverage
        return 1.0 - miss

    def detection_profile(self) -> List[float]:
        """Cumulative detection probability after each routine, in order.

        Element ``k`` is the probability the first ``k+1`` routines expose
        a manifesting fault — a CDF over suite progress, so the list is
        monotone non-decreasing and ends at :meth:`session_coverage`.
        """
        profile: List[float] = []
        miss = 1.0
        for routine in self.routines:
            miss *= 1.0 - routine.coverage
            profile.append(1.0 - miss)
        return profile

    def scaled_for(self, ctype: CoreType) -> "SBSTLibrary":
        """This suite adapted to one core type.

        Routine lengths scale by ``sbst_cycles_scale`` (longer patterns
        for wider pipelines) and coverages by ``detection_scale``.  For a
        type with both scales at 1.0 — notably ``std`` — returns ``self``,
        so degenerate configs share the exact library object (and floats)
        the homogeneous engine used.
        """
        if ctype.sbst_cycles_scale == 1.0 and ctype.detection_scale == 1.0:
            return self
        try:
            return self._typed[ctype.name]
        except KeyError:
            scaled = SBSTLibrary(
                [
                    SBSTRoutine(
                        name=r.name,
                        cycles=r.cycles * ctype.sbst_cycles_scale,
                        power_factor=r.power_factor,
                        coverage=r.coverage * ctype.detection_scale,
                    )
                    for r in self.routines
                ]
            )
            self._typed[ctype.name] = scaled
            return scaled

    def session_power(
        self,
        model: TechnologyModel,
        node: TechnologyNode,
        ctype: CoreType,
        level: VFLevel,
    ) -> float:
        """Estimated power (W) of a core running the suite at ``level``.

        The core is a ``ctype`` tile under the technology ``model``.
        """
        return model.dynamic_power(
            node, ctype, level.vdd, level.f_mhz, self.session_power_factor()
        ) + model.leakage_power(node, ctype, level.vdd)


def default_library(scale: float = 1.0) -> SBSTLibrary:
    """The default per-core test suite (≈120k cycles at scale=1).

    Roughly 35 µs at a 3.5 GHz nominal level — long enough that tests
    visibly consume budget, short enough to fit typical idle periods, in
    line with published SBST program lengths for small embedded cores.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    return SBSTLibrary(
        [
            SBSTRoutine("alu-march", cycles=30_000 * scale, power_factor=1.20, coverage=0.70),
            SBSTRoutine("regfile-walk", cycles=20_000 * scale, power_factor=1.05, coverage=0.55),
            SBSTRoutine("pipeline-hazard", cycles=25_000 * scale, power_factor=1.15, coverage=0.60),
            SBSTRoutine("cache-march", cycles=30_000 * scale, power_factor=0.95, coverage=0.65),
            SBSTRoutine("branch-predictor", cycles=15_000 * scale, power_factor=1.10, coverage=0.45),
        ]
    )
