"""Lifetime-reliability analysis (the DATE'16 companion extension).

The authors' follow-up work ("A lifetime-aware runtime mapping approach
for many-core systems in the dark silicon era", DATE 2016, and "Can dark
silicon be exploited to prolong system lifetime?", IEEE D&T 2017) turns
the same aging substrate into a *lifetime* story: runtime mapping that
levels wear across the die postpones the first core failures and extends
the usable life of the chip.

We expose that analysis on top of :mod:`repro.aging.model`'s stress
accounting with the standard Weibull formulation:

* a core that has accumulated ``age_stress`` S has consumed ``S / eta``
  of its life and has reliability ``R = exp(-(S / eta)^beta)``;
* the chip's expected time-to-first-failure follows from extrapolating
  each core's *stress rate* observed during the run: core i fails (in
  expectation) when its stress reaches ``eta · Γ(1 + 1/beta)``, i.e. at
  ``t_i = horizon · eta_eff / S_i`` for the observed linear accrual;
* system lifetime under a "chip dies when k cores died" criterion is the
  k-th smallest ``t_i``.

Because expected life is driven by the *maximum* per-core stress rate, a
mapper that levels wear (the utilization-oriented mapper's explicit goal)
lengthens lifetime even when total work is identical — the experiment
``E10`` quantifies exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro._sum import lsum
from repro.platform.chip import Chip


@dataclass(frozen=True)
class LifetimeParameters:
    """Weibull wear-out law coefficients (stress-domain)."""

    #: Characteristic life in stress units. With the default aging rate
    #: (1e-3 stress/µs busy at nominal) a core that is ~30% utilized
    #: consumes ~1e-4 stress/µs, so eta = 2e9 puts the characteristic
    #: life at the months-to-years scale real silicon wears out on.
    eta_stress: float = 2e9
    beta: float = 2.0            # Weibull shape (>1: wear-out dominated)
    failure_core_count: int = 1  # cores that must fail to kill the chip

    def __post_init__(self) -> None:
        if self.eta_stress <= 0:
            raise ValueError("eta_stress must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.failure_core_count < 1:
            raise ValueError("failure_core_count must be >= 1")

    @property
    def mean_life_stress(self) -> float:
        """Mean stress-to-failure: ``eta · Γ(1 + 1/beta)``."""
        return self.eta_stress * math.gamma(1.0 + 1.0 / self.beta)


@dataclass(frozen=True)
class LifetimeReport:
    """Result of analysing one finished run."""

    horizon_us: float
    min_reliability: float
    mean_reliability: float
    stress_mean: float
    stress_max: float
    wear_imbalance: float          # max/mean stress (1.0 = perfectly level)
    expected_lifetime_us: float    # k-th core's extrapolated failure time

    @property
    def expected_lifetime_hours(self) -> float:
        return self.expected_lifetime_us / 3.6e9


class LifetimeAnalyzer:
    """Computes reliability metrics from per-core accumulated stress."""

    def __init__(self, params: LifetimeParameters = LifetimeParameters()) -> None:
        self.params = params

    # ------------------------------------------------------------------
    # Per-core formulas
    # ------------------------------------------------------------------
    def reliability(self, age_stress: float) -> float:
        """Weibull survival probability for a core at ``age_stress``."""
        if age_stress < 0:
            raise ValueError("stress must be non-negative")
        return math.exp(-((age_stress / self.params.eta_stress) ** self.params.beta))

    def expected_failure_time_us(self, age_stress: float, horizon_us: float) -> float:
        """Extrapolated failure time assuming the observed stress rate holds."""
        if horizon_us <= 0:
            raise ValueError("horizon must be positive")
        if age_stress <= 0:
            return math.inf
        rate = age_stress / horizon_us
        return self.params.mean_life_stress / rate

    # ------------------------------------------------------------------
    # Chip-level analysis
    # ------------------------------------------------------------------
    def analyze(self, per_core_stress: Dict[int, float], horizon_us: float) -> LifetimeReport:
        if not per_core_stress:
            raise ValueError("need at least one core")
        stresses = [max(0.0, s) for s in per_core_stress.values()]
        reliabilities = [self.reliability(s) for s in stresses]
        mean_stress = lsum(stresses) / len(stresses)
        max_stress = max(stresses)
        failure_times = sorted(
            self.expected_failure_time_us(s, horizon_us) for s in stresses
        )
        k = min(self.params.failure_core_count, len(failure_times))
        return LifetimeReport(
            horizon_us=horizon_us,
            min_reliability=min(reliabilities),
            mean_reliability=lsum(reliabilities) / len(reliabilities),
            stress_mean=mean_stress,
            stress_max=max_stress,
            wear_imbalance=(max_stress / mean_stress) if mean_stress > 0 else 1.0,
            expected_lifetime_us=failure_times[k - 1],
        )

    def analyze_chip(self, chip: Chip, horizon_us: float) -> LifetimeReport:
        """Convenience wrapper reading stress straight off a chip."""
        return self.analyze(
            {core.core_id: core.age_stress for core in chip}, horizon_us
        )

    @staticmethod
    def lifetime_gain_pct(baseline: LifetimeReport, improved: LifetimeReport) -> float:
        """Relative lifetime extension of ``improved`` over ``baseline``."""
        if baseline.expected_lifetime_us <= 0:
            return 0.0
        if math.isinf(baseline.expected_lifetime_us):
            return 0.0
        return 100.0 * (
            improved.expected_lifetime_us / baseline.expected_lifetime_us - 1.0
        )
