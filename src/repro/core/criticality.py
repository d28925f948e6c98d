"""Test-criticality metric (the paper's core selection heuristic).

The scheduler must decide *which* idle cores deserve the scarce power
budget.  The paper derives a per-core **test criticality** from the aging
model: a core becomes more urgent to test the more wear-out stress it has
accumulated since its last test, with a secondary time term so that even a
mostly-idle core is eventually re-screened (faults are not exclusively
stress-induced).

``criticality(core, now) = w_s · stress_since_test / S_ref
                         + w_t · (now − last_test_end) / T_ref``

A core is *due* when its criticality crosses ``threshold``; candidates are
served most-critical-first.  ``S_ref`` / ``T_ref`` normalise the two terms:
with default aging parameters a core that has been ~100% busy at nominal
V/F for ``T_ref`` µs scores ≈ ``w_s + w_t`` (well past threshold), while a
core idle since its last test needs ``T_ref / w_t`` µs to become due —
i.e. stressed cores are re-tested several times more often than cold ones,
which is the adaptivity experiment E4 measures.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.config_io import CriticalityParameters
from repro.platform.core import Core


class TestCriticality:
    """Evaluates and ranks per-core test criticality."""

    def __init__(self, params: CriticalityParameters = CriticalityParameters()) -> None:
        self.params = params

    def value(self, core: Core, now: float) -> float:
        """Criticality of ``core`` at time ``now`` (0 right after a test)."""
        p = self.params
        stress_term = core.stress_since_test / p.stress_reference
        elapsed = max(0.0, now - core.last_test_end)
        time_term = elapsed / p.time_reference_us
        return p.stress_weight * stress_term + p.time_weight * time_term

    def is_due(self, core: Core, now: float) -> bool:
        return self.value(core, now) >= self.params.threshold

    def rank(self, cores: Iterable[Core], now: float) -> List[Core]:
        """Cores sorted most-critical-first (core id as the tie-break)."""
        return sorted(
            cores, key=lambda c: (-self.value(c, now), c.core_id)
        )
