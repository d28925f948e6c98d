"""Discrete DVFS operating points, including near-threshold levels.

The ICCD'14 power-management substrate (and hence the DATE'15 scheduler)
relies on *fine-grained* DVFS: a ladder of voltage/frequency pairs reaching
down to near-threshold operation.  :func:`build_vf_table` generates such a
ladder for a technology node by sweeping voltage from ``vdd_min`` (the
near-threshold point) to ``vdd_nominal`` and deriving each level's maximum
frequency from the node's alpha-power law.

Level 0 is always the *slowest* (near-threshold) point; the last level is
nominal.  Index arithmetic (``level + 1`` is faster) is used by the PID
actuator when it raises or lowers core speeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.platform.technology import TechnologyNode


@dataclass(frozen=True)
class VFLevel:
    """One DVFS operating point."""

    index: int
    vdd: float
    f_mhz: float

    @property
    def speed(self) -> float:
        """Execution speed in operations per microsecond.

        We lump IPC into the workload's operation counts, so speed is just
        the clock in cycles/µs (1 MHz == 1 cycle/µs).
        """
        return self.f_mhz


class VFTable:
    """An ordered ladder of :class:`VFLevel` (slow → fast)."""

    def __init__(self, levels: Sequence[VFLevel]) -> None:
        if not levels:
            raise ValueError("VF table needs at least one level")
        for i, level in enumerate(levels):
            if level.index != i:
                raise ValueError(f"level {i} has index {level.index}")
        for slow, fast in zip(levels, levels[1:]):
            if not (fast.vdd > slow.vdd and fast.f_mhz > slow.f_mhz):
                raise ValueError("levels must be strictly increasing in V and f")
        self._levels: List[VFLevel] = list(levels)

    def __len__(self) -> int:
        return len(self._levels)

    def __iter__(self):
        return iter(self._levels)

    def __getitem__(self, index: int) -> VFLevel:
        return self._levels[index]

    @property
    def min_level(self) -> VFLevel:
        return self._levels[0]

    @property
    def max_level(self) -> VFLevel:
        return self._levels[-1]

    def clamp(self, index: int) -> VFLevel:
        """Level at ``index`` clamped into the valid range."""
        return self._levels[max(0, min(index, len(self._levels) - 1))]

    def step(self, level: VFLevel, delta: int) -> VFLevel:
        """Level ``delta`` steps away from ``level`` (clamped)."""
        return self.clamp(level.index + delta)

    def fastest_not_exceeding(self, f_mhz: float) -> VFLevel:
        """Fastest level whose frequency does not exceed ``f_mhz``.

        Falls back to the near-threshold level when even it is too fast —
        the physical floor of fine-grained DVFS.
        """
        candidate = self._levels[0]
        for level in self._levels:
            if level.f_mhz <= f_mhz:
                candidate = level
        return candidate


def build_vf_table(node: TechnologyNode, n_levels: int = 8) -> VFTable:
    """Build a DVFS ladder for ``node`` with ``n_levels`` points.

    Voltages are spaced uniformly in ``[vdd_min, vdd_nominal]``; frequencies
    follow the node's alpha-power law, so the ladder automatically includes
    a genuine near-threshold point at index 0.
    """
    if n_levels < 2:
        raise ValueError("need at least two DVFS levels")
    levels = []
    span = node.vdd_nominal - node.vdd_min
    for i in range(n_levels):
        vdd = node.vdd_min + span * i / (n_levels - 1)
        levels.append(VFLevel(index=i, vdd=vdd, f_mhz=node.frequency_at(vdd)))
    return VFTable(levels)
