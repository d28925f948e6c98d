"""Lumped RC thermal model of the chip.

TDP is a proxy for a thermal limit; the dark-silicon literature that this
paper sits in (and the authors' follow-up work on Thermal Safe Power)
makes the temperature dynamics explicit.  We model each core as a thermal
RC node:

``C · dT/dt = P − (T − T_amb)/R_self − Σ_neighbours (T − T_n)/R_lateral``

integrated with forward Euler once per control epoch (the epoch, 100 µs,
is far below the silicon thermal time constant, so Euler is stable with
the default constants).  The model provides:

* per-core temperatures updated from per-core power;
* a hottest-core query the thermal-aware budget policy uses;
* steady-state helpers for calibration and testing.

It is intentionally lumped (no heat-spreader layer stack): the scheduling
experiments need the *spatial and temporal shape* of heating — hot cores
age faster, dense regions run hotter than spread ones — not
package-accurate absolute temperatures.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from repro.core.config_io import ThermalParameters
from repro.platform.chip import Chip


class ThermalModel:
    """Per-core RC temperature state driven by per-core power."""

    def __init__(
        self, chip: Chip, params: ThermalParameters = ThermalParameters()
    ) -> None:
        self.chip = chip
        self.params = params
        self._temps: List[float] = [params.ambient_c] * len(chip)
        self._neighbors: List[List[int]] = [
            [n.core_id for n in chip.neighbors(core)] for core in chip
        ]
        # Euler stability: the fastest node time constant includes the
        # lateral paths, C / (1/R_self + degree/R_lateral).
        max_degree = max(len(n) for n in self._neighbors) if self._neighbors else 0
        conductance = (
            1.0 / params.r_self_c_per_w + max_degree / params.r_lateral_c_per_w
        )
        self._max_step_us: float = 0.1 * (params.c_j_per_c / conductance) * 1e6
        self.peak_seen_c: float = params.ambient_c

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def temperature(self, core_id: int) -> float:
        return self._temps[core_id]

    def temperatures(self) -> List[float]:
        return list(self._temps)

    def hottest(self) -> float:
        return max(self._temps)

    def hottest_core_id(self) -> int:
        return max(range(len(self._temps)), key=lambda i: self._temps[i])

    def headroom_c(self) -> float:
        """Degrees left before the hottest core hits the junction limit."""
        return self.params.limit_c - self.hottest()

    def over_limit(self) -> bool:
        return self.hottest() > self.params.limit_c

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def step(self, core_powers: Mapping[int, float], dt_us: float) -> None:
        """Advance all temperatures by ``dt_us`` given per-core power (W).

        Missing entries in ``core_powers`` mean zero power (dark cores).
        ``dt_us`` is clipped internally to a fraction of the thermal time
        constant for Euler stability when callers use long epochs.
        """
        if dt_us <= 0:
            raise ValueError("dt must be positive")
        p = self.params
        ambient = p.ambient_c
        r_self = p.r_self_c_per_w
        r_lateral = p.r_lateral_c_per_w
        capacitance = p.c_j_per_c
        neighbors = self._neighbors
        powers = [core_powers.get(i, 0.0) for i in range(len(neighbors))]
        remaining = dt_us
        while remaining > 0:
            dt = min(remaining, self._max_step_us)
            remaining -= dt
            dt_s = dt * 1e-6
            current = self._temps
            nxt = []
            for temp, power, around in zip(current, powers, neighbors):
                flow = power - (temp - ambient) / r_self
                for j in around:
                    flow -= (temp - current[j]) / r_lateral
                nxt.append(temp + flow * dt_s / capacitance)
            self._temps = nxt
        self.peak_seen_c = max(self.peak_seen_c, self.hottest())

    def steady_state_uniform(self, power_per_core_w: float) -> float:
        """Steady temperature if every core dissipated the same power.

        With uniform power no lateral heat flows, so each node settles at
        ``T_amb + P · R_self`` — a closed form used for calibration tests.
        """
        return self.params.ambient_c + power_per_core_w * self.params.r_self_c_per_w

    def reset(self, temperature_c: Optional[float] = None) -> None:
        t = temperature_c if temperature_c is not None else self.params.ambient_c
        self._temps = [t] * len(self.chip)
        self.peak_seen_c = t


def thermal_safe_power(
    chip: Chip, params: ThermalParameters, active_cores: int
) -> float:
    """Thermal Safe Power: per-core power keeping ``active_cores`` at limit.

    The TSP idea (Pagani et al.) refines TDP: the safe per-core power
    depends on *how many* cores are active — few active cores may each
    run hotter.  For the lumped model with the worst case of an isolated
    dense cluster we approximate the steady state with the self path
    only, which is conservative:

    ``P_safe = (T_limit − T_amb) / R_self``

    scaled by a packing factor that grows the allowance when few cores
    are lit (their lateral neighbours are cool and help spread heat).
    """
    if active_cores < 1:
        raise ValueError("need at least one active core")
    n = len(chip)
    base = (params.limit_c - params.ambient_c) / params.r_self_c_per_w
    # Lateral help: a fully-packed chip gets none; a single lit core gets
    # its full neighbour count worth of extra spreading.
    packing = active_cores / n
    lateral_gain = (params.r_self_c_per_w / params.r_lateral_c_per_w) * (
        1.0 - packing
    )
    return base * (1.0 + lateral_gain / 4.0)
