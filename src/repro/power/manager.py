"""Power-management policies (fine-grained PID vs. naive TDP baseline).

A power manager runs once per control epoch.  It reads the meter, decides
new DVFS levels for *busy* cores and applies them through a level actuator
callback supplied by the execution engine (which re-times in-flight tasks
when their core's speed changes).  Cores running SBST tests are left alone:
their level and power were budgeted by the test scheduler when the test was
admitted, and the scheduler aborts tests on emergency (see
:class:`repro.core.scheduler.PowerAwareTestScheduler`).

Two policies are provided:

* :class:`PIDPowerManager` — the ICCD'14 substrate: a PID controller tracks
  the TDP set-point and per-core DVFS steps close the gap; the fastest
  reaction is per-core and one ladder step per epoch, which is fine-grained
  enough to hug the budget without oscillation.
* :class:`NaiveTDPManager` — the baseline the ICCD'14 abstract compares
  against: one global V/F level for the whole chip, dropped a step when the
  cap is exceeded and raised a step only when power falls far below the
  cap.  It over-throttles, which is exactly the throughput gap E9 measures.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.journal import NULL_JOURNAL
from repro.platform.chip import Chip
from repro.platform.core import Core, CoreState
from repro.platform.dvfs import VFLevel
from repro.power.budget import PowerBudget
from repro.power.meter import PowerMeter
from repro.power.pid import PIDController, PIDGains

#: Applies a new DVFS level to a busy core (re-timing its task).
LevelActuator = Callable[[Core, VFLevel], None]


class PowerManager:
    """Base class: owns chip, meter, budget and the actuation callback."""

    name = "base"

    def __init__(
        self,
        chip: Chip,
        meter: PowerMeter,
        budget: PowerBudget,
        actuator: Optional[LevelActuator] = None,
    ) -> None:
        self.chip = chip
        self.meter = meter
        self.budget = budget
        self._actuator = actuator
        self.level_changes = 0
        #: Observability sink (no-op by default; installed by the system).
        self.journal = NULL_JOURNAL
        #: Simulation time of the current tick; kept for journal emission
        #: from :meth:`_apply`, which has no ``now`` in scope.
        self._tick_now = 0.0
        #: Real-time rank of the work on a core (0 = hard-rt, 2 =
        #: best-effort; see repro.workload.generator.RT_CLASSES).  Bound
        #: by the system when mixed-criticality priorities are enabled;
        #: the default treats everything as best-effort.
        self.rt_rank: Callable[[Core], int] = lambda core: 2

    def bind_actuator(self, actuator: LevelActuator) -> None:
        self._actuator = actuator

    def _apply(self, core: Core, level: VFLevel) -> None:
        if level.index == core.level.index:
            return
        if self._actuator is None:
            raise RuntimeError(f"{self.name}: no level actuator bound")
        if self.journal.enabled:
            self.journal.emit(
                "dvfs.change",
                self._tick_now,
                core=core.core_id,
                from_level=core.level.index,
                to_level=level.index,
            )
        self._actuator(core, level)
        self.level_changes += 1

    def tick(self, now: float, dt: float) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def preferred_start_level(self) -> VFLevel:
        """Level a newly started task should begin at (policy-specific)."""
        return self.chip.vf_table.max_level

    def start_level_for(self, core: Core, activity: float) -> VFLevel:
        """Level to start a specific task at, given the current headroom.

        The base behaviour ignores power (ablation policies); budget-aware
        managers override it.
        """
        return self.preferred_start_level()

    def spare_core_slots(self) -> Optional[int]:
        """How many more cores may be activated, or ``None`` (no limit).

        Only admission-limiting policies (worst-case TDP scheduling)
        constrain this; DVFS-based policies fit any number of active cores
        under the budget by scaling V/F instead.
        """
        return None

    def explain(self, now: float) -> Dict[str, object]:
        """Read-only decision audit: the policy's view of the chip now.

        Subclasses extend this with their controller state; nothing here
        may mutate the manager or the chip.
        """
        measured = self.meter.chip_power()
        return {
            "time": now,
            "policy": self.name,
            "measured_w": measured,
            "cap_w": self.budget.cap,
            "guarded_cap_w": self.budget.guarded_cap,
            "headroom_w": self.budget.headroom(measured),
            "level_changes": self.level_changes,
            "core_levels": {
                core.core_id: core.level.index for core in self.chip.busy_cores()
            },
        }


class NoOpPowerManager(PowerManager):
    """Runs everything at nominal; never reacts to the budget (ablation)."""

    name = "none"

    def tick(self, now: float, dt: float) -> None:
        return


class NaiveTDPManager(PowerManager):
    """Chip-global DVFS stepped on threshold crossings (baseline)."""

    name = "naive"

    def __init__(
        self,
        chip: Chip,
        meter: PowerMeter,
        budget: PowerBudget,
        actuator: Optional[LevelActuator] = None,
        relax_fraction: float = 0.7,
    ) -> None:
        super().__init__(chip, meter, budget, actuator)
        if not 0.0 < relax_fraction < 1.0:
            raise ValueError("relax_fraction must be in (0, 1)")
        self.relax_fraction = relax_fraction
        self._global_level = chip.vf_table.max_level

    def preferred_start_level(self) -> VFLevel:
        return self._global_level

    def tick(self, now: float, dt: float) -> None:
        self._tick_now = now
        measured = self.meter.chip_power()
        table = self.chip.vf_table
        if measured > self.budget.guarded_cap:
            self._global_level = table.step(self._global_level, -1)
        elif measured < self.relax_fraction * self.budget.guarded_cap:
            self._global_level = table.step(self._global_level, +1)
        for core in self.chip.busy_cores():
            self._apply(core, self._global_level)


class WorstCaseTDPManager(PowerManager):
    """The "naive TDP scheduling policy" of the ICCD'14 comparison.

    Worst-case provisioning: every active core runs at nominal V/F, and the
    budget is honoured by *admission* — at most ``floor(TDP / peak core
    power)`` cores may be active simultaneously (the static dark-silicon
    lit count).  No DVFS ever happens, so the abundant low-voltage
    throughput that the PID policy unlocks is left on the table; the gap
    is what experiment E9 measures.
    """

    name = "worst-case"

    def max_active_cores(self) -> int:
        # Worst-case means worst-case: on a heterogeneous chip the
        # admission count provisions for the hungriest tile type.  On a
        # homogeneous-std chip this is the node's peak, bit for bit.
        chip = self.chip
        model = chip.tech_model
        peak = max(
            model.peak_core_power(chip.node, ctype)
            for ctype in chip.core_types
        )
        return max(1, int(self.budget.guarded_cap / peak))

    def spare_core_slots(self) -> Optional[int]:
        chip = self.chip
        active = len(chip.state_ids(CoreState.BUSY)) + len(
            chip.state_ids(CoreState.TESTING)
        )
        return max(0, self.max_active_cores() - active)

    def tick(self, now: float, dt: float) -> None:
        return


class PIDPowerManager(PowerManager):
    """Per-core fine-grained DVFS guided by a PID on chip power (ICCD'14)."""

    name = "pid"

    def __init__(
        self,
        chip: Chip,
        meter: PowerMeter,
        budget: PowerBudget,
        actuator: Optional[LevelActuator] = None,
        gains: PIDGains = PIDGains(),
        utilization_window_us: float = 1000.0,
    ) -> None:
        super().__init__(chip, meter, budget, actuator)
        self.controller = PIDController(budget.guarded_cap, gains)
        self.utilization_window_us = utilization_window_us
        #: The chip's ladder, slow to fast, indexed without a method call.
        self._levels: Tuple[VFLevel, ...] = tuple(chip.vf_table)
        # ``start_level_for`` may bisect the ladder instead of scanning it
        # iff busy power is nondecreasing level to level *in the model's
        # floats*.  Checking at activity 1.0 suffices: multiplying a sorted
        # pair by the same non-negative activity (or leak factor) and
        # adding componentwise sorted terms preserves order under IEEE
        # rounding, so sortedness here implies it for every task.
        node = chip.node
        model = chip.tech_model
        # Every type present on the chip must have a sorted ladder for the
        # bisection to be valid on any core the actuator may touch.
        self._ladder_sorted = True
        for ctype in chip.core_types:
            dyn = [
                model.dynamic_power(node, ctype, lvl.vdd, lvl.f_mhz, 1.0)
                for lvl in chip.vf_table
            ]
            leak = [
                model.leakage_power(node, ctype, lvl.vdd)
                for lvl in chip.vf_table
            ]
            if not all(
                dyn[i] <= dyn[i + 1] and leak[i] <= leak[i + 1]
                for i in range(len(dyn) - 1)
            ):
                self._ladder_sorted = False
                break

    def preferred_start_level(self) -> VFLevel:
        """Start new tasks one step below nominal; the PID lifts them."""
        return self.chip.vf_table.step(self.chip.vf_table.max_level, -1)

    def current_cap(self) -> float:
        """The power target ceiling this epoch (static guarded TDP here)."""
        return self.budget.guarded_cap

    def explain(self, now: float) -> Dict[str, object]:
        report = super().explain(now)
        report.update(
            cap_w=self.current_cap(),
            set_point_w=self.controller.set_point,
            integral=self.controller.integral,
            last_error_w=self.controller.last_error,
        )
        return report

    def start_level_for(self, core: Core, activity: float) -> VFLevel:
        """Fastest level whose added power fits the current headroom.

        Falls back to near-threshold when nothing fits: in the dark-silicon
        regime work is admitted at the lowest operating point rather than
        refused, and the PID lifts it as headroom appears.
        """
        meter = self.meter
        headroom = self.current_cap() - meter.chip_power()
        levels = self._levels
        # Inlined ``meter.added_power_if_busy`` with the loop-invariant
        # current core power hoisted; the float expression per level is
        # ``(dyn + leak·lf) - base``, identical to the meter's, and the
        # leakage comes from the meter's table of the model's values.
        base = meter.core_power(core)
        node = self.chip.node
        dynamic_power = self.chip.tech_model.dynamic_power
        ctype = core.core_type
        leak = meter.leak_table[core.type_index]
        lf = core.leak_factor
        bisect = self._ladder_sorted
        # Probe the top (unconstrained chips), then the floor (saturated
        # ones), then bisect for the highest fitting level: on a sorted
        # ladder the levels that fit are a prefix, so this is the level
        # the top-down scan of an unsorted ladder returns.  Levels above
        # ``hi`` do not fit; ``lo`` fits (-1: none seen yet).
        lo = -1
        hi = index = len(levels) - 1
        while True:
            level = levels[index]
            busy = (
                dynamic_power(node, ctype, level.vdd, level.f_mhz, activity)
                + leak[index] * lf
            )
            if busy - base <= headroom:
                if not bisect:
                    return level
                lo = index
            else:
                hi = index - 1
            if hi < 0:
                return levels[0]
            if lo == hi:
                return levels[lo]
            if not bisect:
                index = hi
            elif lo < 0:
                index = 0
            else:
                index = (lo + hi + 1) // 2

    def tick(self, now: float, dt: float) -> None:
        self._tick_now = now
        measured = self.meter.chip_power()
        self.controller.set_point = self.current_cap()
        signal = self.controller.update(measured, dt)
        # Power we may spend next epoch: measured + signal, never above the
        # cap (anti-windup on the actuation side).
        target = min(self.current_cap(), measured + signal)
        if self.journal.enabled:
            self.journal.emit(
                "pid.step",
                now,
                measured_w=measured,
                set_point_w=self.controller.set_point,
                error_w=self.controller.last_error,
                integral=self.controller.integral,
                signal_w=signal,
                target_w=target,
            )
        self._actuate(now, measured, target)

    # ------------------------------------------------------------------
    def _actuate(self, now: float, measured: float, target: float) -> None:
        busy = self.chip.busy_cores()
        if not busy:
            return
        predicted = measured
        table = self.chip.vf_table
        # Cores pinned at the ladder's end contribute nothing to either
        # branch, so they are dropped before sorting; ``sorted`` is stable,
        # which keeps the surviving cores in exactly the order the full
        # sort would have visited them — the applied changes are identical.
        if predicted > target:
            # Slow down: lowest-criticality, biggest consumers first, one
            # ladder step per core per epoch until the prediction fits —
            # hard real-time work is throttled only after best-effort work
            # has given everything it can (the ICCD'14 priority model).
            candidates = [c for c in busy if c.level.index != 0]
            if not candidates:
                return
            order = sorted(
                candidates,
                key=lambda c: (-self.rt_rank(c), self.meter.core_power(c)),
                reverse=True,
            )
            for core in order:
                if predicted <= target:
                    break
                new_level = table.step(core.level, -1)
                predicted += self.meter.predicted_delta(core, new_level)
                self._apply(core, new_level)
        else:
            # Speed up: real-time work first, then most-utilized cores, so
            # throughput-critical tiles reclaim headroom before lightly
            # loaded ones.
            top = len(table) - 1
            candidates = [c for c in busy if c.level.index < top]
            if not candidates:
                return
            order = sorted(
                candidates,
                key=lambda c: (
                    self.rt_rank(c),
                    -c.utilization(now, self.utilization_window_us),
                ),
            )
            for core in order:
                new_level = table.step(core.level, +1)
                delta = self.meter.predicted_delta(core, new_level)
                if predicted + delta > target:
                    continue
                predicted += delta
                self._apply(core, new_level)


class TSPPowerManager(PIDPowerManager):
    """Thermal-Safe-Power budgeting (Pagani et al.; dark-silicon refinement).

    TDP is a single worst-case number; TSP recognises that the *safe*
    chip-level power depends on how many cores are active — a sparsely
    lit chip spreads heat into dark neighbours and may spend more per
    core.  Each epoch the manager recomputes its cap as

    ``min(guarded TDP, active_cores · TSP(active_cores))``

    and runs the same PID + per-core-DVFS actuation against it.  With few
    active cores the thermal term dominates (more aggressive boosting is
    allowed only if the TDP permits); near full occupation the cap drops
    towards the dense-packing thermal limit.
    """

    name = "tsp"

    def __init__(
        self,
        chip: Chip,
        meter: PowerMeter,
        budget: PowerBudget,
        actuator: Optional[LevelActuator] = None,
        gains: PIDGains = PIDGains(),
        utilization_window_us: float = 1000.0,
        thermal_params: Optional["ThermalParameters"] = None,
    ) -> None:
        super().__init__(
            chip, meter, budget, actuator, gains, utilization_window_us
        )
        from repro.platform.thermal import ThermalParameters

        self.thermal_params = (
            thermal_params if thermal_params is not None else ThermalParameters()
        )

    def current_cap(self) -> float:
        from repro.platform.thermal import thermal_safe_power

        chip = self.chip
        active = len(chip.state_ids(CoreState.BUSY)) + len(
            chip.state_ids(CoreState.TESTING)
        )
        if active == 0:
            return self.budget.guarded_cap
        per_core = thermal_safe_power(chip, self.thermal_params, active)
        return min(self.budget.guarded_cap, per_core * active)


def make_power_manager(
    policy: str,
    chip: Chip,
    meter: PowerMeter,
    budget: PowerBudget,
) -> PowerManager:
    """Factory used by configs: pid | tsp | naive | worst-case | none."""
    policies = {
        "pid": PIDPowerManager,
        "tsp": TSPPowerManager,
        "naive": NaiveTDPManager,
        "worst-case": WorstCaseTDPManager,
        "none": NoOpPowerManager,
    }
    try:
        cls = policies[policy]
    except KeyError:
        raise ValueError(
            f"unknown power policy {policy!r}; known: {sorted(policies)}"
        ) from None
    return cls(chip, meter, budget)
