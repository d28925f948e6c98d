"""Execution engine: runs mapped applications on the chip.

Responsibilities:

* admit a mapped application (claim its cores, start its root tasks);
* execute tasks at the core's current DVFS level, re-timing the in-flight
  task whenever the power manager changes the level (the engine is the
  power manager's *level actuator*);
* move task outputs over the NoC (latency + transfer power) and release
  dependent tasks when their inputs have arrived;
* maintain per-core busy accounting and aging stress;
* free cores (for other applications *and for the test scheduler* — idle
  periods are where tests live) and detect application completion.

Task-to-core mapping is 1:1 (each task owns one core for the lifetime of
the application region, the model used by the group's CoNA/SHiC mapping
papers); a core becomes reclaimable as soon as its task has finished and
its outgoing transfers have drained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.aging.model import AgingModel
from repro.noc.model import NocModel
from repro.platform.chip import Chip
from repro.platform.core import Core, CoreState
from repro.platform.dvfs import VFLevel
from repro.power.meter import PowerMeter
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.workload.application import ApplicationInstance


@dataclass(slots=True)
class TaskExecution:
    """Bookkeeping of one in-flight task."""

    app: ApplicationInstance
    task_id: int
    activity: float
    core: Core
    started_at: float
    last_update: float
    ops_remaining: float
    finish_event: Event
    #: End of the current DVFS-transition stall (no progress before this).
    stall_until: float = 0.0


class ExecutionEngine:
    """Executes applications; actuates DVFS changes on running tasks."""

    def __init__(
        self,
        sim: Simulator,
        chip: Chip,
        noc: NocModel,
        meter: PowerMeter,
        aging: Optional[AgingModel] = None,
        dvfs_transition_us: float = 0.0,
    ) -> None:
        if dvfs_transition_us < 0:
            raise ValueError("dvfs_transition_us must be non-negative")
        self.sim = sim
        self.chip = chip
        self.noc = noc
        self.meter = meter
        self.aging = aging
        #: Stall per V/f switch on a busy core: the PLL/regulator settling
        #: time during which the task makes no progress.  Real platforms
        #: pay tens of microseconds; 0 models instantaneous switching.
        self.dvfs_transition_us = dvfs_transition_us
        self.dvfs_transitions = 0
        self._running: Dict[int, TaskExecution] = {}   # core_id -> execution
        self._apps: Dict[int, ApplicationInstance] = {}
        self._pending_out: Dict[int, int] = {}          # core_id -> in-flight out edges
        #: Chooses the DVFS level a new task starts at (bound to the power
        #: manager's budget-aware policy by the system).
        self.start_level_provider: Callable[[Core, float], VFLevel] = (
            lambda core, activity: self.chip.vf_table.max_level
        )
        #: Hooks: on_task_finished(app, task_id, now); on_app_finished(app,
        #: now); on_cores_freed(now) fires when cores become allocatable
        #: again.
        self.on_task_finished: List[
            Callable[[ApplicationInstance, int, float], None]
        ] = []
        self.on_app_finished: List[Callable[[ApplicationInstance, float], None]] = []
        self.on_cores_freed: List[Callable[[float], None]] = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def running_tasks(self) -> int:
        return len(self._running)

    def active_apps(self) -> int:
        return len(self._apps)

    def execution_on(self, core: Core) -> Optional[TaskExecution]:
        return self._running.get(core.core_id)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, app: ApplicationInstance, placement: Dict[int, int]) -> None:
        """Claim cores per ``placement`` and start the application."""
        if set(placement) != set(range(app.graph.n_tasks)):
            raise ValueError("placement must cover exactly the app's tasks")
        core_ids = list(placement.values())
        if len(set(core_ids)) != len(core_ids):
            raise ValueError("placement maps two tasks to one core")
        now = self.sim.now
        for core_id in core_ids:
            core = self.chip.core(core_id)
            if not (core.is_idle() and core.owner_app is None):
                raise ValueError(
                    f"core {core_id} not allocatable (state={core.state},"
                    f" owner={core.owner_app})"
                )
            core.owner_app = app.app_id
        app.placement = dict(placement)
        app.start_time = now
        self._apps[app.app_id] = app
        for task_id in app.structure.roots:
            self._start_task(app, task_id)

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def _start_task(self, app: ApplicationInstance, task_id: int) -> None:
        core = self.chip.cores[app.placement[task_id]]
        if not core.is_idle():
            raise RuntimeError(
                f"core {core.core_id} expected idle for task start, "
                f"got {core.state}"
            )
        structure = app.structure
        activity = structure.activity[task_id]
        ops = structure.ops[task_id]
        now = self.sim.now
        level = self.start_level_provider(core, activity)
        core.state = CoreState.BUSY
        core.level = level
        core.busy_since = now
        self.meter.set_core_activity(core, activity)
        duration = ops / core.speed_at(level)
        core.busy_until = now + duration
        event = self.sim.schedule(duration, self._finish_task, core.core_id)
        self._running[core.core_id] = TaskExecution(
            app=app,
            task_id=task_id,
            activity=activity,
            core=core,
            started_at=now,
            last_update=now,
            ops_remaining=ops,
            finish_event=event,
        )

    def change_level(self, core: Core, new_level: VFLevel) -> None:
        """Power-manager actuator: re-time the in-flight task on ``core``."""
        execution = self._running.get(core.core_id)
        if execution is None:
            raise ValueError(f"core {core.core_id} runs no task")
        if new_level.index == core.level.index:
            return
        now = self.sim.now
        elapsed = now - execution.last_update
        # No ops retire during a transition stall; progress only counts
        # from the later of the last update and the stall's end.
        productive = max(0.0, now - max(execution.last_update, execution.stall_until))
        done = productive * core.speed_at()
        if self.aging is not None and elapsed > 0:
            self.aging.accrue_busy(core, elapsed, core.level, execution.activity)
        execution.ops_remaining = max(0.0, execution.ops_remaining - done)
        execution.last_update = now
        execution.finish_event.cancel()
        core.level = new_level
        self.dvfs_transitions += 1
        execution.stall_until = now + self.dvfs_transition_us
        remaining_us = (
            self.dvfs_transition_us
            + execution.ops_remaining / core.speed_at(new_level)
        )
        core.busy_until = now + remaining_us
        execution.finish_event = self.sim.schedule(
            remaining_us, self._finish_task, core.core_id
        )

    def _finish_task(self, core_id: int) -> None:
        execution = self._running.pop(core_id, None)
        if execution is None:
            return
        core = execution.core
        app = execution.app
        task_id = execution.task_id
        now = self.sim.now
        elapsed = now - execution.last_update
        if self.aging is not None and elapsed > 0:
            self.aging.accrue_busy(core, elapsed, core.level, execution.activity)
        core.busy_window.add(execution.started_at, now)
        # The meter's transition listener drops the task's activity.
        core.state = CoreState.IDLE
        core.busy_until = 0.0
        app.mark_task_done(task_id)
        for hook in self.on_task_finished:
            hook(app, task_id, now)

        out_edges = app.structure.successors[task_id]
        if out_edges:
            self._pending_out[core_id] = len(out_edges)
            for edge in out_edges:
                self._start_transfer(app, edge)
        else:
            self._release_core(core)
        self._check_app_done(app)

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def _start_transfer(self, app: ApplicationInstance, edge: int) -> None:
        structure = app.structure
        placement = app.placement
        cores = self.chip.cores
        flits = structure.volume[edge]
        latency_us, energy_uj, _, route = self.noc.admit(
            cores[placement[structure.src[edge]]].position,
            cores[placement[structure.dst[edge]]].position,
            flits,
            self.sim.now,
        )
        if latency_us <= 0:
            self.noc.release(route, flits)
            self._finish_transfer(app, edge)
            return
        power_w = energy_uj / latency_us
        self.meter.add_noc_power(power_w)
        self.sim.schedule(
            latency_us, self._complete_transfer, app, edge, power_w, route
        )

    def _complete_transfer(
        self, app: ApplicationInstance, edge: int, power_w: float, route: Sequence[int]
    ) -> None:
        self.meter.remove_noc_power(power_w)
        self.noc.release(route, app.structure.volume[edge])
        self._finish_transfer(app, edge)

    def _finish_transfer(self, app: ApplicationInstance, edge: int) -> None:
        structure = app.structure
        src = structure.src[edge]
        dst = structure.dst[edge]
        app.transferred_edges.add((src, dst))
        src_core = self.chip.cores[app.placement[src]]
        pending = self._pending_out.get(src_core.core_id, 0) - 1
        if pending <= 0:
            self._pending_out.pop(src_core.core_id, None)
            self._release_core(src_core)
        else:
            self._pending_out[src_core.core_id] = pending
        # Start the consumer if all of its inputs have now arrived.
        if (
            dst not in app.completed_tasks
            and app.placement[dst] not in self._running
            and app.task_ready(dst)
        ):
            self._start_task(app, dst)
        self._check_app_done(app)

    # ------------------------------------------------------------------
    # Completion / release
    # ------------------------------------------------------------------
    def _release_core(self, core: Core) -> None:
        if core.owner_app is None:
            return
        core.owner_app = None
        now = self.sim.now
        for hook in self.on_cores_freed:
            hook(now)

    def _check_app_done(self, app: ApplicationInstance) -> None:
        graph = app.graph
        if len(app.completed_tasks) != graph.n_tasks:
            return
        if len(app.transferred_edges) < graph.n_edges:
            return
        if app.app_id not in self._apps:
            return
        del self._apps[app.app_id]
        app.finish_time = self.sim.now
        # Free any cores still held (sinks and stragglers).
        for core_id in app.placement.values():
            core = self.chip.core(core_id)
            if core.owner_app == app.app_id:
                self._release_core(core)
        for hook in self.on_app_finished:
            hook(app, self.sim.now)
