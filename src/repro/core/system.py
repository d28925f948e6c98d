"""The integrated power-aware online-testing manycore system.

:class:`ManycoreSystem` wires every substrate together on the DES kernel:

* a mesh :class:`~repro.platform.chip.Chip` at a technology node with TDP;
* the :class:`~repro.core.executor.ExecutionEngine` running task graphs;
* a power manager (PID budgeting by default — the ICCD'14 substrate);
* a runtime mapper (the proposed test-aware mapper or a baseline);
* a test scheduler (the proposed power-aware scheduler or a baseline);
* aging accrual and optional fault injection;
* a metrics collector sampling every control epoch.

The control loop runs every ``epoch_us``: fault injection → power manager →
test scheduler → mapping attempt → metric sampling.  Arrivals and core
releases additionally trigger mapping attempts immediately, so mapping
latency is not quantised to the epoch.

:func:`run_system` (build a :class:`ManycoreSystem`, run it) is the
public entry point used by the examples and every experiment.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Deque, Optional, Tuple

import repro
from repro.aging.faults import FaultInjector, FaultParameters
from repro.aging.model import AgingModel
from repro.core.config_io import SystemConfig
from repro.core.criticality import TestCriticality
from repro.core.executor import ExecutionEngine
from repro.core.mapping import TestAwareUtilizationMapper
from repro.core.scheduler import PowerAwareTestScheduler
from repro.mapping.base import MappingContext, RuntimeMapper
from repro.mapping.baselines import ContiguousMapper, RandomFreeMapper, ScatterMapper
from repro.mapping.mappro import MapProMapper
from repro.metrics.collectors import MetricsCollector, SimulationResult
from repro.noc.model import NocModel, NocParameters
from repro.obs.journal import NULL_JOURNAL, Journal
from repro.obs.provenance import RunManifest, digest_of, field_dict
from repro.noc.queued import QueuedNocModel
from repro.noc.topology import Mesh
from repro.platform.chip import Chip
from repro.platform.core import CoreState
from repro.platform.thermal import ThermalModel
from repro.platform.variation import VariationModel
from repro.power.budget import PowerBudget
from repro.power.manager import PowerManager, make_power_manager
from repro.power.meter import PowerMeter
from repro.sim.engine import Simulator
from repro.sim.events import PRIORITY_CONTROL
from repro.sim.rng import StreamRegistry, make_rng
from repro.testing.runner import TestRunner
from repro.testing.sbst import SBSTLibrary, default_library
from repro.testing.schedulers import (
    NoTestScheduler,
    PowerUnawareTestScheduler,
    RoundRobinTestScheduler,
    TestSchedulerBase,
)
from repro.workload.application import ApplicationInstance
from repro.workload.arrivals import (
    Arrival,
    BurstyArrivalProcess,
    PoissonArrivalProcess,
)
from repro.workload.generator import PROFILE_PRESETS


@functools.lru_cache(maxsize=64)
def arrival_trace(
    bursty: bool,
    arrival_rate_per_ms: float,
    profile_names: Tuple[str, ...],
    profile_weights: Tuple[float, ...],
    seed: int,
    horizon_us: float,
) -> Tuple[Arrival, ...]:
    """The arrival trace of a workload, memoized across systems.

    The trace is a pure function of these six config fields: it draws
    from the ``"workload"`` RNG stream of ``seed``, which nothing else
    consumes, and :class:`Arrival` objects (and the
    :class:`~repro.workload.application.ApplicationGraph` templates they
    carry) are immutable.  So experiment sweeps that replay one seed
    under different policies share one trace, and a tuple keeps the
    shared trace from being mutated.  ``lru_cache`` bounds the memo and
    is safe to call from concurrent threads (``repro serve``).

    Each graph is only its drawn numbers, never mutated; a run derives
    the structure of each graph it maps and drops it with the run
    (:class:`~repro.workload.application.ApplicationInstance`), so an
    app costs the trace about 0.7 KB however many runs admit it.
    """
    cls = BurstyArrivalProcess if bursty else PoissonArrivalProcess
    process = cls(
        arrival_rate_per_ms,
        [PROFILE_PRESETS[name] for name in profile_names],
        list(profile_weights),
        rng=make_rng(seed, "workload"),
    )
    return tuple(process.generate(horizon_us))


class ManycoreSystem:
    """One fully-wired simulation instance."""

    def __init__(
        self,
        config: SystemConfig,
        journal: Optional[Journal] = None,
        verifier=None,
    ) -> None:
        self.config = config
        self.journal = journal if journal is not None else NULL_JOURNAL
        # Runtime invariant checker (repro.verify.InvariantChecker), or
        # None.  Kept duck-typed: repro.core must not import repro.verify
        # (the relation suite imports config/sweep machinery from here).
        self.verifier = verifier
        self.sim = Simulator()
        self.streams = StreamRegistry(config.seed)
        self.chip = Chip.from_config(config)
        self.mesh = Mesh(config.width, config.height)
        if config.noc_mode == "analytic":
            self.noc = NocModel(self.mesh, NocParameters())
        elif config.noc_mode == "queued":
            self.noc = QueuedNocModel(self.mesh, NocParameters())
        else:
            raise ValueError(f"unknown noc_mode {config.noc_mode!r}")
        self.meter = PowerMeter(self.chip)
        self.budget = PowerBudget(config.tdp_w, config.guard_fraction)
        self.aging = AgingModel(self.chip.node, config.aging)
        self.injector = FaultInjector(
            self.chip,
            FaultParameters(
                base_hazard_per_us=config.fault_hazard_per_us,
                stress_scale=config.fault_stress_scale,
            ),
            self.streams.stream("faults"),
        )
        self.library: SBSTLibrary = default_library(config.sbst_scale)
        if config.variation_enabled:
            VariationModel(config.variation, self.streams.stream("variation")).apply(
                self.chip
            )
        self.thermal: Optional[ThermalModel] = (
            ThermalModel(self.chip, config.thermal) if config.thermal_enabled else None
        )
        self.metrics = MetricsCollector(self.budget)
        self.executor = ExecutionEngine(
            self.sim,
            self.chip,
            self.noc,
            self.meter,
            self.aging,
            dvfs_transition_us=config.dvfs_transition_us,
        )
        self.runner = TestRunner(
            self.sim,
            self.chip,
            self.meter,
            self.library,
            self.aging,
            self.injector,
            checkpointing=config.test_checkpointing,
        )
        self.criticality = TestCriticality(config.criticality)
        self.power_manager = self._build_power_manager()
        self.mapper = self._build_mapper()
        self.test_scheduler = self._build_test_scheduler()
        self.queue: Deque[ApplicationInstance] = deque()
        self._app_counter = 0
        # Both inputs (config knob and scheduler class) are fixed for the
        # system's lifetime; _available_cores runs on every core release.
        self._preemption_resolved = self.preemption_policy()
        # Last failed mapping attempt, as (head app, chip.mutations at the
        # time).  Every mapper here fails purely as a function of the
        # availability set, so retrying the same head on an unchanged chip
        # is guaranteed to fail again and is skipped (see _try_map).
        self._map_blocked: Optional[tuple] = None
        self._wire()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_power_manager(self) -> PowerManager:
        manager = make_power_manager(
            self.config.power_policy, self.chip, self.meter, self.budget
        )
        manager.bind_actuator(self.executor.change_level)
        if self.config.rt_priorities:
            manager.rt_rank = self._rt_rank_of_core
        return manager

    def _rt_rank_of_core(self, core) -> int:
        """Priority rank of the work on ``core`` (0 = hard-rt)."""
        from repro.workload.generator import RT_CLASSES

        execution = self.executor.execution_on(core)
        if execution is None:
            return RT_CLASSES["best-effort"]
        return RT_CLASSES.get(execution.app.graph.rt_class, 2)

    def _build_mapper(self) -> RuntimeMapper:
        name = self.config.mapper
        if name == "contiguous":
            return ContiguousMapper()
        if name == "scatter":
            return ScatterMapper()
        if name == "random":
            return RandomFreeMapper(self.streams.stream("mapper"))
        if name == "mappro":
            return MapProMapper()
        if name == "test-aware":
            return TestAwareUtilizationMapper(
                self.criticality,
                utilization_weight=self.config.utilization_weight,
                criticality_weight=self.config.criticality_weight,
                utilization_window_us=self.config.utilization_window_us,
            )
        raise ValueError(f"unknown mapper {name!r}")

    def _build_test_scheduler(self) -> TestSchedulerBase:
        name = self.config.test_policy
        common = dict(
            min_interval_us=self.config.min_test_interval_us,
            level_policy=self.config.test_level_policy,
        )
        if name == "none":
            return NoTestScheduler(self.chip, self.runner, **common)
        if name == "unaware":
            return PowerUnawareTestScheduler(self.chip, self.runner, **common)
        if name == "round-robin":
            return RoundRobinTestScheduler(
                self.chip,
                self.runner,
                max_concurrent=self.config.max_concurrent_tests,
                **common,
            )
        if name == "power-aware":
            return PowerAwareTestScheduler(
                self.chip,
                self.runner,
                self.meter,
                self.budget,
                criticality=self.criticality,
                max_concurrent=self.config.max_concurrent_tests,
                **common,
            )
        raise ValueError(f"unknown test policy {name!r}")

    def _wire(self) -> None:
        self.executor.start_level_provider = self.power_manager.start_level_for
        self.executor.on_task_finished.append(
            lambda app, task_id, now: self.metrics.on_task_finished(
                app.structure.ops[task_id], now
            )
        )
        self.executor.on_app_finished.append(self.metrics.on_app_finished)
        self.executor.on_cores_freed.append(lambda now: self._try_map())
        if self.journal.enabled:
            self.runner.journal = self.journal
            self.test_scheduler.journal = self.journal
            self.power_manager.journal = self.journal
            self.executor.on_app_finished.append(self._journal_app_finish)
            if self.journal.level == "debug":
                # High-rate state churn: only worth the listener call when
                # the journal would actually keep core.transition events.
                self.chip.add_transition_listener(self._journal_core_transition)
        if self.verifier is not None:
            # Last so the meter and journal listeners observe transitions
            # first; the checker is read-only either way.
            self.verifier.attach(self)

    # ------------------------------------------------------------------
    # Journal emission (all read-only: no RNG, no model state, no floats)
    # ------------------------------------------------------------------
    def _journal_app_finish(self, app: ApplicationInstance, now: float) -> None:
        self.journal.emit(
            "app.finish",
            now,
            app=app.app_id,
            turnaround_us=now - app.arrival_time,
            waited_us=(
                app.start_time - app.arrival_time
                if app.start_time is not None
                else None
            ),
        )

    def _journal_core_transition(self, core, old, new) -> None:
        if old is not new:
            self.journal.emit(
                "core.transition",
                self.sim.now,
                core=core.core_id,
                from_state=old.name,
                to_state=new.name,
            )

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------
    def generate_arrivals(self) -> Tuple[Arrival, ...]:
        """Arrival trace for this configuration, shared (read-only) with
        every system whose workload fields and seed match (see
        :func:`arrival_trace`)."""
        config = self.config
        return arrival_trace(
            config.bursty,
            config.arrival_rate_per_ms,
            config.profile_names,
            config.profile_weights,
            config.seed,
            config.horizon_us,
        )

    def _on_arrival(self, arrival: Arrival) -> None:
        self._app_counter += 1
        app = arrival.instantiate(self._app_counter)
        self.metrics.on_app_arrival(app, self.sim.now)
        if self.journal.enabled:
            self.journal.emit(
                "app.arrival",
                self.sim.now,
                app=app.app_id,
                name=app.graph.name,
                n_tasks=app.graph.n_tasks,
                rt_class=app.graph.rt_class,
            )
        self.queue.append(app)
        self._try_map()

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def preemption_policy(self) -> str:
        """Resolved test-preemption policy.

        ``auto`` follows the scheduler: the proposed scheduler's sessions
        are preemptable (non-intrusive testing), the baselines hold their
        core until the session finishes (intrusive, the classic behaviour).
        """
        if self.config.test_preemption != "auto":
            return self.config.test_preemption
        return "abort" if self.test_scheduler.preemptable else "reserve"

    def _available_cores(self):
        available = self.chip.free_cores()
        if self._preemption_resolved == "abort":
            available = available + [
                c for c in self.chip.testing_cores() if c.owner_app is None
            ]
        slots = self.power_manager.spare_core_slots()
        if slots is not None and len(available) > slots:
            # Admission-limited policy (worst-case TDP scheduling): only the
            # first `slots` cores may be woken this mapping round.
            available = available[:slots]
        return available

    def _next_in_queue(self) -> Optional[ApplicationInstance]:
        """Head-of-queue under the active queueing discipline.

        FIFO by default; with ``rt_priorities`` the queue is served in
        real-time-class priority order (arrival time as the tie-break),
        the ICCD'14 mixed-criticality treatment.
        """
        if not self.queue:
            return None
        if not self.config.rt_priorities:
            return self.queue[0]
        from repro.workload.generator import RT_CLASSES

        return min(
            self.queue,
            key=lambda app: (
                RT_CLASSES.get(app.graph.rt_class, 2),
                app.arrival_time,
                app.app_id,
            ),
        )

    def _try_map(self) -> None:
        while self.queue:
            app = self._next_in_queue()
            mutations = self.chip.mutations
            blocked = self._map_blocked
            if (
                blocked is not None
                and blocked[0] is app
                and blocked[1] == mutations
            ):
                # Nothing on the chip changed since this app last failed to
                # map; the attempt would fail identically (mapping failure
                # depends only on core availability, and the failure paths
                # consume no RNG), so skip the rebuild.
                return
            # Every mapper needs one distinct core per task and rejects
            # otherwise, so an exact availability count decides the common
            # saturated case without building the list or the context.
            n_avail = self.chip.n_free_cores()
            if self._preemption_resolved == "abort":
                # Cores under test are never app-owned (the runner refuses
                # to test an owned core), so the whole testing set counts.
                n_avail += len(self.chip.state_ids(CoreState.TESTING))
            slots = self.power_manager.spare_core_slots()
            if slots is not None and n_avail > slots:
                n_avail = slots
            if app.graph.n_tasks > n_avail:
                self._map_blocked = (app, mutations)
                if self.journal.debug:
                    # Debug-level: fires per distinct blockage (the memo
                    # above dedupes retries of the same chip state), which
                    # is still far more often than any decision event.
                    self.journal.emit(
                        "map.blocked",
                        self.sim.now,
                        app=app.app_id,
                        reason="insufficient-cores",
                        n_tasks=app.graph.n_tasks,
                        n_available=n_avail,
                    )
                return
            ctx = MappingContext(
                self.chip, self.mesh, self.sim.now, self._available_cores()
            )
            placement = self.mapper.map_application(app, ctx)
            if placement is None:
                self._map_blocked = (app, mutations)
                if self.journal.debug:
                    self.journal.emit(
                        "map.blocked",
                        self.sim.now,
                        app=app.app_id,
                        reason="mapper-refused",
                        n_tasks=app.graph.n_tasks,
                        n_available=n_avail,
                    )
                return
            for core_id in placement.values():
                core = self.chip.core(core_id)
                if core.is_testing():
                    self.runner.abort(core)
            self.queue.remove(app)
            self.executor.admit(app, placement)
            self.metrics.on_app_admitted(app, self.sim.now)
            if self.journal.enabled:
                self.journal.emit(
                    "app.map",
                    self.sim.now,
                    app=app.app_id,
                    cores=tuple(sorted(placement.values())),
                    waited_us=self.sim.now - app.arrival_time,
                )

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def _control_tick(self) -> None:
        now = self.sim.now
        dt = self.config.epoch_us
        self.injector.tick(now, dt)
        if self.thermal is not None:
            self.thermal.step(dict(enumerate(self.meter.core_powers())), dt)
            self.metrics.trace.record(
                "thermal.max_c", now, self.thermal.hottest()
            )
        self.power_manager.tick(now, dt)
        if (
            self.thermal is None
            or self.thermal.headroom_c() >= self.config.thermal_test_margin_c
        ):
            # Thermal guard: on a chip already near the junction limit, the
            # high-toggle SBST sessions are deferred until it cools.
            self.test_scheduler.tick(now, dt)
        self._try_map()
        breakdown = self.meter.breakdown()
        if self.journal.enabled and self.budget.violated(breakdown.total):
            self.journal.emit(
                "budget.violation",
                now,
                measured_w=breakdown.total,
                cap_w=self.budget.cap,
                overshoot_w=breakdown.total - self.budget.cap,
            )
        self.metrics.sample_power(now, breakdown)
        self.metrics.sample_counts(
            now,
            busy=len(self.chip.state_ids(CoreState.BUSY)),
            testing=len(self.chip.state_ids(CoreState.TESTING)),
            idle=len(self.chip.state_ids(CoreState.IDLE)),
            queued=len(self.queue),
        )
        if self.verifier is not None:
            # Reuses the breakdown this epoch already computed, so the
            # checker adds no extra meter queries.
            self.verifier.on_control_tick(self, now, breakdown)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        for arrival in self.generate_arrivals():
            self.sim.at(arrival.time, self._on_arrival, arrival)
        self.sim.every(
            self.config.epoch_us, self._control_tick, priority=PRIORITY_CONTROL
        )
        self.sim.run(until=self.config.horizon_us)
        return self._collect_result()

    def _collect_result(self) -> SimulationResult:
        scheduler = self.test_scheduler
        emergency = getattr(scheduler, "emergency_aborts", 0)
        skipped = getattr(scheduler, "skipped_no_budget", 0)
        result = SimulationResult(
            config=self.config,
            horizon_us=self.config.horizon_us,
            metrics=self.metrics,
            test_stats=self.runner.stats,
            fault_records=list(self.injector.records),
            scheduler_name=scheduler.name,
            mapper_name=self.mapper.name,
            power_policy_name=self.power_manager.name,
            per_core_busy_us={
                c.core_id: c.busy_window.total_busy for c in self.chip
            },
            per_core_age_stress={
                c.core_id: c.age_stress for c in self.chip
            },
            per_core_tests=dict(self.runner.stats.per_core_completed),
            peak_temperature_c=(
                self.thermal.peak_seen_c if self.thermal is not None else None
            ),
            per_level_tests=dict(self.runner.stats.per_level_completed),
            noc_avg_hops=self.noc.average_hops(),
            events_fired=self.sim.events_fired,
            emergency_aborts=emergency,
            skipped_no_budget=skipped,
        )
        result.manifest = self._build_manifest(result)
        return result

    def _build_manifest(self, result: SimulationResult) -> RunManifest:
        return RunManifest(
            version=getattr(repro, "__version__", "0"),
            seed=self.config.seed,
            horizon_us=self.config.horizon_us,
            config=field_dict(self.config),
            summary_digest=digest_of(sorted(result.summary().items())),
            journal_events=len(self.journal),
            journal_dropped=self.journal.dropped,
        )


def run_system(
    config: SystemConfig,
    journal: Optional[Journal] = None,
    verifier=None,
) -> SimulationResult:
    """Build and run one simulation (the one-call public entry point).

    ``verifier`` accepts a :class:`repro.verify.InvariantChecker`.  With
    the defaults the run is byte-identical to an unobserved one — and
    stays byte-identical with both enabled (the sinks are write-only).
    """
    return ManycoreSystem(config, journal=journal, verifier=verifier).run()
