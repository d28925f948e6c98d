"""Metric collection during a simulation run, and the result it returns.

The collector is a passive sink: the execution engine and the system's
control loop push events into it (application admitted / finished, task
finished, power sampled) and it maintains the counters and time series the
experiments report.  All rates are computed against the run horizon at
summary time, so partially-finished work at the horizon is counted the
same way for every policy being compared.

The result plane: importing this module imports every class a pickled
:class:`SimulationResult` holds, and no model code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro._sum import lsum
from repro.core.config_io import SystemConfig
from repro.obs.provenance import RunManifest
from repro.power.budget import BudgetAudit, PowerBudget
from repro.sim.trace import Trace

if TYPE_CHECKING:
    from repro.power.meter import PowerBreakdown
    from repro.workload.application import ApplicationInstance


@dataclass(frozen=True)
class AppRecord:
    """Completion record of one application instance."""

    app_id: int
    name: str
    n_tasks: int
    total_ops: float
    arrival_time: float
    start_time: float
    finish_time: float
    rt_class: str = "best-effort"
    #: True when the app "finished" without ever starting (no admission
    #: timestamp).  ``start_time`` then holds the finish time as a
    #: placeholder and the record is excluded from waiting/turnaround
    #: statistics.
    aborted: bool = False

    @property
    def waiting_time(self) -> float:
        return self.start_time - self.arrival_time

    @property
    def turnaround(self) -> float:
        return self.finish_time - self.arrival_time


class MetricsCollector:
    """Accumulates throughput, latency and power statistics."""

    def __init__(self, budget: PowerBudget) -> None:
        self.trace = Trace()
        self.audit = BudgetAudit(budget)
        self.apps_arrived = 0
        self.apps_admitted = 0
        self.apps_completed = 0
        self.apps_aborted = 0
        self.tasks_completed = 0
        self.ops_completed = 0.0
        self.app_records: List[AppRecord] = []

    # ------------------------------------------------------------------
    # Event sinks
    # ------------------------------------------------------------------
    def on_app_arrival(self, app: ApplicationInstance, now: float) -> None:
        self.apps_arrived += 1

    def on_app_admitted(self, app: ApplicationInstance, now: float) -> None:
        self.apps_admitted += 1

    def on_task_finished(self, ops: float, now: float) -> None:
        self.tasks_completed += 1
        self.ops_completed += ops

    def on_app_finished(self, app: ApplicationInstance, now: float) -> None:
        # A "finishing" app with no start timestamp never ran: count it as
        # aborted instead of completed so it cannot pollute the waiting-
        # and turnaround-time statistics with a fabricated start time.
        aborted = app.start_time is None
        if aborted:
            self.apps_aborted += 1
        else:
            self.apps_completed += 1
        self.app_records.append(
            AppRecord(
                app_id=app.app_id,
                name=app.graph.name,
                n_tasks=len(app.graph),
                total_ops=app.graph.total_ops(),
                arrival_time=app.arrival_time,
                start_time=app.start_time if app.start_time is not None else now,
                finish_time=now,
                rt_class=app.graph.rt_class,
                aborted=aborted,
            )
        )

    def sample_power(self, now: float, breakdown: PowerBreakdown) -> None:
        self.trace.record("power.workload", now, breakdown.workload)
        self.trace.record("power.test", now, breakdown.test)
        self.trace.record("power.leakage", now, breakdown.leakage)
        self.trace.record("power.noc", now, breakdown.noc)
        self.trace.record("power.total", now, breakdown.total)
        self.audit.observe(now, breakdown.total)

    def sample_counts(
        self, now: float, busy: int, testing: int, idle: int, queued: int
    ) -> None:
        self.trace.record("cores.busy", now, float(busy))
        self.trace.record("cores.testing", now, float(testing))
        self.trace.record("cores.idle", now, float(idle))
        self.trace.record("queue.length", now, float(queued))

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def throughput_ops_per_us(self, horizon_us: float) -> float:
        if horizon_us <= 0:
            raise ValueError("horizon must be positive")
        return self.ops_completed / horizon_us

    def apps_per_ms(self, horizon_us: float) -> float:
        if horizon_us <= 0:
            raise ValueError("horizon must be positive")
        return self.apps_completed / (horizon_us / 1000.0)

    def completed_records(self) -> List[AppRecord]:
        """Records of apps that actually ran (aborted ones excluded)."""
        return [r for r in self.app_records if not r.aborted]

    def mean_waiting_time(self) -> Optional[float]:
        records = self.completed_records()
        if not records:
            return None
        return lsum(r.waiting_time for r in records) / len(records)

    def mean_turnaround(self) -> Optional[float]:
        records = self.completed_records()
        if not records:
            return None
        return lsum(r.turnaround for r in records) / len(records)

    def mean_waiting_by_class(self) -> Dict[str, float]:
        """Mean queueing delay per real-time class (completed apps)."""
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for record in self.completed_records():
            sums[record.rt_class] = sums.get(record.rt_class, 0.0) + record.waiting_time
            counts[record.rt_class] = counts.get(record.rt_class, 0) + 1
        return {cls: sums[cls] / counts[cls] for cls in sums}

    def energy_uj(self, channel: str, horizon_us: float) -> float:
        """Energy (µJ) of one power channel over the run."""
        return self.trace.integral(f"power.{channel}", 0.0, horizon_us)

    def test_power_share(self, horizon_us: float) -> float:
        """Fraction of total chip energy spent on test routines."""
        total = self.energy_uj("total", horizon_us)
        if total <= 0:
            return 0.0
        return self.energy_uj("test", horizon_us) / total

    def average_power(self, horizon_us: float) -> float:
        return self.trace.time_average("power.total", 0.0, horizon_us)


@dataclass
class TestStats:
    """Aggregate test-campaign statistics."""

    started: int = 0
    completed: int = 0
    aborted: int = 0
    resumed: int = 0
    detections: int = 0
    test_time_us: float = 0.0
    per_core_completed: Dict[int, int] = field(default_factory=dict)
    per_level_completed: Dict[int, int] = field(default_factory=dict)
    #: Gaps (µs) between successive completed tests of the same core —
    #: the staleness a mapper/scheduler pair leaves on the die.
    test_gaps_us: List[float] = field(default_factory=list)

    def mean_gap_us(self) -> float:
        if not self.test_gaps_us:
            return 0.0
        return lsum(self.test_gaps_us) / len(self.test_gaps_us)

    def max_gap_us(self) -> float:
        if not self.test_gaps_us:
            return 0.0
        return max(self.test_gaps_us)


@dataclass
class FaultRecord:
    """Lifecycle of one injected fault."""

    core_id: int
    injected_at: float
    manifest_level: int
    kind: str = "high"                 # "high" | "low" corner direction
    detected_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("high", "low"):
            raise ValueError(f"unknown fault kind {self.kind!r}")

    @property
    def detected(self) -> bool:
        return self.detected_at is not None

    def manifests_at(self, level_index: int) -> bool:
        """Does the fault misbehave at the given DVFS level?"""
        if self.kind == "high":
            return level_index >= self.manifest_level
        return level_index <= self.manifest_level

    def detection_latency(self) -> Optional[float]:
        if self.detected_at is None:
            return None
        return self.detected_at - self.injected_at


@dataclass
class SimulationResult:
    """Bundle of everything a finished run produced."""

    config: SystemConfig
    horizon_us: float
    metrics: MetricsCollector
    test_stats: TestStats
    fault_records: List[FaultRecord]
    scheduler_name: str
    mapper_name: str
    power_policy_name: str
    per_core_busy_us: Dict[int, float]
    per_core_age_stress: Dict[int, float]
    per_core_tests: Dict[int, int]
    peak_temperature_c: Optional[float]
    per_level_tests: Dict[int, int]
    noc_avg_hops: float
    events_fired: int
    emergency_aborts: int = 0
    skipped_no_budget: int = 0
    #: Provenance manifest (config, seed, version, summary digest).
    manifest: Optional[RunManifest] = None
    #: :meth:`summary`'s row.  It is pickled with the result, so it rides
    #: in a pool worker's reply and in the run cache.
    _summary: Optional[Dict[str, float]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @property
    def throughput_ops_per_us(self) -> float:
        return self.metrics.throughput_ops_per_us(self.horizon_us)

    @property
    def apps_completed(self) -> int:
        return self.metrics.apps_completed

    @property
    def tests_completed(self) -> int:
        return self.test_stats.completed

    @property
    def test_power_share(self) -> float:
        return self.metrics.test_power_share(self.horizon_us)

    def mean_detection_latency_us(self) -> Optional[float]:
        latencies = [
            r.detection_latency() for r in self.fault_records if r.detected
        ]
        if not latencies:
            return None
        return lsum(latencies) / len(latencies)

    def summary(self) -> Dict[str, float]:
        """Flat scalar summary (the rows experiments print), a new dict
        per call.  Computed once per run, or on first use by a result
        pickled without it."""
        if self._summary is None:
            waiting = self.metrics.mean_waiting_time()
            self._summary = {
                "apps_completed": float(self.metrics.apps_completed),
                "tasks_completed": float(self.metrics.tasks_completed),
                "throughput_ops_per_us": self.throughput_ops_per_us,
                "mean_waiting_us": waiting if waiting is not None else 0.0,
                "avg_power_w": self.metrics.average_power(self.horizon_us),
                "budget_violation_rate": self.metrics.audit.violation_rate,
                "tests_completed": float(self.test_stats.completed),
                "tests_aborted": float(self.test_stats.aborted),
                "test_power_share": self.test_power_share,
                "faults_injected": float(len(self.fault_records)),
                "faults_detected": float(
                    lsum(1 for r in self.fault_records if r.detected)
                ),
            }
        return dict(self._summary)
