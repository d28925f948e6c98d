"""The proposed power-aware online test scheduler (DATE'15, Sec. "method").

Per control epoch the scheduler:

1. computes the chip's current power headroom under the guarded TDP cap
   (the "temporarily available power budget" of the abstract);
2. collects the idle, unowned cores whose test criticality crossed the
   threshold and ranks them most-critical-first;
3. admits test sessions while they fit in the headroom.  The V/F level of
   each session is the core's least-recently-tested level (rotating corner
   coverage, the TC'16 extension); when the preferred level's power does
   not fit, the scheduler *downgrades* the session towards near-threshold
   levels — a cheap test now beats no test — and skips the core only when
   even the cheapest level does not fit;
4. on a budget emergency (measured power above the hard cap, e.g. because
   a workload burst landed right after tests were admitted) it aborts
   running sessions, youngest first, until the chip fits again.  Workload
   is never throttled on behalf of testing — that is the non-intrusiveness
   property that keeps the throughput penalty under 1%.

The scheduler also caps concurrent sessions (``max_concurrent``) so the
test campaign cannot monopolise the chip even under very light load.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.criticality import CriticalityParameters, TestCriticality
from repro.platform.chip import Chip
from repro.platform.core import Core
from repro.platform.dvfs import VFLevel
from repro.power.budget import PowerBudget
from repro.power.meter import PowerMeter
from repro.testing.runner import TestRunner
from repro.testing.schedulers import TestSchedulerBase


class PowerAwareTestScheduler(TestSchedulerBase):
    """Criticality-ranked, budget-honouring, non-intrusive test scheduling."""

    name = "power-aware"
    preemptable = True

    def __init__(
        self,
        chip: Chip,
        runner: TestRunner,
        meter: PowerMeter,
        budget: PowerBudget,
        criticality: Optional[TestCriticality] = None,
        min_interval_us: float = 2000.0,
        level_policy: str = "rotate",
        max_concurrent: int = 8,
        reserve_w: float = 0.0,
    ) -> None:
        super().__init__(chip, runner, min_interval_us, level_policy)
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if reserve_w < 0:
            raise ValueError("reserve_w must be non-negative")
        self.meter = meter
        self.budget = budget
        self.criticality = criticality or TestCriticality(CriticalityParameters())
        self.max_concurrent = max_concurrent
        self.reserve_w = reserve_w
        self.skipped_no_budget = 0
        self.downgraded_levels = 0
        self.emergency_aborts = 0

    # ------------------------------------------------------------------
    # Candidate selection
    # ------------------------------------------------------------------
    def candidates(self, now: float) -> List[Core]:
        """Due cores (criticality over threshold), most critical first.

        Each eligible core's criticality is evaluated once and serves as
        both the due test and the sort key: the order is
        :meth:`TestCriticality.rank`'s ``(-value, core_id)``.
        """
        value = self.criticality.value
        threshold = self.criticality.params.threshold
        min_interval = self.min_interval_us
        keyed = []
        for core in self.chip.free_cores():
            if now - core.last_test_end >= min_interval:
                crit = value(core, now)
                if crit >= threshold:
                    keyed.append((-crit, core.core_id, core))
        # Core ids are unique, so the sort never compares two cores.
        keyed.sort()
        return [core for _, _, core in keyed]

    def _fitting_level(
        self, core: Core, preferred: VFLevel, headroom: float
    ) -> Optional[VFLevel]:
        """Pure downgrade walk: ``preferred``, lowered until it fits.

        Mutates nothing — shared by the admitting path (which counts
        downgrades) and the read-only audit path (:meth:`explain`).
        """
        index = preferred.index
        while index >= 0:
            level = self.chip.vf_table[index]
            if self.session_cost(core, level) <= headroom:
                return level
            index -= 1
        return None

    def affordable_level(self, core: Core, now: float, headroom: float) -> Optional[VFLevel]:
        """Preferred level, downgraded until its session power fits."""
        preferred = self.pick_level(core, now)
        level = self._fitting_level(core, preferred, headroom)
        if level is not None and level.index != preferred.index:
            self.downgraded_levels += 1
        return level

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def tick(self, now: float, dt: float) -> None:
        journal = self.journal
        measured = self.meter.chip_power()
        if measured > self.budget.cap:
            aborted = self._emergency(measured)
            if journal.enabled:
                journal.emit(
                    "test.emergency",
                    now,
                    measured_w=measured,
                    cap_w=self.budget.cap,
                    aborted=aborted,
                )
            return
        headroom = self.budget.guarded_cap - measured - self.reserve_w
        slots = self.max_concurrent - len(self.runner.active_sessions())
        if headroom <= 0 or slots <= 0:
            if journal.enabled:
                # Every due core is deferred this epoch; ``candidates`` is
                # read-only, so the observe-only ranking changes nothing.
                reason = "no-headroom" if headroom <= 0 else "max-concurrent"
                for core in self.candidates(now):
                    journal.emit(
                        "test.defer",
                        now,
                        core=core.core_id,
                        reason=reason,
                        headroom_w=headroom,
                        criticality=self.criticality.value(core, now),
                    )
            return
        ranked = self.candidates(now)
        for position, core in enumerate(ranked):
            if slots <= 0 or headroom <= 0:
                if journal.enabled:
                    reason = "max-concurrent" if slots <= 0 else "no-headroom"
                    for waiting in ranked[position:]:
                        journal.emit(
                            "test.defer",
                            now,
                            core=waiting.core_id,
                            reason=reason,
                            headroom_w=headroom,
                            criticality=self.criticality.value(waiting, now),
                        )
                break
            level = self.affordable_level(core, now, headroom)
            if level is None:
                self.skipped_no_budget += 1
                if journal.enabled:
                    journal.emit(
                        "test.defer",
                        now,
                        core=core.core_id,
                        reason="no-level-fits",
                        headroom_w=headroom,
                        criticality=self.criticality.value(core, now),
                    )
                continue
            cost = self.session_cost(core, level)
            if journal.enabled:
                journal.emit(
                    "test.launch",
                    now,
                    core=core.core_id,
                    level=level.index,
                    headroom_w=headroom,
                    cost_w=cost,
                    criticality=self.criticality.value(core, now),
                    downgraded=level.index != self.pick_level(core, now).index,
                )
            self.runner.start(core, level)
            headroom -= cost
            slots -= 1

    def explain(self, now: float) -> Dict[str, object]:
        """Read-only decision audit: what :meth:`tick` would do right now.

        Replays the admission walk (headroom check, criticality ranking,
        level downgrade) against the live chip without starting or aborting
        anything and without touching the scheduler's counters — safe to
        call between ticks, from tests, or from a debugger.
        """
        measured = self.meter.chip_power()
        headroom = self.budget.guarded_cap - measured - self.reserve_w
        slots = self.max_concurrent - len(self.runner.active_sessions())
        report: Dict[str, object] = {
            "time": now,
            "measured_w": measured,
            "cap_w": self.budget.cap,
            "guarded_cap_w": self.budget.guarded_cap,
            "emergency": measured > self.budget.cap,
            "headroom_w": headroom,
            "slots": slots,
            "decisions": [],
        }
        if report["emergency"]:
            return report
        decisions: List[Dict[str, object]] = report["decisions"]  # type: ignore[assignment]
        for core in self.candidates(now):
            entry: Dict[str, object] = {
                "core": core.core_id,
                "criticality": self.criticality.value(core, now),
                "headroom_w": headroom,
            }
            if slots <= 0:
                entry.update(action="defer", reason="max-concurrent")
            elif headroom <= 0:
                entry.update(action="defer", reason="no-headroom")
            else:
                preferred = self.pick_level(core, now)
                level = self._fitting_level(core, preferred, headroom)
                if level is None:
                    entry.update(action="defer", reason="no-level-fits")
                else:
                    cost = self.session_cost(core, level)
                    entry.update(
                        action="launch",
                        level=level.index,
                        cost_w=cost,
                        downgraded=level.index != preferred.index,
                    )
                    headroom -= cost
                    slots -= 1
            decisions.append(entry)
        return report

    def _emergency(self, measured: float) -> int:
        """Abort sessions, youngest first, until back under the hard cap.

        Returns the number of sessions aborted.
        """
        sessions = sorted(
            self.runner.active_sessions(),
            key=lambda s: s.started_at,
            reverse=True,
        )
        aborted = 0
        for session in sessions:
            if measured <= self.budget.cap:
                break
            cost = self.session_cost(session.core, session.level)
            self.runner.abort(session.core)
            self.emergency_aborts += 1
            aborted += 1
            measured -= cost
        return aborted
