"""Test execution: runs an SBST session on a core inside the simulation.

The runner is the single place where a test changes platform state:

* start — the core moves to ``TESTING`` at the session's V/F level and its
  power-meter activity becomes the suite's power factor;
* completion — the core returns to ``IDLE``, its ``stress_since_test``
  resets, the tested level is recorded, and fault detection is attempted
  through the injector; a detected fault retires the core (``FAULTY``);
* abort — a non-intrusive scheduler may abandon a session early (e.g. the
  mapper wants the core, or the chip went over budget); nothing is credited.

Schedulers (baseline or proposed) decide *when*, *where* and *at which
level*; the runner guarantees the bookkeeping is identical for all of
them, so scheduler comparisons measure policy, not implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.aging.faults import FaultInjector
from repro.aging.model import AgingModel
from repro.metrics.collectors import TestStats
from repro.obs.journal import NULL_JOURNAL
from repro.platform.chip import Chip
from repro.platform.core import Core, CoreState
from repro.platform.coretypes import DEFAULT_CORE_TYPE, get_core_type
from repro.platform.dvfs import VFLevel
from repro.power.meter import PowerMeter
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.testing.sbst import SBSTLibrary


@dataclass
class TestSession:
    """One in-flight SBST session."""

    core: Core
    level: VFLevel
    started_at: float
    duration_us: float
    finish_event: Event
    #: Suite time (µs) already executed before this session (checkpoint).
    resumed_offset_us: float = 0.0

    @property
    def ends_at(self) -> float:
        return self.started_at + self.duration_us


class TestRunner:
    """Executes SBST sessions on cores.

    With ``checkpointing`` enabled, an aborted session saves the cycles it
    already executed; the next session on that core at the *same* V/F
    level resumes from the checkpoint instead of restarting the suite —
    SBST runs as a program, so saving its position is a store of a few
    registers. A checkpoint is only valid for the level it was taken at
    (a partially-run suite at another operating point proves nothing
    about this one) and is consumed on use.
    """

    def __init__(
        self,
        sim: Simulator,
        chip: Chip,
        meter: PowerMeter,
        library: SBSTLibrary,
        aging: Optional[AgingModel] = None,
        injector: Optional[FaultInjector] = None,
        checkpointing: bool = False,
    ) -> None:
        self.sim = sim
        self.chip = chip
        self.meter = meter
        self.library = library
        self.aging = aging
        self.injector = injector
        self.checkpointing = checkpointing
        self.stats = TestStats()
        self._sessions: Dict[int, TestSession] = {}
        # (type name, level index) -> estimated added power; the inputs
        # (node, model, library, gated leak fraction) are fixed for the
        # runner's lifetime and the scheduler asks for the same handful
        # of (type, level) pairs every tick.
        self._estimated_power_cache: Dict[tuple, float] = {}
        # type_index -> the library adapted to that core type; ``std``
        # maps to ``library`` itself (see SBSTLibrary.scaled_for).
        self._typed_libraries: Dict[int, SBSTLibrary] = {}
        # core_id -> (level_index, elapsed_us already executed)
        self._checkpoints: Dict[int, tuple] = {}
        #: Hooks invoked with (core, session) on lifecycle transitions.
        self.on_complete: List[Callable[[Core, TestSession], None]] = []
        self.on_detect: List[Callable[[Core, TestSession], None]] = []
        #: Observability sink (no-op by default; installed by the system).
        self.journal = NULL_JOURNAL

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def session_of(self, core: Core) -> Optional[TestSession]:
        return self._sessions.get(core.core_id)

    def active_sessions(self) -> List[TestSession]:
        return list(self._sessions.values())

    def library_for(self, core: Core) -> SBSTLibrary:
        """The SBST suite adapted to ``core``'s type (``self.library`` for std)."""
        tidx = core.type_index
        try:
            return self._typed_libraries[tidx]
        except KeyError:
            lib = self.library.scaled_for(core.core_type)
            self._typed_libraries[tidx] = lib
            return lib

    def estimated_power(self, level: VFLevel, core: Optional[Core] = None) -> float:
        """Power one test session adds at ``level`` (on an idle core).

        The idle core already leaks a gated fraction; the added cost is the
        session power minus the gated leakage it replaces.  ``core`` picks
        the per-type suite and power scales; omitting it means a baseline
        (``std``) tile, which is exact on homogeneous-std chips.
        """
        if core is None:
            ctype = get_core_type(DEFAULT_CORE_TYPE)
            library = self.library
        else:
            ctype = core.core_type
            library = self.library_for(core)
        key = (ctype.name, level.index)
        try:
            return self._estimated_power_cache[key]
        except KeyError:
            pass
        model = self.chip.tech_model
        node = self.chip.node
        full = library.session_power(model, node, ctype, level)
        gated = (
            model.leakage_power(node, ctype, level.vdd)
            * self.meter.gated_leak_fraction
        )
        value = full - gated
        self._estimated_power_cache[key] = value
        return value

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, core: Core, level: VFLevel) -> TestSession:
        """Begin a test session on an idle, healthy, unowned core."""
        if not core.is_idle():
            raise ValueError(f"core {core.core_id} not idle: {core.state}")
        if core.owner_app is not None:
            raise ValueError(f"core {core.core_id} owned by app {core.owner_app}")
        now = self.sim.now
        library = self.library_for(core)
        duration = library.session_duration(level) / core.speed_factor
        checkpoint = self._checkpoints.pop(core.core_id, None)
        resumed_offset = 0.0
        if (
            self.checkpointing
            and checkpoint is not None
            and checkpoint[0] == level.index
        ):
            resumed_offset = min(checkpoint[1], duration)
            duration -= resumed_offset
            self.stats.resumed += 1
        core.state = CoreState.TESTING
        core.level = level
        core.testing_until = now + duration
        self.meter.set_core_activity(core, library.session_power_factor())
        event = self.sim.schedule(duration, self._finish, core)
        session = TestSession(
            core, level, now, duration, event, resumed_offset_us=resumed_offset
        )
        self._sessions[core.core_id] = session
        self.stats.started += 1
        if self.journal.enabled:
            self.journal.emit(
                "test.start",
                now,
                core=core.core_id,
                level=level.index,
                duration_us=duration,
                resumed=resumed_offset > 0.0,
            )
        return session

    def abort(self, core: Core) -> None:
        """Abandon the session on ``core`` (no credit, no stress reset)."""
        session = self._sessions.pop(core.core_id, None)
        if session is None:
            raise ValueError(f"core {core.core_id} has no active test")
        session.finish_event.cancel()
        elapsed = self.sim.now - session.started_at
        if self.aging is not None:
            self.aging.accrue_test(core, elapsed, session.level)
        progressed = session.resumed_offset_us + elapsed
        if self.checkpointing and progressed > 0:
            self._checkpoints[core.core_id] = (
                session.level.index,
                progressed,
            )
        self.stats.aborted += 1
        self.stats.test_time_us += elapsed
        core.test_time_total += elapsed
        if self.journal.enabled:
            self.journal.emit(
                "test.abort",
                self.sim.now,
                core=core.core_id,
                level=session.level.index,
                elapsed_us=elapsed,
            )
        self._to_idle(core)

    def _finish(self, core: Core) -> None:
        session = self._sessions.pop(core.core_id, None)
        if session is None:  # aborted concurrently; event should be cancelled
            return
        now = self.sim.now
        if self.aging is not None:
            self.aging.accrue_test(core, session.duration_us, session.level)
        core.tests_completed += 1
        core.test_time_total += session.duration_us
        gap_us = now - core.last_test_end
        self.stats.test_gaps_us.append(gap_us)
        core.last_test_end = now
        core.stress_since_test = 0.0
        core.tested_levels.add(session.level.index)
        core.level_last_test[session.level.index] = now
        self.stats.completed += 1
        self.stats.test_time_us += session.duration_us
        self.stats.per_core_completed[core.core_id] = (
            self.stats.per_core_completed.get(core.core_id, 0) + 1
        )
        self.stats.per_level_completed[session.level.index] = (
            self.stats.per_level_completed.get(session.level.index, 0) + 1
        )

        detected = None
        if self.injector is not None:
            detected = self.injector.try_detect(
                core,
                now,
                session.level.index,
                self.library_for(core).session_coverage(),
            )
        if detected is not None:
            self.stats.detections += 1
            self._retire(core)
            for hook in self.on_detect:
                hook(core, session)
        else:
            self._to_idle(core)
        if self.journal.enabled:
            self.journal.emit(
                "test.complete",
                now,
                core=core.core_id,
                level=session.level.index,
                detected=detected is not None,
                gap_us=gap_us,
            )
        for hook in self.on_complete:
            hook(core, session)

    # ------------------------------------------------------------------
    # An IDLE or FAULTY transition drops the session's activity factor in
    # the meter's transition listener.
    def _to_idle(self, core: Core) -> None:
        core.state = CoreState.IDLE
        core.testing_until = 0.0
        core.level = self.chip.vf_table.max_level

    def _retire(self, core: Core) -> None:
        core.state = CoreState.FAULTY
        core.testing_until = 0.0
