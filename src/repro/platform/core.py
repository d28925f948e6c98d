"""Per-core state model.

A :class:`Core` is a mostly-passive record of one tile's processor state:
its position in the mesh, what it is doing (idle / busy / under test /
retired-faulty), its current DVFS level, and its activity accounting.  The
behavioural logic lives in the execution engine, power manager and test
scheduler; keeping the core itself simple makes every state transition
auditable in one place per subsystem.

Activity accounting matters because both the proposed criticality metric
and the proposed mapper are driven by *utilization*: the fraction of recent
time a core spent executing workload.  :class:`BusyWindow` keeps a pruned
list of busy intervals and answers window queries exactly.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from typing import Callable, List, Optional, Tuple

from repro.platform.coretypes import CORE_TYPES, DEFAULT_CORE_TYPE, CoreType
from repro.platform.dvfs import VFLevel


class CoreState(enum.Enum):
    """Lifecycle states of a core."""

    IDLE = "idle"          # powered down (clock/power gated), no leakage
    BUSY = "busy"          # executing a workload task
    TESTING = "testing"    # executing an SBST routine
    FAULTY = "faulty"      # fault detected -> retired (permanently dark)

    # Members are singletons compared by identity, so the id-based C slot
    # hash is equivalent to Enum's name-based Python __hash__ — and the
    # chip's per-state indexes hash states on every transition and query.
    __hash__ = object.__hash__


class BusyWindow:
    """Exact busy-time accounting over a sliding window.

    Intervals are ``[start, end)`` in simulation time.  ``utilization``
    integrates the overlap of recorded intervals with the query window;
    intervals that can no longer affect queries are pruned.
    """

    def __init__(self) -> None:
        self._intervals: List[Tuple[float, float]] = []
        #: Interval end times, kept in step for binary search: intervals
        #: are non-overlapping and appended in time order, so ends ascend.
        self._ends: List[float] = []
        self.total_busy: float = 0.0

    def add(self, start: float, end: float) -> None:
        if end < start:
            raise ValueError(f"interval end {end} before start {start}")
        if end == start:
            return
        if self._intervals and start < self._intervals[-1][1]:
            raise ValueError(
                "overlapping busy interval: "
                f"{start} < previous end {self._intervals[-1][1]}"
            )
        self._intervals.append((start, end))
        self._ends.append(end)
        self.total_busy += end - start

    def busy_in(self, t0: float, t1: float) -> float:
        """Busy time inside ``[t0, t1]``."""
        if t1 <= t0:
            return 0.0
        total = 0.0
        intervals = self._intervals
        # Skip straight to the first interval that can overlap the window;
        # everything before it ends at or before t0.
        for k in range(bisect_right(self._ends, t0), len(intervals)):
            start, end = intervals[k]
            if start >= t1:
                break
            lo = t0 if t0 > start else start  # max(start, t0), min(end, t1)
            hi = t1 if t1 < end else end
            if hi > lo:
                total += hi - lo
        return total

    def utilization(self, now: float, window: float) -> float:
        """Fraction of ``[now - window, now]`` spent busy."""
        if window <= 0:
            raise ValueError("window must be positive")
        t0 = max(0.0, now - window)
        if now <= t0:
            return 0.0
        return self.busy_in(t0, now) / (now - t0)

    def prune(self, horizon: float) -> None:
        """Drop intervals that end before ``horizon``."""
        self._intervals = [iv for iv in self._intervals if iv[1] > horizon]
        self._ends = [end for _, end in self._intervals]


class Core:
    """State record of one processing tile.

    ``state``, ``level`` and ``leak_factor`` are observable: the owning
    :class:`~repro.platform.chip.Chip` installs a transition callback so
    its per-state indexes and the incremental power meter stay in sync
    with *every* mutation, including direct assignments in tests.
    """

    def __init__(
        self,
        core_id: int,
        x: int,
        y: int,
        level: VFLevel,
        core_type: Optional[CoreType] = None,
    ) -> None:
        self.core_id = core_id
        self.x = x
        self.y = y
        #: Mesh coordinates as a tuple; a plain attribute (not a property)
        #: because mapping and NoC code read it in tight loops.
        self.position: Tuple[int, int] = (x, y)
        #: This tile's flavour (power / SBST / aging scales).  Immutable
        #: for the core's lifetime, so it is a plain attribute.
        self.core_type: CoreType = (
            core_type if core_type is not None else CORE_TYPES[DEFAULT_CORE_TYPE]
        )
        #: Index into the owning chip's first-occurrence type catalog;
        #: the chip assigns it, and the power meter uses it to pick
        #: per-type cache rows without hashing names.
        self.type_index: int = 0
        self._state = CoreState.IDLE
        self._level = level
        #: Installed by Chip; called as ``cb(core, old_state, new_state)``
        #: on state changes and ``cb(core, s, s)`` on level/leakage changes.
        self.transition_cb: Optional[Callable[["Core", CoreState, CoreState], None]] = None
        # Process-variation factors (see repro.platform.variation): this
        # core's frequency multiplier at any DVFS level, and its leakage
        # multiplier. 1.0 means a nominal (variation-free) core.
        self.speed_factor: float = 1.0
        self._leak_factor: float = 1.0
        # Workload bookkeeping
        self.current_task: Optional[object] = None
        self._owner_app: Optional[int] = None
        #: Installed by Chip; called as ``cb(core, old_owner, new_owner)``
        #: whenever ownership changes, so the chip can maintain its
        #: free-core list/count even on direct ``core.owner_app = ...``
        #: assignments in tests.
        self.owner_cb: Optional[
            Callable[["Core", Optional[int], Optional[int]], None]
        ] = None
        self.busy_window = BusyWindow()
        self.busy_until: float = 0.0
        # Test bookkeeping
        self.last_test_end: float = 0.0
        self.tests_completed: int = 0
        self.test_time_total: float = 0.0
        self.testing_until: float = 0.0
        self.tested_levels: set = set()
        # DVFS-level index -> time the level was last covered by a test.
        self.level_last_test: dict = {}
        # Health bookkeeping (managed by repro.aging)
        self.age_stress: float = 0.0
        self.stress_since_test: float = 0.0
        self.fault_present: bool = False
        self.fault_injected_at: Optional[float] = None
        self.fault_detected_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Observable fields
    # ------------------------------------------------------------------
    @property
    def state(self) -> CoreState:
        return self._state

    @state.setter
    def state(self, new_state: CoreState) -> None:
        old = self._state
        if new_state is old:
            return
        self._state = new_state
        if self.transition_cb is not None:
            self.transition_cb(self, old, new_state)

    @property
    def level(self) -> VFLevel:
        return self._level

    @level.setter
    def level(self, new_level: VFLevel) -> None:
        if new_level is self._level:
            return
        self._level = new_level
        if self.transition_cb is not None:
            self.transition_cb(self, self._state, self._state)

    @property
    def owner_app(self) -> Optional[int]:
        return self._owner_app

    @owner_app.setter
    def owner_app(self, app_id: Optional[int]) -> None:
        old = self._owner_app
        if app_id == old:
            return
        self._owner_app = app_id
        if self.owner_cb is not None:
            self.owner_cb(self, old, app_id)

    @property
    def leak_factor(self) -> float:
        return self._leak_factor

    @leak_factor.setter
    def leak_factor(self, factor: float) -> None:
        if factor == self._leak_factor:
            return
        self._leak_factor = factor
        if self.transition_cb is not None:
            self.transition_cb(self, self._state, self._state)

    # ------------------------------------------------------------------
    # Convenience predicates
    # ------------------------------------------------------------------
    def speed_at(self, level: Optional[VFLevel] = None) -> float:
        """Effective execution speed (ops/µs) including process variation."""
        lvl = level if level is not None else self.level
        return lvl.speed * self.speed_factor

    def is_idle(self) -> bool:
        return self.state is CoreState.IDLE

    def is_busy(self) -> bool:
        return self.state is CoreState.BUSY

    def is_testing(self) -> bool:
        return self.state is CoreState.TESTING

    def is_faulty(self) -> bool:
        return self.state is CoreState.FAULTY

    def is_allocatable(self) -> bool:
        """May the mapper hand this core to a new application?

        Cores under test are allocatable or not depending on the system's
        test-preemption policy; that policy is applied by the mapper, so
        here we only exclude retired cores and cores already owned.
        """
        return self.state is not CoreState.FAULTY and self.owner_app is None

    def utilization(self, now: float, window: float) -> float:
        """Recent utilization including any in-flight busy interval."""
        t0 = max(0.0, now - window)
        base = self.busy_window.busy_in(t0, now)
        if self._state is CoreState.BUSY and self.busy_until > now:
            # The open interval [start, busy_until) was not recorded yet;
            # count its elapsed part. Its start is at or before `now`, and
            # recorded intervals never overlap it.
            start = max(t0, self._open_interval_start(now))
            if now > start:
                base += now - start
        span = min(now, window)
        if span <= 0:
            return 0.0
        return min(1.0, base / span)

    def _open_interval_start(self, now: float) -> float:
        # The current task began when the core last became busy; we derive
        # it from busy_until minus the task duration tracked by the engine.
        # The execution engine stores it explicitly:
        return getattr(self, "busy_since", now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Core(id={self.core_id}, pos=({self.x},{self.y}), "
            f"state={self.state.value}, level={self.level.index})"
        )
