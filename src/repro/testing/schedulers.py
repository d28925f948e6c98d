"""Baseline online-test scheduling policies.

These are the comparison points for the paper's power-aware scheduler:

* :class:`NoTestScheduler` — never tests; defines the throughput baseline
  against which penalty is measured.
* :class:`PowerUnawareTestScheduler` — the state-of-the-art-before-this-
  paper strawman: tests every idle core as soon as it is due, at nominal
  V/F, with **no regard for the chip power budget**.  The tests' power
  forces the power manager to throttle the workload, which is exactly the
  throughput hit the paper's abstract calls out.
* :class:`RoundRobinTestScheduler` — classic non-intrusive periodic
  testing: at most ``max_concurrent`` sessions chip-wide, cores visited in
  round-robin order when idle and due.  Power-unaware but low-intensity.

All schedulers share the due-core bookkeeping and level-selection helpers
of :class:`TestSchedulerBase`; the proposed policy lives in
:mod:`repro.core.scheduler` and subclasses the same base, so policy
differences are isolated to the ``tick`` logic.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.journal import NULL_JOURNAL
from repro.platform.chip import Chip
from repro.platform.core import Core
from repro.platform.dvfs import VFLevel
from repro.testing.runner import TestRunner


class TestSchedulerBase:
    """Shared machinery for test-scheduling policies."""

    name = "base"
    #: May the mapper abort this scheduler's sessions to claim cores?
    #: Non-intrusive preemptable testing is part of the *proposed* method;
    #: the baselines hold a core until their session completes, which is
    #: exactly what makes classic online testing intrusive.
    preemptable = False

    def __init__(
        self,
        chip: Chip,
        runner: TestRunner,
        min_interval_us: float = 2000.0,
        level_policy: str = "rotate",
    ) -> None:
        if min_interval_us < 0:
            raise ValueError("min_interval_us must be non-negative")
        if level_policy not in ("rotate", "nominal"):
            raise ValueError(f"unknown level policy {level_policy!r}")
        self.chip = chip
        self.runner = runner
        self.min_interval_us = min_interval_us
        self.level_policy = level_policy
        #: Observability sink (no-op by default; the system installs the
        #: run's journal when journaling is enabled).
        self.journal = NULL_JOURNAL

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def due_cores(self, now: float) -> List[Core]:
        """Idle, unowned cores whose re-test interval has elapsed."""
        due = [
            c
            for c in self.chip.free_cores()
            if now - c.last_test_end >= self.min_interval_us
        ]
        # Longest-untested first: a deterministic, fair default order.
        due.sort(key=lambda c: (c.last_test_end, c.core_id))
        return due

    def pick_level(self, core: Core, now: float) -> VFLevel:
        """V/F level for the next session on ``core``.

        ``rotate`` picks the least-recently-tested level so that, over a
        campaign, every level of every core gets covered (the TC'16
        extension); ``nominal`` always tests at the top level.

        Among never-tested levels the rotation is staggered by core id, so
        chip-wide all levels are exercised already in the first test round
        instead of every core starting from the same corner.
        """
        table = self.chip.vf_table
        if self.level_policy == "nominal":
            return table.max_level
        # The first level minimising (last test time or -1, -stagger), with
        # stagger (i + core_id) % n; staggers are distinct.
        n = len(table)
        last_test = core.level_last_test.get
        core_id = core.core_id
        best_index, best_time, best_stagger = 0, last_test(0, -1.0), core_id % n
        for i in range(1, n):
            time = last_test(i, -1.0)
            if time < best_time:
                best_index, best_time, best_stagger = i, time, (i + core_id) % n
            elif time == best_time:
                stagger = (i + core_id) % n
                if stagger > best_stagger:
                    best_index, best_stagger = i, stagger
        return table[best_index]

    def session_cost(self, core: Core, level: VFLevel) -> float:
        """Estimated power (W) one session on ``core`` at ``level`` adds.

        The single point where scheduling policies price a test: routed
        through the runner's per-type estimate so heterogeneous tiles are
        costed with their own suite and power scales.
        """
        return self.runner.estimated_power(level, core)

    def tick(self, now: float, dt: float) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class NoTestScheduler(TestSchedulerBase):
    """Never schedules a test (throughput baseline)."""

    name = "none"
    preemptable = True  # vacuous; it never starts a session

    def tick(self, now: float, dt: float) -> None:
        return


class PowerUnawareTestScheduler(TestSchedulerBase):
    """Tests every due idle core immediately, ignoring the power budget."""

    name = "unaware"

    def tick(self, now: float, dt: float) -> None:
        for core in self.due_cores(now):
            self.runner.start(core, self.pick_level(core, now))


class RoundRobinTestScheduler(TestSchedulerBase):
    """At most ``max_concurrent`` sessions, cores visited round-robin."""

    name = "round-robin"

    def __init__(
        self,
        chip: Chip,
        runner: TestRunner,
        min_interval_us: float = 2000.0,
        level_policy: str = "rotate",
        max_concurrent: int = 2,
    ) -> None:
        super().__init__(chip, runner, min_interval_us, level_policy)
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.max_concurrent = max_concurrent
        self._cursor = 0

    def tick(self, now: float, dt: float) -> None:
        slots = self.max_concurrent - len(self.runner.active_sessions())
        if slots <= 0:
            return
        cores = self.chip.cores
        n = len(cores)
        start = self._cursor
        # Due cores in cursor order: ids from the cursor up, then wrapping.
        offsets = sorted((c.core_id - start) % n for c in self.due_cores(now))
        for offset in offsets[:slots]:
            core = cores[(start + offset) % n]
            self.runner.start(core, self.pick_level(core, now))
            self._cursor = (core.core_id + 1) % n
