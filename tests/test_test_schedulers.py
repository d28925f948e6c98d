"""Tests for baseline test-scheduling policies."""

import pytest

from repro.aging.model import AgingModel
from repro.platform.core import CoreState
from repro.power.meter import PowerMeter
from repro.testing.runner import TestRunner
from repro.testing.sbst import default_library
from repro.testing.schedulers import (
    NoTestScheduler,
    PowerUnawareTestScheduler,
    RoundRobinTestScheduler,
    TestSchedulerBase,
)


@pytest.fixture
def rig(sim, chip44):
    meter = PowerMeter(chip44)
    runner = TestRunner(sim, chip44, meter, default_library(), AgingModel(chip44.node))
    return sim, chip44, runner


# ----------------------------------------------------------------------
# Base helpers
# ----------------------------------------------------------------------
def test_due_cores_respects_interval(rig):
    sim, chip, runner = rig
    sched = NoTestScheduler(chip, runner, min_interval_us=1000.0)
    assert len(sched.due_cores(now=1000.0)) == 16
    chip.core(0).last_test_end = 500.0
    assert chip.core(0) not in sched.due_cores(now=1000.0)
    assert chip.core(0) in sched.due_cores(now=1500.0)


def test_due_cores_excludes_busy_and_owned(rig):
    sim, chip, runner = rig
    sched = NoTestScheduler(chip, runner, min_interval_us=0.0)
    chip.core(0).state = CoreState.BUSY
    chip.core(1).owner_app = 4
    due_ids = {c.core_id for c in sched.due_cores(now=10.0)}
    assert 0 not in due_ids
    assert 1 not in due_ids


def test_due_cores_sorted_longest_untested_first(rig):
    sim, chip, runner = rig
    sched = NoTestScheduler(chip, runner, min_interval_us=0.0)
    chip.core(3).last_test_end = 10.0
    chip.core(5).last_test_end = 5.0
    due = sched.due_cores(now=100.0)
    assert due[-1].core_id == 3
    assert due[-2].core_id == 5


def test_pick_level_nominal(rig):
    sim, chip, runner = rig
    sched = NoTestScheduler(chip, runner, level_policy="nominal")
    assert sched.pick_level(chip.core(0), 0.0).index == len(chip.vf_table) - 1


def test_pick_level_rotate_staggered_by_core(rig):
    sim, chip, runner = rig
    sched = NoTestScheduler(chip, runner, level_policy="rotate")
    n = len(chip.vf_table)
    picks = {sched.pick_level(chip.core(i), 0.0).index for i in range(n)}
    assert picks == set(range(n))  # first round covers every level chip-wide


def test_pick_level_rotate_prefers_least_recently_tested(rig):
    sim, chip, runner = rig
    sched = NoTestScheduler(chip, runner, level_policy="rotate")
    core = chip.core(0)
    n = len(chip.vf_table)
    for i in range(n):
        if i != 4:
            core.level_last_test[i] = 100.0 + i
    assert sched.pick_level(core, 200.0).index == 4


def test_level_policy_validation(rig):
    sim, chip, runner = rig
    with pytest.raises(ValueError):
        NoTestScheduler(chip, runner, level_policy="zigzag")
    with pytest.raises(ValueError):
        NoTestScheduler(chip, runner, min_interval_us=-1.0)


def test_base_preemptable_flags():
    assert NoTestScheduler.preemptable
    assert not PowerUnawareTestScheduler.preemptable
    assert not RoundRobinTestScheduler.preemptable
    assert not TestSchedulerBase.preemptable


# ----------------------------------------------------------------------
# NoTestScheduler
# ----------------------------------------------------------------------
def test_no_test_never_starts(rig):
    sim, chip, runner = rig
    sched = NoTestScheduler(chip, runner, min_interval_us=0.0)
    sched.tick(10.0, 100.0)
    assert runner.stats.started == 0


# ----------------------------------------------------------------------
# PowerUnawareTestScheduler
# ----------------------------------------------------------------------
def test_unaware_tests_every_due_core(rig):
    sim, chip, runner = rig
    sched = PowerUnawareTestScheduler(chip, runner, min_interval_us=0.0)
    sched.tick(10.0, 100.0)
    assert runner.stats.started == 16
    assert len(chip.testing_cores()) == 16


def test_unaware_skips_busy_cores(rig):
    sim, chip, runner = rig
    chip.core(0).state = CoreState.BUSY
    sched = PowerUnawareTestScheduler(chip, runner, min_interval_us=0.0)
    sched.tick(10.0, 100.0)
    assert runner.stats.started == 15


def test_unaware_does_not_restart_running_tests(rig):
    sim, chip, runner = rig
    sched = PowerUnawareTestScheduler(chip, runner, min_interval_us=0.0)
    sched.tick(10.0, 100.0)
    sched.tick(10.0, 100.0)  # same instant again: all cores now testing
    assert runner.stats.started == 16


# ----------------------------------------------------------------------
# RoundRobinTestScheduler
# ----------------------------------------------------------------------
def test_round_robin_caps_concurrency(rig):
    sim, chip, runner = rig
    sched = RoundRobinTestScheduler(
        chip, runner, min_interval_us=0.0, max_concurrent=3
    )
    sched.tick(10.0, 100.0)
    assert runner.stats.started == 3
    sched.tick(10.0, 100.0)
    assert runner.stats.started == 3  # slots full


def test_round_robin_advances_cursor(rig):
    sim, chip, runner = rig
    sched = RoundRobinTestScheduler(
        chip, runner, min_interval_us=0.0, max_concurrent=2
    )
    sched.tick(10.0, 100.0)
    first_batch = {s.core.core_id for s in runner.active_sessions()}
    assert first_batch == {0, 1}
    for core_id in first_batch:
        runner.abort(chip.core(core_id))
    # Mark them recently tested so they are not due again.
    chip.core(0).last_test_end = 10.0
    chip.core(1).last_test_end = 10.0
    sched.tick(11.0, 100.0)
    second_batch = {s.core.core_id for s in runner.active_sessions()}
    assert second_batch == {2, 3}


def test_round_robin_single_visit_per_tick(rig):
    """Regression: the cursor update must not revisit a just-started core."""
    sim, chip, runner = rig
    sched = RoundRobinTestScheduler(
        chip, runner, min_interval_us=0.0, max_concurrent=16
    )
    sched.tick(10.0, 100.0)  # would raise on a double start
    assert runner.stats.started == 16


def test_round_robin_validation(rig):
    sim, chip, runner = rig
    with pytest.raises(ValueError):
        RoundRobinTestScheduler(chip, runner, max_concurrent=0)


# ----------------------------------------------------------------------
# Oracles: the due scans read the chip's free-core list
# ----------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import PowerAwareTestScheduler
from repro.platform.chip import Chip
from repro.power.budget import PowerBudget
from repro.sim.engine import Simulator

_ACTIONS = ("idle", "busy", "faulty", "own", "release", "tested", "stress")


def scan_rig(data, **kwargs):
    chip = Chip.build(data.draw(st.integers(2, 5)), data.draw(st.integers(2, 5)))
    for core in chip:
        core.stress_since_test = data.draw(st.sampled_from([0.0, 2.0, 50.0]))
    sim = Simulator()
    meter = PowerMeter(chip)
    runner = TestRunner(sim, chip, meter, default_library(), AgingModel(chip.node))
    return sim, chip, meter, runner


def mutate(data, chip, now):
    """A few direct state, ownership and history changes.

    Cores under test are left to the runner that owns their session.
    """
    for _ in range(data.draw(st.integers(0, 6))):
        core = chip.cores[data.draw(st.integers(0, len(chip) - 1))]
        action = data.draw(st.sampled_from(_ACTIONS))
        if core.state is CoreState.TESTING:
            continue
        if action == "idle":
            core.state = CoreState.IDLE
        elif action == "busy":
            core.state = CoreState.BUSY
        elif action == "faulty":
            core.state = CoreState.FAULTY
        elif action == "own":
            core.owner_app = data.draw(st.integers(1, 3))
        elif action == "release":
            core.owner_app = None
        elif action == "tested":
            core.last_test_end = now - data.draw(st.sampled_from([0.0, 400.0, 500.0, 900.0]))
        else:
            core.stress_since_test = data.draw(st.sampled_from([0.0, 2.0, 50.0]))
        if data.draw(st.booleans()):
            chip.free_cores()  # read between mutations


def reference_due(chip, now, min_interval):
    """Due cores as a scan of the idle cores filtered on ownership."""
    return [
        core
        for core in chip.idle_cores()
        if core.owner_app is None and now - core.last_test_end >= min_interval
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_due_scans_equal_an_idle_and_unowned_scan(data):
    sim, chip, meter, runner = scan_rig(data)
    min_interval = data.draw(st.sampled_from([0.0, 500.0]))
    sched = PowerAwareTestScheduler(
        chip, runner, meter, PowerBudget(20.0), min_interval_us=min_interval
    )
    crit = sched.criticality
    for step in range(data.draw(st.integers(1, 5))):
        now = 1000.0 * (step + 1)
        mutate(data, chip, now)
        due = reference_due(chip, now, min_interval)
        assert sched.due_cores(now) == sorted(
            due, key=lambda c: (c.last_test_end, c.core_id)
        )
        assert sched.candidates(now) == crit.rank(
            [core for core in due if crit.is_due(core, now)], now
        )
        # The scans leave the chip's free set as it was.
        assert chip.free_cores() == [
            core for core in chip.idle_cores() if core.owner_app is None
        ]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_robin_starts_due_cores_from_the_cursor(data):
    sim, chip, meter, runner = scan_rig(data)
    max_concurrent = data.draw(st.integers(1, 4))
    sched = RoundRobinTestScheduler(
        chip, runner, min_interval_us=500.0, max_concurrent=max_concurrent
    )
    n = len(chip)
    cursor = 0
    for step in range(data.draw(st.integers(1, 6))):
        now = 1000.0 * (step + 1)
        mutate(data, chip, now)
        for session in runner.active_sessions():
            if data.draw(st.booleans()):
                runner.abort(session.core)
        slots = max_concurrent - len(runner.active_sessions())
        due = {core.core_id for core in reference_due(chip, now, 500.0)}
        # Walk the ids from the cursor round to it, starting due cores.
        expected = []
        for offset in range(n):
            if (cursor + offset) % n in due and len(expected) < slots:
                expected.append((cursor + offset) % n)
        before = runner.active_sessions()
        sched.tick(now, 100.0)
        started = [
            s.core.core_id for s in runner.active_sessions() if s not in before
        ]
        assert started == expected
        if expected:
            cursor = (expected[-1] + 1) % n


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pick_level_is_the_first_least_recently_tested_level(data):
    n_levels = data.draw(st.sampled_from([2, 3, 5, 8]))
    chip = Chip.build(3, 3, n_vf_levels=n_levels)
    sched = NoTestScheduler(chip, None)
    times = st.sampled_from([0.0, 100.0, 250.0, 900.0])
    for core in chip:
        for index in range(n_levels):
            if data.draw(st.booleans()):
                core.level_last_test[index] = data.draw(times)
        want = min(
            range(n_levels),
            key=lambda i: (
                core.level_last_test.get(i, -1.0),
                -((i + core.core_id) % n_levels),
            ),
        )
        assert sched.pick_level(core, 1000.0) is chip.vf_table[want]
