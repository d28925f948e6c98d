"""Tests for the proposed power-aware test scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aging.model import AgingModel
from repro.core.criticality import CriticalityParameters, TestCriticality
from repro.core.scheduler import PowerAwareTestScheduler
from repro.platform.chip import Chip
from repro.platform.core import CoreState
from repro.power.budget import PowerBudget
from repro.power.meter import PowerMeter
from repro.sim.engine import Simulator
from repro.testing.runner import TestRunner
from repro.testing.sbst import default_library


def make_rig(sim, chip, tdp_w, **sched_kwargs):
    meter = PowerMeter(chip)
    budget = PowerBudget(tdp_w, guard_fraction=0.0)
    runner = TestRunner(sim, chip, meter, default_library(), AgingModel(chip.node))
    criticality = TestCriticality(CriticalityParameters())
    sched_kwargs.setdefault("min_interval_us", 0.0)
    scheduler = PowerAwareTestScheduler(
        chip, runner, meter, budget, criticality=criticality, **sched_kwargs
    )
    return meter, budget, runner, scheduler


def make_due(chip, core_ids, stress=50.0):
    for cid in core_ids:
        chip.core(cid).stress_since_test = stress


def test_no_candidates_before_threshold(sim, chip44):
    _, _, runner, sched = make_rig(sim, chip44, 20.0)
    sched.tick(now=10.0, dt=100.0)  # fresh cores: criticality ~ 0
    assert runner.stats.started == 0


def test_due_core_gets_tested_with_headroom(sim, chip44):
    _, _, runner, sched = make_rig(sim, chip44, 20.0)
    make_due(chip44, [5])
    sched.tick(now=10.0, dt=100.0)
    assert runner.stats.started == 1
    assert chip44.core(5).state is CoreState.TESTING


def test_candidates_ranked_by_criticality(sim, chip44):
    _, _, runner, sched = make_rig(sim, chip44, 20.0, max_concurrent=1)
    make_due(chip44, [2], stress=10.0)
    make_due(chip44, [9], stress=90.0)
    sched.tick(now=10.0, dt=100.0)
    assert chip44.core(9).state is CoreState.TESTING
    assert chip44.core(2).state is CoreState.IDLE


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_candidates_equal_rank_of_due_cores(data):
    # ``candidates`` evaluates each criticality once; the result must be
    # what ranking the ``is_due`` cores gives.
    chip = Chip.build(4, 4, "16nm", tdp_w=20.0)
    now = 5000.0
    # Few distinct values, so equal criticalities (id tie-breaks) and
    # cores exactly at the threshold and the interval are common.
    for core in chip:
        core.stress_since_test = data.draw(st.sampled_from([0.0, 2.0, 4.0, 50.0]))
        core.last_test_end = data.draw(
            st.sampled_from([0.0, 1000.0, 2000.0, 3000.0, 5000.0])
        )
        fate = data.draw(st.sampled_from(["idle", "idle", "owned", "busy", "testing"]))
        if fate == "owned":
            core.owner_app = 7
        elif fate == "busy":
            core.state = CoreState.BUSY
        elif fate == "testing":
            core.state = CoreState.TESTING
    min_interval = data.draw(st.sampled_from([0.0, 2000.0, 3000.0]))
    _, _, _, sched = make_rig(Simulator(), chip, 20.0, min_interval_us=min_interval)
    crit = sched.criticality
    due = [
        core
        for core in chip.idle_cores()
        if core.owner_app is None
        and now - core.last_test_end >= min_interval
        and crit.is_due(core, now)
    ]
    assert sched.candidates(now) == crit.rank(due, now)


def test_budget_limits_admissions(sim, chip44):
    meter, budget, runner, sched = make_rig(sim, chip44, 20.0, max_concurrent=16)
    make_due(chip44, range(16))
    sched.tick(now=10.0, dt=100.0)
    # All sessions admitted must fit under the guarded cap.
    assert 0 < runner.stats.started < 16
    assert meter.chip_power() <= budget.guarded_cap + 1e-9


def test_no_admission_without_headroom(sim, chip44):
    meter, _, runner, sched = make_rig(sim, chip44, 1.0)
    # Cap exactly at current consumption: zero headroom, nothing admitted.
    sched.budget = PowerBudget(meter.chip_power(), guard_fraction=0.0)
    make_due(chip44, range(16))
    sched.tick(now=10.0, dt=100.0)
    assert runner.stats.started == 0


def test_level_downgrade_when_preferred_does_not_fit(sim, chip44):
    # Budget that fits a near-threshold session but not a nominal one.
    meter, _, runner, sched = make_rig(
        sim, chip44, meter_probe_budget(chip44), level_policy="nominal"
    )
    make_due(chip44, [0])
    sched.tick(now=10.0, dt=100.0)
    assert runner.stats.started == 1
    session = runner.active_sessions()[0]
    assert session.level.index < len(chip44.vf_table) - 1
    assert sched.downgraded_levels == 1


def meter_probe_budget(chip):
    """A TDP that affords a min-level session but not a nominal one."""
    meter = PowerMeter(chip)
    runner = TestRunner(
        __import__("repro.sim.engine", fromlist=["Simulator"]).Simulator(),
        chip, meter, default_library(),
    )
    idle = meter.chip_power()
    low = runner.estimated_power(chip.vf_table.min_level)
    high = runner.estimated_power(chip.vf_table.max_level)
    assert low < high
    return idle + (low + high) / 2.0


def test_skip_counted_when_nothing_fits(sim, chip44):
    meter, _, runner, sched = make_rig(sim, chip44, 1.0)
    make_due(chip44, [0])
    # Harder case: some headroom exists but less than the cheapest session.
    cheap = runner.estimated_power(chip44.vf_table.min_level)
    sched.budget = PowerBudget(
        meter.chip_power() + cheap * 0.5, guard_fraction=0.0
    )
    sched.tick(now=10.0, dt=100.0)
    assert runner.stats.started == 0
    assert sched.skipped_no_budget == 1


def test_max_concurrent_cap(sim, chip44):
    _, _, runner, sched = make_rig(sim, chip44, 1000.0, max_concurrent=2)
    make_due(chip44, range(16))
    sched.tick(now=10.0, dt=100.0)
    assert runner.stats.started == 2


def test_emergency_aborts_youngest_first(sim, chip44):
    meter, budget, runner, sched = make_rig(sim, chip44, 1000.0, max_concurrent=4)
    make_due(chip44, range(4))
    sched.tick(now=10.0, dt=100.0)
    assert runner.stats.started == 4
    started_order = [s.core.core_id for s in sorted(
        runner.active_sessions(), key=lambda s: s.seq if hasattr(s, "seq") else 0
    )]
    # Shrink the budget below current consumption: emergency on next tick.
    sched.budget = PowerBudget(meter.chip_power() * 0.5, guard_fraction=0.0)
    sim.run(until=11.0)
    sched.tick(now=11.0, dt=100.0)
    assert sched.emergency_aborts > 0
    assert runner.stats.aborted == sched.emergency_aborts


def test_emergency_stops_when_under_cap(sim, chip44):
    meter, _, runner, sched = make_rig(sim, chip44, 1000.0, max_concurrent=4)
    make_due(chip44, range(4))
    sched.tick(now=10.0, dt=100.0)
    # A cap just barely below current power: one abort should suffice.
    session_cost = runner.estimated_power(runner.active_sessions()[0].level)
    sched.budget = PowerBudget(
        meter.chip_power() - 0.1 * session_cost, guard_fraction=0.0
    )
    sim.run(until=11.0)
    sched.tick(now=11.0, dt=100.0)
    assert sched.emergency_aborts == 1
    assert len(runner.active_sessions()) == 3


def test_owned_idle_cores_not_tested(sim, chip44):
    _, _, runner, sched = make_rig(sim, chip44, 1000.0)
    make_due(chip44, [3])
    chip44.core(3).owner_app = 7
    sched.tick(now=10.0, dt=100.0)
    assert runner.stats.started == 0


def test_min_interval_still_enforced(sim, chip44):
    _, _, runner, sched = make_rig(sim, chip44, 1000.0)
    sched.min_interval_us = 1000.0
    make_due(chip44, [3])
    chip44.core(3).last_test_end = 9.5
    sched.tick(now=10.0, dt=100.0)
    assert runner.stats.started == 0


def test_reserve_watts_shrinks_headroom(sim, chip44):
    meter, budget, runner, sched = make_rig(sim, chip44, 20.0, reserve_w=1000.0)
    make_due(chip44, range(16))
    sched.tick(now=10.0, dt=100.0)
    assert runner.stats.started == 0


def test_constructor_validation(sim, chip44):
    with pytest.raises(ValueError):
        make_rig(sim, chip44, 20.0, max_concurrent=0)
    with pytest.raises(ValueError):
        make_rig(sim, chip44, 20.0, reserve_w=-1.0)
