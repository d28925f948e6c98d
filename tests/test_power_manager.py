"""Tests for power-management policies (PID, naive, worst-case, no-op)."""

import pytest

from repro.platform.core import CoreState
from repro.power.budget import PowerBudget
from repro.power.manager import (
    NaiveTDPManager,
    NoOpPowerManager,
    PIDPowerManager,
    WorstCaseTDPManager,
    make_power_manager,
)
from repro.power.meter import PowerMeter


def direct_actuator(core, level):
    """Test double for the executor: apply the level with no re-timing."""
    core.level = level


def make(chip, policy, tdp):
    meter = PowerMeter(chip)
    budget = PowerBudget(tdp, guard_fraction=0.0)
    manager = make_power_manager(policy, chip, meter, budget)
    manager.bind_actuator(direct_actuator)
    return manager, meter, budget


def occupy(chip, n, level=None):
    """Mark the first ``n`` cores busy at ``level`` (default nominal)."""
    lvl = level if level is not None else chip.vf_table.max_level
    for i in range(n):
        core = chip.core(i)
        core.state = CoreState.BUSY
        core.level = lvl
    return [chip.core(i) for i in range(n)]


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
def test_factory_known_policies(chip44):
    for policy, cls in (
        ("pid", PIDPowerManager),
        ("naive", NaiveTDPManager),
        ("worst-case", WorstCaseTDPManager),
        ("none", NoOpPowerManager),
    ):
        manager, _, _ = make(chip44, policy, 20.0)
        assert isinstance(manager, cls)
        assert manager.name == policy


def test_factory_unknown_policy(chip44):
    meter = PowerMeter(chip44)
    with pytest.raises(ValueError, match="unknown power policy"):
        make_power_manager("bogus", chip44, meter, PowerBudget(20.0))


# ----------------------------------------------------------------------
# NoOp
# ----------------------------------------------------------------------
def test_noop_never_changes_levels(chip44):
    manager, _, _ = make(chip44, "none", 1.0)  # absurdly tight budget
    cores = occupy(chip44, 16)
    manager.tick(0.0, 100.0)
    assert all(c.level.index == len(chip44.vf_table) - 1 for c in cores)
    assert manager.level_changes == 0


# ----------------------------------------------------------------------
# Naive
# ----------------------------------------------------------------------
def test_naive_steps_down_when_over_cap(chip44):
    manager, meter, _ = make(chip44, "naive", 5.0)
    cores = occupy(chip44, 16)
    assert meter.chip_power() > 5.0
    manager.tick(0.0, 100.0)
    top = len(chip44.vf_table) - 1
    assert all(c.level.index == top - 1 for c in cores)


def test_naive_steps_up_when_far_below_cap(chip44):
    manager, _, _ = make(chip44, "naive", 1000.0)
    cores = occupy(chip44, 2, level=chip44.vf_table[2])
    manager._global_level = chip44.vf_table[2]
    manager.tick(0.0, 100.0)
    assert all(c.level.index == 3 for c in cores)


def test_naive_holds_between_thresholds(chip44):
    manager, meter, budget = make(chip44, "naive", 20.0)
    occupy(chip44, 5)  # ~15.5 W: between 0.7*20 and 20
    power = meter.chip_power()
    assert 0.7 * budget.guarded_cap < power <= budget.guarded_cap
    manager.tick(0.0, 100.0)
    assert manager.level_changes == 0


def test_naive_start_level_follows_global(chip44):
    manager, _, _ = make(chip44, "naive", 5.0)
    occupy(chip44, 16)
    manager.tick(0.0, 100.0)
    assert manager.preferred_start_level().index == len(chip44.vf_table) - 2


def test_naive_relax_fraction_validation(chip44):
    meter = PowerMeter(chip44)
    with pytest.raises(ValueError):
        NaiveTDPManager(chip44, meter, PowerBudget(20.0), relax_fraction=1.5)


# ----------------------------------------------------------------------
# Worst-case
# ----------------------------------------------------------------------
def test_worst_case_slot_arithmetic(chip44):
    manager, _, _ = make(chip44, "worst-case", 20.0)
    peak = chip44.tech_model.peak_core_power(
        chip44.node, chip44.core_types[0]
    )
    expected = int(20.0 / peak)
    assert manager.max_active_cores() == expected
    assert manager.spare_core_slots() == expected
    occupy(chip44, 2)
    assert manager.spare_core_slots() == expected - 2


def test_worst_case_slots_never_negative(chip44):
    manager, _, _ = make(chip44, "worst-case", 20.0)
    occupy(chip44, 16)
    assert manager.spare_core_slots() == 0


def test_worst_case_counts_testing_cores(chip44):
    manager, _, _ = make(chip44, "worst-case", 20.0)
    before = manager.spare_core_slots()
    chip44.core(0).state = CoreState.TESTING
    assert manager.spare_core_slots() == before - 1


def test_worst_case_never_uses_dvfs(chip44):
    manager, _, _ = make(chip44, "worst-case", 20.0)
    occupy(chip44, 16)
    manager.tick(0.0, 100.0)
    assert manager.level_changes == 0


def test_dvfs_policies_have_no_slot_limit(chip44):
    for policy in ("pid", "naive", "none"):
        manager, _, _ = make(chip44, policy, 20.0)
        assert manager.spare_core_slots() is None


# ----------------------------------------------------------------------
# PID
# ----------------------------------------------------------------------
def test_pid_throttles_over_budget_chip(chip44):
    manager, meter, budget = make(chip44, "pid", 20.0)
    occupy(chip44, 16)  # ~49 W >> 20 W
    before = meter.chip_power()
    for _ in range(20):
        manager.tick(0.0, 100.0)
    after = meter.chip_power()
    assert after < before
    assert after <= budget.guarded_cap * 1.05


def test_pid_raises_levels_with_headroom(chip44):
    manager, meter, budget = make(chip44, "pid", 20.0)
    cores = occupy(chip44, 2, level=chip44.vf_table[0])
    for _ in range(30):
        manager.tick(100.0, 100.0)
    # Two cores at nominal are ~6.2 W << 20 W: PID should lift them fully.
    assert all(c.level.index == len(chip44.vf_table) - 1 for c in cores)


def test_pid_does_not_touch_testing_cores(chip44):
    manager, _, _ = make(chip44, "pid", 1.0)
    core = chip44.core(0)
    core.state = CoreState.TESTING
    level_before = core.level.index
    manager.tick(0.0, 100.0)
    assert core.level.index == level_before


def test_pid_start_level_fits_headroom(chip44):
    manager, meter, budget = make(chip44, "pid", 20.0)
    occupy(chip44, 6)  # ~18.6 W of 20 W: nominal no longer fits
    level = manager.start_level_for(chip44.core(10), activity=1.0)
    added = meter.added_power_if_busy(chip44.core(10), level, 1.0)
    assert meter.chip_power() + added <= budget.guarded_cap + 1e-9
    assert level.index < len(chip44.vf_table) - 1


def test_pid_start_level_floor_when_no_headroom(chip44):
    manager, _, _ = make(chip44, "pid", 1.0)
    occupy(chip44, 16)
    level = manager.start_level_for(chip44.core(0), activity=1.0)
    assert level.index == 0


def test_pid_start_level_max_on_empty_chip(chip44):
    manager, _, _ = make(chip44, "pid", 20.0)
    level = manager.start_level_for(chip44.core(0), activity=1.0)
    assert level.index == len(chip44.vf_table) - 1


def test_unbound_actuator_raises(chip44):
    meter = PowerMeter(chip44)
    manager = PIDPowerManager(chip44, meter, PowerBudget(1.0))
    occupy(chip44, 16)
    with pytest.raises(RuntimeError, match="no level actuator"):
        manager.tick(0.0, 100.0)


# ----------------------------------------------------------------------
# TSP (Thermal Safe Power)
# ----------------------------------------------------------------------
def test_tsp_cap_is_guarded_tdp_when_idle(chip44):
    manager, _, budget = make(chip44, "tsp", 20.0)
    assert manager.current_cap() == pytest.approx(budget.guarded_cap)


def test_tsp_cap_formula_matches_helper(chip44):
    from repro.platform.thermal import thermal_safe_power

    manager, _, _ = make(chip44, "tsp", 1000.0)  # TDP never binds
    occupy(chip44, 4)
    expected = 4 * thermal_safe_power(chip44, manager.thermal_params, 4)
    assert manager.current_cap() == pytest.approx(expected)


def test_tsp_cap_never_exceeds_tdp(chip44):
    manager, _, budget = make(chip44, "tsp", 20.0)
    occupy(chip44, 4)
    assert manager.current_cap() <= budget.guarded_cap + 1e-9


def test_tsp_throttles_towards_thermal_cap(chip44):
    """With a roomy TDP, the thermal term is what limits power."""
    from repro.platform.thermal import ThermalParameters
    from repro.power.manager import TSPPowerManager

    meter = PowerMeter(chip44)
    budget = PowerBudget(1000.0, guard_fraction=0.0)
    tight = ThermalParameters(r_self_c_per_w=30.0, limit_c=70.0)
    manager = TSPPowerManager(chip44, meter, budget, thermal_params=tight)
    manager.bind_actuator(direct_actuator)
    occupy(chip44, 16)  # ~49 W at nominal
    for _ in range(30):
        manager.tick(0.0, 100.0)
    assert meter.chip_power() <= manager.current_cap() * 1.1


def test_tsp_in_factory(chip44):
    from repro.power.manager import TSPPowerManager

    manager, _, _ = make(chip44, "tsp", 20.0)
    assert isinstance(manager, TSPPowerManager)
    assert manager.name == "tsp"


def test_tsp_system_run():
    from repro.core.system import SystemConfig, run_system

    result = run_system(
        SystemConfig(power_policy="tsp", horizon_us=5_000.0, seed=3)
    )
    assert result.power_policy_name == "tsp"
    assert result.metrics.audit.violation_rate == 0.0
