"""Tests for SBST test execution (the runner)."""

import random

import pytest

from repro.aging.faults import FaultInjector, FaultParameters
from repro.aging.model import AgingModel
from repro.platform.chip import Chip
from repro.platform.core import CoreState
from repro.power.meter import PowerMeter
from repro.testing.runner import TestRunner
from repro.testing.sbst import default_library


@pytest.fixture
def rig(sim, chip44):
    meter = PowerMeter(chip44)
    library = default_library()
    aging = AgingModel(chip44.node)
    injector = FaultInjector(
        chip44, FaultParameters(base_hazard_per_us=0.0), random.Random(1)
    )
    runner = TestRunner(sim, chip44, meter, library, aging, injector)
    return sim, chip44, meter, library, runner, injector


def test_start_moves_core_to_testing(rig):
    sim, chip, meter, library, runner, _ = rig
    core = chip.core(0)
    level = chip.vf_table.max_level
    session = runner.start(core, level)
    assert core.state is CoreState.TESTING
    assert core.level is level
    assert session.duration_us == pytest.approx(library.session_duration(level))
    assert runner.session_of(core) is session
    assert runner.stats.started == 1


def test_testing_core_burns_session_power(rig):
    sim, chip, meter, library, runner, _ = rig
    idle_power = meter.chip_power()
    runner.start(chip.core(0), chip.vf_table.max_level)
    assert meter.chip_power() > idle_power


def test_completion_restores_idle_and_credits(rig):
    sim, chip, meter, library, runner, _ = rig
    core = chip.core(0)
    core.stress_since_test = 5.0
    level = chip.vf_table[3]
    runner.start(core, level)
    sim.run()
    assert core.state is CoreState.IDLE
    assert core.tests_completed == 1
    assert core.stress_since_test == 0.0
    assert core.last_test_end == pytest.approx(library.session_duration(level))
    assert 3 in core.tested_levels
    assert core.level_last_test[3] == pytest.approx(core.last_test_end)
    assert runner.stats.completed == 1
    assert runner.stats.per_core_completed[0] == 1
    assert runner.stats.per_level_completed[3] == 1


def test_completion_restores_power_to_gated(rig):
    sim, chip, meter, library, runner, _ = rig
    before = meter.chip_power()
    runner.start(chip.core(0), chip.vf_table.max_level)
    sim.run()
    assert meter.chip_power() == pytest.approx(before)


def test_test_gap_recorded(rig):
    sim, chip, meter, library, runner, _ = rig
    core = chip.core(0)
    runner.start(core, chip.vf_table.max_level)
    sim.run()
    first_end = core.last_test_end
    sim.at(first_end + 100.0, runner.start, core, chip.vf_table.max_level)
    sim.run()
    assert len(runner.stats.test_gaps_us) == 2
    assert runner.stats.test_gaps_us[0] == pytest.approx(first_end)
    assert runner.stats.max_gap_us() >= runner.stats.mean_gap_us()


def test_abort_gives_no_credit(rig):
    sim, chip, meter, library, runner, _ = rig
    core = chip.core(0)
    core.stress_since_test = 5.0
    runner.start(core, chip.vf_table.max_level)
    sim.run(until=1.0)  # part-way through the session
    runner.abort(core)
    assert core.state is CoreState.IDLE
    assert core.tests_completed == 0
    assert core.stress_since_test == 5.0
    assert runner.stats.aborted == 1
    assert runner.stats.completed == 0
    # The cancelled finish event must not fire later.
    sim.run()
    assert runner.stats.completed == 0


def test_abort_without_session_raises(rig):
    _, chip, _, _, runner, _ = rig
    with pytest.raises(ValueError):
        runner.abort(chip.core(0))


def test_start_rejects_busy_or_owned_core(rig):
    sim, chip, _, _, runner, _ = rig
    busy = chip.core(0)
    busy.state = CoreState.BUSY
    with pytest.raises(ValueError):
        runner.start(busy, chip.vf_table.max_level)
    owned = chip.core(1)
    owned.owner_app = 9
    with pytest.raises(ValueError):
        runner.start(owned, chip.vf_table.max_level)


def test_detection_retires_core(rig):
    sim, chip, meter, library, runner, injector = rig
    from repro.aging.faults import FaultRecord

    core = chip.core(0)
    core.fault_present = True
    core.fault_injected_at = 0.0
    injector.records.append(
        FaultRecord(core_id=0, injected_at=0.0, manifest_level=0)
    )
    runner.start(core, chip.vf_table.max_level)
    # Force the coverage draw to succeed deterministically.
    injector.rng = random.Random(0)
    injector.rng.random = lambda: 0.0
    sim.run()
    assert core.state is CoreState.FAULTY
    assert core.fault_detected_at is not None
    assert runner.stats.detections == 1
    assert meter.core_power(core) == 0.0


def test_hooks_fire_on_completion(rig):
    sim, chip, _, _, runner, _ = rig
    seen = []
    runner.on_complete.append(lambda core, session: seen.append(core.core_id))
    runner.start(chip.core(2), chip.vf_table.max_level)
    sim.run()
    assert seen == [2]


def test_estimated_power_positive_and_monotonic(rig):
    _, chip, _, _, runner, _ = rig
    low = runner.estimated_power(chip.vf_table.min_level)
    high = runner.estimated_power(chip.vf_table.max_level)
    assert 0.0 < low < high


def test_estimated_power_without_core_prices_a_std_tile(sim):
    # Tile 0 is an IO tile: the no-core estimate must still price ``std``,
    # not whatever type happens to come first in the chip's catalog.
    chip = Chip.build(4, 4, "16nm", tdp_w=20.0, type_grid=("io",) + ("std",) * 15)
    runner = TestRunner(sim, chip, PowerMeter(chip), default_library())
    io_core, std_core = chip.core(0), chip.core(1)
    for level in chip.vf_table:
        assert runner.estimated_power(level) == runner.estimated_power(
            level, std_core
        )
        assert runner.estimated_power(level) != runner.estimated_power(
            level, io_core
        )


def test_concurrent_sessions_tracked(rig):
    sim, chip, _, _, runner, _ = rig
    runner.start(chip.core(0), chip.vf_table.max_level)
    runner.start(chip.core(1), chip.vf_table[2])
    assert len(runner.active_sessions()) == 2
    sim.run()
    assert runner.active_sessions() == []
    assert runner.stats.completed == 2


def test_low_level_test_takes_longer(rig):
    sim, chip, _, library, runner, _ = rig
    runner.start(chip.core(0), chip.vf_table.min_level)
    runner.start(chip.core(1), chip.vf_table.max_level)
    sessions = {s.core.core_id: s for s in runner.active_sessions()}
    assert sessions[0].duration_us > sessions[1].duration_us


# ----------------------------------------------------------------------
# Checkpointed (resumable) sessions
# ----------------------------------------------------------------------
@pytest.fixture
def ckpt_rig(sim, chip44):
    meter = PowerMeter(chip44)
    runner = TestRunner(
        sim, chip44, meter, default_library(),
        AgingModel(chip44.node), checkpointing=True,
    )
    return sim, chip44, runner


def test_checkpoint_resume_shortens_second_session(ckpt_rig):
    sim, chip, runner = ckpt_rig
    core = chip.core(0)
    level = chip.vf_table.max_level
    full = runner.library.session_duration(level)
    runner.start(core, level)
    sim.run(until=full / 2)
    runner.abort(core)
    resumed = runner.start(core, level)
    assert resumed.duration_us == pytest.approx(full / 2)
    assert runner.stats.resumed == 1


def test_checkpoint_only_valid_for_same_level(ckpt_rig):
    sim, chip, runner = ckpt_rig
    core = chip.core(0)
    top = chip.vf_table.max_level
    runner.start(core, top)
    sim.run(until=runner.library.session_duration(top) / 2)
    runner.abort(core)
    other = chip.vf_table[2]
    session = runner.start(core, other)
    assert session.duration_us == pytest.approx(
        runner.library.session_duration(other)
    )
    assert runner.stats.resumed == 0


def test_checkpoint_consumed_on_use(ckpt_rig):
    sim, chip, runner = ckpt_rig
    core = chip.core(0)
    level = chip.vf_table.max_level
    full = runner.library.session_duration(level)
    runner.start(core, level)
    sim.run(until=full / 2)
    runner.abort(core)
    runner.start(core, level)          # resumes, consumes checkpoint
    sim.run()                          # completes
    fresh = runner.start(core, level)  # no checkpoint left
    assert fresh.duration_us == pytest.approx(full)


def test_checkpoints_accumulate_across_aborts(ckpt_rig):
    sim, chip, runner = ckpt_rig
    core = chip.core(0)
    level = chip.vf_table.max_level
    full = runner.library.session_duration(level)
    runner.start(core, level)
    sim.run(until=full / 4)
    runner.abort(core)
    runner.start(core, level)
    sim.run(until=sim.now + full / 4)
    runner.abort(core)
    final = runner.start(core, level)
    assert final.duration_us == pytest.approx(full / 2)


def test_checkpointing_disabled_restarts_from_scratch(rig):
    sim, chip, meter, library, runner, _ = rig
    core = chip.core(0)
    level = chip.vf_table.max_level
    full = library.session_duration(level)
    runner.start(core, level)
    sim.run(until=full / 2)
    runner.abort(core)
    session = runner.start(core, level)
    assert session.duration_us == pytest.approx(full)
    assert runner.stats.resumed == 0
