"""Cross-cutting property-based tests on system invariants.

These use hypothesis to drive the integrated machinery with randomised
structure and assert the invariants the reproduction's claims rest on:
work conservation under DVFS re-timing, placement validity, budget
arithmetic, and end-state consistency of full simulations.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aging.model import AgingModel
from repro.core.executor import ExecutionEngine
from repro.noc.model import NocModel
from repro.noc.topology import Mesh
from repro.platform.chip import Chip
from repro.platform.core import CoreState
from repro.power.meter import PowerMeter
from repro.sim.engine import Simulator
from repro.workload.application import ApplicationGraph, ApplicationInstance
from repro.workload.generator import PROFILE_PRESETS, TaskGraphGenerator
from repro.workload.task import Task


def build_engine(chip):
    sim = Simulator()
    mesh = Mesh(chip.width, chip.height)
    noc = NocModel(mesh)
    meter = PowerMeter(chip)
    engine = ExecutionEngine(sim, chip, noc, meter, AgingModel(chip.node))
    return sim, engine, meter


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_any_generated_app_executes_to_completion(seed):
    """Every generated DAG runs to completion and frees all cores."""
    chip = Chip.build(6, 6)
    sim, engine, meter = build_engine(chip)
    gen = TaskGraphGenerator(random.Random(seed))
    graph = gen.generate(PROFILE_PRESETS["medium"])
    app = ApplicationInstance(1, graph, 0.0)
    order = app.structure.topo_order
    placement = {task_id: i for i, task_id in enumerate(order)}
    finished = []
    engine.on_app_finished.append(lambda a, now: finished.append(a.app_id))
    engine.admit(app, placement)
    sim.run()
    assert finished == [1]
    assert app.is_finished()
    assert all(core.owner_app is None for core in chip)
    assert all(core.state is CoreState.IDLE for core in chip)
    # Power fully returned to the gated-idle floor.
    assert meter.breakdown().workload == 0.0
    assert meter.noc_power == pytest.approx(0.0)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=1000),
    st.lists(
        st.tuples(
            st.floats(min_value=0.05, max_value=0.95),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=6,
        unique_by=lambda pair: pair[0],
    ),
)
def test_dvfs_retiming_conserves_work(seed, switches):
    """Arbitrary level switches: executed ops always equal task ops.

    Duration under switching must equal the piecewise sum of segment
    durations, never losing or duplicating operations.
    """
    chip = Chip.build(2, 2)
    sim, engine, _ = build_engine(chip)
    ops = 50_000.0
    graph = ApplicationGraph("single", [Task(0, ops=ops)], [])
    app = ApplicationInstance(1, graph, 0.0)
    finish_times = []
    engine.on_app_finished.append(lambda a, now: finish_times.append(now))
    engine.admit(app, {0: 0})
    core = chip.core(0)

    nominal_duration = ops / chip.vf_table.max_level.speed
    ordered = sorted(switches, key=lambda pair: pair[0])
    for fraction, level_index in ordered:
        at = fraction * nominal_duration
        level = chip.vf_table[level_index]

        def switch(lvl=level):
            if core.is_busy():
                engine.change_level(core, lvl)

        sim.at(at, switch)
    sim.run()
    assert len(finish_times) == 1
    # Replay the segment arithmetic independently.
    events = [
        (f * nominal_duration, chip.vf_table[i].speed) for f, i in ordered
    ]
    t = 0.0
    speed = chip.vf_table.max_level.speed
    remaining = ops
    for at, new_speed in events:
        if at >= t + remaining / speed:
            break
        remaining -= (at - t) * speed
        t = at
        speed = new_speed
    expected = t + remaining / speed
    assert finish_times[0] == pytest.approx(expected, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_full_system_invariants_hold(seed):
    """Short full-system runs keep their conservation invariants."""
    from tests.conftest import small_system_config
    from repro.core.system import ManycoreSystem

    config = small_system_config(
        horizon_us=4_000.0,
        profile_names=("small",),
        profile_weights=(1.0,),
        seed=seed,
        min_test_interval_us=500.0,
    )
    system = ManycoreSystem(config)
    result = system.run()
    m = result.metrics
    assert m.apps_arrived >= m.apps_admitted >= m.apps_completed
    assert result.metrics.audit.violation_rate == 0.0  # power-aware default
    # Cores are in exactly one consistent state.
    for core in system.chip:
        states = [core.is_idle(), core.is_busy(), core.is_testing(), core.is_faulty()]
        assert sum(states) == 1
        if core.is_busy():
            assert system.executor.execution_on(core) is not None
    # Test accounting is self-consistent.
    assert result.test_stats.started == (
        result.test_stats.completed
        + result.test_stats.aborted
        + len(system.runner.active_sessions())
    )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=1000),
)
def test_mapping_placements_always_disjoint_across_apps(width, height, seed):
    """Two sequentially mapped apps never share a core."""
    from repro.mapping.base import MappingContext
    from repro.mapping.baselines import ContiguousMapper

    chip = Chip.build(width, height)
    mesh = Mesh(width, height)
    gen = TaskGraphGenerator(random.Random(seed))
    mapper = ContiguousMapper()
    used = set()
    for app_id in (1, 2):
        graph = gen.generate(PROFILE_PRESETS["small"])
        app = ApplicationInstance(app_id, graph, 0.0)
        available = [c for c in chip.free_cores()]
        ctx = MappingContext(chip, mesh, 0.0, available)
        placement = mapper.map_application(app, ctx)
        if placement is None:
            assert len(graph) > len(available)
            continue
        cores = set(placement.values())
        assert not (cores & used)
        used |= cores
        for core_id in cores:
            chip.core(core_id).owner_app = app_id
