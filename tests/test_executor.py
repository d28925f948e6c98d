"""Tests for the execution engine (task runs, transfers, DVFS re-timing)."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aging.model import AgingModel
from repro.core.executor import ExecutionEngine
from repro.noc.model import NocModel
from repro.noc.queued import QueuedNocModel
from repro.noc.topology import Mesh
from repro.platform.chip import Chip
from repro.platform.core import CoreState
from repro.power.meter import PowerMeter
from repro.sim.engine import Simulator
from repro.workload.application import ApplicationGraph, ApplicationInstance
from repro.workload.task import Edge, Task


@pytest.fixture
def rig(sim, chip44):
    mesh = Mesh(chip44.width, chip44.height)
    noc = NocModel(mesh)
    meter = PowerMeter(chip44)
    engine = ExecutionEngine(sim, chip44, noc, meter, AgingModel(chip44.node))
    return sim, chip44, noc, meter, engine


def single_task_app(ops=3500.0, app_id=1):
    graph = ApplicationGraph("single", [Task(0, ops=ops)], [])
    return ApplicationInstance(app_id, graph, arrival_time=0.0)


def chain_app(n=3, ops=3500.0, volume=100.0, app_id=1):
    tasks = [Task(i, ops=ops) for i in range(n)]
    edges = [Edge(i, i + 1, volume) for i in range(n - 1)]
    graph = ApplicationGraph("chain", tasks, edges)
    return ApplicationInstance(app_id, graph, arrival_time=0.0)


def test_admit_claims_cores_and_starts_roots(rig):
    sim, chip, noc, meter, engine = rig
    app = chain_app(3)
    engine.admit(app, {0: 0, 1: 1, 2: 2})
    assert chip.core(0).state is CoreState.BUSY
    assert chip.core(1).state is CoreState.IDLE   # waits for input
    assert all(chip.core(i).owner_app == 1 for i in range(3))
    assert app.start_time == 0.0
    assert engine.running_tasks() == 1


def test_single_task_runs_for_expected_duration(rig):
    sim, chip, noc, meter, engine = rig
    app = single_task_app(ops=7000.0)  # 2 µs at 3500 ops/µs nominal
    done = []
    engine.on_app_finished.append(lambda a, now: done.append(now))
    engine.admit(app, {0: 5})
    sim.run()
    assert done == [pytest.approx(2.0)]
    assert chip.core(5).state is CoreState.IDLE
    assert chip.core(5).owner_app is None


def test_chain_executes_in_order_with_transfer_latency(rig):
    sim, chip, noc, meter, engine = rig
    app = chain_app(2, ops=3500.0, volume=1000.0)
    engine.admit(app, {0: 0, 1: 1})
    sim.run()
    # task0: 1 µs; transfer: 1 hop * 0.005 + 1000/1000 = 1.005 µs; task1: 1 µs
    assert app.finish_time == pytest.approx(3.005)


def test_busy_window_records_execution(rig):
    sim, chip, noc, meter, engine = rig
    app = single_task_app(ops=7000.0)
    engine.admit(app, {0: 0})
    sim.run()
    assert chip.core(0).busy_window.total_busy == pytest.approx(2.0)


def test_meter_sees_task_activity(rig):
    sim, chip, noc, meter, engine = rig
    graph = ApplicationGraph("a", [Task(0, ops=35000.0, activity=0.5)], [])
    app = ApplicationInstance(1, graph, 0.0)
    engine.admit(app, {0: 0})
    level = chip.core(0).level
    expected = chip.node.dynamic_power(level.vdd, level.f_mhz, 0.5)
    assert meter.breakdown().workload == pytest.approx(expected)
    sim.run()
    assert meter.breakdown().workload == 0.0


def test_transfer_power_registered_during_flight(rig):
    sim, chip, noc, meter, engine = rig
    app = chain_app(2, volume=2000.0)
    engine.admit(app, {0: 0, 1: 3})
    sim.run(until=1.5)  # task0 done at 1.0; transfer in flight
    assert meter.breakdown().noc > 0.0
    sim.run()
    assert meter.breakdown().noc == pytest.approx(0.0)


def test_zero_volume_edge_transfers_immediately(rig):
    sim, chip, noc, meter, engine = rig
    tasks = [Task(0, 3500.0), Task(1, 3500.0)]
    graph = ApplicationGraph("z", tasks, [Edge(0, 1, 0.0)])
    app = ApplicationInstance(1, graph, 0.0)
    engine.admit(app, {0: 0, 1: 1})
    sim.run()
    assert app.finish_time == pytest.approx(2.0)


def test_diamond_join_waits_for_both_inputs(rig):
    sim, chip, noc, meter, engine = rig
    tasks = [Task(0, 3500.0), Task(1, 3500.0), Task(2, 7000.0), Task(3, 3500.0)]
    edges = [Edge(0, 1, 0.0), Edge(0, 2, 0.0), Edge(1, 3, 0.0), Edge(2, 3, 0.0)]
    app = ApplicationInstance(1, ApplicationGraph("d", tasks, edges), 0.0)
    engine.admit(app, {0: 0, 1: 1, 2: 2, 3: 3})
    sim.run()
    # t0: [0,1]; t1: [1,2]; t2: [1,3]; t3 waits for t2 -> [3,4]
    assert app.finish_time == pytest.approx(4.0)


def test_core_released_after_outgoing_transfers(rig):
    sim, chip, noc, meter, engine = rig
    app = chain_app(2, volume=1000.0)
    engine.admit(app, {0: 0, 1: 1})
    sim.run(until=1.5)
    # task0 finished at 1.0 but its transfer is still draining.
    assert chip.core(0).state is CoreState.IDLE
    assert chip.core(0).owner_app == 1
    sim.run(until=2.2)  # transfer done at ~2.005
    assert chip.core(0).owner_app is None


def test_cores_freed_hook_fires(rig):
    sim, chip, noc, meter, engine = rig
    freed = []
    engine.on_cores_freed.append(freed.append)
    engine.admit(single_task_app(), {0: 0})
    sim.run()
    assert len(freed) == 1


def test_task_finished_hook(rig):
    sim, chip, noc, meter, engine = rig
    seen = []
    engine.on_task_finished.append(
        lambda app, task_id, now: seen.append(task_id)
    )
    engine.admit(chain_app(3), {0: 0, 1: 1, 2: 2})
    sim.run()
    assert seen == [0, 1, 2]


def test_change_level_retimes_task(rig):
    """The core re-timing invariant: total ops executed equals task ops."""
    sim, chip, noc, meter, engine = rig
    app = single_task_app(ops=7000.0)  # 2 µs at nominal
    done = []
    engine.on_app_finished.append(lambda a, now: done.append(now))
    engine.admit(app, {0: 0})
    core = chip.core(0)
    half_level = chip.vf_table[0]
    sim.at(1.0, engine.change_level, core, half_level)  # 3500 ops left
    sim.run()
    expected = 1.0 + 3500.0 / half_level.speed
    assert done == [pytest.approx(expected)]


def test_change_level_multiple_times(rig):
    sim, chip, noc, meter, engine = rig
    app = single_task_app(ops=7000.0)
    done = []
    engine.on_app_finished.append(lambda a, now: done.append(now))
    engine.admit(app, {0: 0})
    core = chip.core(0)
    low = chip.vf_table[0]
    sim.at(0.5, engine.change_level, core, low)
    back = chip.vf_table.max_level
    sim.at(0.5 + 1.0, engine.change_level, core, back)
    sim.run()
    # 0.5 µs at 3500 = 1750 ops; 1.0 µs at low speed; rest at 3500.
    ops_after_low = 7000.0 - 1750.0 - 1.0 * low.speed
    expected = 1.5 + ops_after_low / 3500.0
    assert done == [pytest.approx(expected)]


def test_two_level_changes_at_same_instant_last_wins(rig):
    """Two actuations in one event round: the later call sets the speed."""
    sim, chip, noc, meter, engine = rig
    app = single_task_app(ops=7000.0)
    done = []
    engine.on_app_finished.append(lambda a, now: done.append(now))
    engine.admit(app, {0: 0})
    core = chip.core(0)
    low = chip.vf_table[0]
    high = chip.vf_table.max_level
    sim.at(1.0, engine.change_level, core, low)
    sim.at(1.0, engine.change_level, core, high)  # fires second, wins
    sim.run()
    assert core.level.index == high.index or done  # level restored on finish
    assert done == [pytest.approx(2.0)]  # same as never slowing down


def test_change_level_same_level_is_noop(rig):
    sim, chip, noc, meter, engine = rig
    engine.admit(single_task_app(), {0: 0})
    core = chip.core(0)
    before = core.busy_until
    engine.change_level(core, core.level)
    assert core.busy_until == before


def test_change_level_on_idle_core_raises(rig):
    sim, chip, noc, meter, engine = rig
    with pytest.raises(ValueError):
        engine.change_level(chip.core(0), chip.vf_table[0])


def test_change_level_accrues_aging_per_segment(rig):
    sim, chip, noc, meter, engine = rig
    app = single_task_app(ops=7000.0)
    engine.admit(app, {0: 0})
    core = chip.core(0)
    sim.at(1.0, engine.change_level, core, chip.vf_table[0])
    sim.run()
    assert core.age_stress > 0.0


def test_admit_rejects_incomplete_placement(rig):
    sim, chip, noc, meter, engine = rig
    with pytest.raises(ValueError, match="placement"):
        engine.admit(chain_app(3), {0: 0, 1: 1})


def test_admit_rejects_duplicate_cores(rig):
    sim, chip, noc, meter, engine = rig
    with pytest.raises(ValueError, match="one core"):
        engine.admit(chain_app(2), {0: 0, 1: 0})


def test_admit_rejects_unavailable_core(rig):
    sim, chip, noc, meter, engine = rig
    chip.core(0).state = CoreState.BUSY
    with pytest.raises(ValueError, match="not allocatable"):
        engine.admit(single_task_app(), {0: 0})


def test_two_apps_run_concurrently(rig):
    sim, chip, noc, meter, engine = rig
    finished = []
    engine.on_app_finished.append(lambda a, now: finished.append(a.app_id))
    engine.admit(single_task_app(app_id=1), {0: 0})
    engine.admit(single_task_app(app_id=2), {0: 5})
    sim.run()
    assert sorted(finished) == [1, 2]
    assert engine.active_apps() == 0


def test_start_level_provider_used(rig):
    sim, chip, noc, meter, engine = rig
    low = chip.vf_table[1]
    engine.start_level_provider = lambda core, activity: low
    engine.admit(single_task_app(), {0: 0})
    assert chip.core(0).level is low


def test_dvfs_transition_stall_delays_completion(sim, chip44):
    """A V/f switch costs the configured settling stall."""
    from repro.aging.model import AgingModel
    from repro.core.executor import ExecutionEngine
    from repro.noc.model import NocModel
    from repro.noc.topology import Mesh
    from repro.power.meter import PowerMeter

    engine = ExecutionEngine(
        sim, chip44, NocModel(Mesh(4, 4)), PowerMeter(chip44),
        AgingModel(chip44.node), dvfs_transition_us=10.0,
    )
    app = single_task_app(ops=7000.0)
    done = []
    engine.on_app_finished.append(lambda a, now: done.append(now))
    engine.admit(app, {0: 0})
    core = chip44.core(0)
    sim.at(1.0, engine.change_level, core, chip44.vf_table.max_level)  # no-op
    low = chip44.vf_table[0]
    sim.at(1.0, engine.change_level, core, low)
    sim.run()
    expected = 1.0 + 10.0 + 3500.0 / low.speed
    assert done == [pytest.approx(expected)]
    assert engine.dvfs_transitions == 1  # the same-level call was free


def test_dvfs_transition_validation(sim, chip44):
    from repro.core.executor import ExecutionEngine
    from repro.noc.model import NocModel
    from repro.noc.topology import Mesh
    from repro.power.meter import PowerMeter

    with pytest.raises(ValueError):
        ExecutionEngine(
            sim, chip44, NocModel(Mesh(4, 4)), PowerMeter(chip44),
            dvfs_transition_us=-1.0,
        )


def test_system_level_transition_overhead_costs_throughput():
    from dataclasses import replace

    from repro.core.system import SystemConfig, run_system

    base = SystemConfig(horizon_us=10_000.0, seed=5, arrival_rate_per_ms=8.0)
    free = run_system(base)
    costly = run_system(replace(base, dvfs_transition_us=50.0))
    assert costly.throughput_ops_per_us <= free.throughput_ops_per_us


def test_level_change_mid_stall_credits_no_progress(sim, chip44):
    """A switch landing inside a previous switch's stall loses no ops."""
    from repro.aging.model import AgingModel
    from repro.core.executor import ExecutionEngine
    from repro.noc.model import NocModel
    from repro.noc.topology import Mesh
    from repro.power.meter import PowerMeter

    engine = ExecutionEngine(
        sim, chip44, NocModel(Mesh(4, 4)), PowerMeter(chip44),
        AgingModel(chip44.node), dvfs_transition_us=10.0,
    )
    app = single_task_app(ops=7000.0)
    done = []
    engine.on_app_finished.append(lambda a, now: done.append(now))
    engine.admit(app, {0: 0})
    core = chip44.core(0)
    mid = chip44.vf_table[4]
    top = chip44.vf_table.max_level
    sim.at(1.0, engine.change_level, core, mid)   # stall [1, 11]
    sim.at(5.0, engine.change_level, core, top)   # mid-stall switch back
    sim.run()
    # 3500 ops done by t=1; no progress in [1, 5]; new stall [5, 15];
    # remaining 3500 ops at nominal finish at 15 + 1.
    assert done == [pytest.approx(16.0)]


# ----------------------------------------------------------------------
# Oracle: the executor's transfer path == begin_transfer/end_transfer
# ----------------------------------------------------------------------
_flits = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=5_000.0),
    st.integers(min_value=1, max_value=400).map(float),
)


@st.composite
def transfer_scripts(draw):
    """A mesh and transfers ``(src core, dst core, flits, gap_us)``; each
    starts ``gap_us`` after the previous one, so starts and completions
    of earlier transfers interleave."""
    width = draw(st.integers(2, 8))
    height = draw(st.integers(2, 8))
    core = st.integers(0, width * height - 1)
    pair = st.one_of(core.map(lambda c: (c, c)), st.tuples(core, core))
    steps = draw(
        st.lists(
            st.tuples(pair, _flits, st.sampled_from([0.0, 0.05, 0.3, 2.0, 9.0])),
            min_size=1,
            max_size=30,
        )
    )
    return width, height, [(s, d, f, gap) for (s, d), f, gap in steps]


def _link_state(noc, mesh):
    """Link loads (analytic model) or link free times (queued model)."""
    if isinstance(noc, QueuedNocModel):
        return [
            noc.link_free_at((pos, other))
            for pos in mesh.positions()
            for other in mesh.neighbors(pos)
        ]
    return noc.link_loads()


def _totals(noc):
    return (
        noc.total_flits,
        noc.total_flit_hops,
        noc.total_energy_uj,
        getattr(noc, "total_queue_wait_us", None),
    )


def _through_executor(model, width, height, steps):
    """Drive ``ExecutionEngine._start_transfer``; record per transfer the
    NoC power it registers and the time its completion fires."""
    sim = Simulator()
    chip = Chip.build(width, height)
    mesh = Mesh(width, height)
    noc = model(mesh)
    meter = PowerMeter(chip)
    engine = ExecutionEngine(sim, chip, noc, meter)
    powers, finished, states = [], [], []
    add_noc_power = meter.add_noc_power
    meter.add_noc_power = lambda watts: (powers.append(watts), add_noc_power(watts))
    # Transfer i is edge i, from task 2i (on core src) to task 2i + 1.
    structure = SimpleNamespace(src=[], dst=[], volume=[])
    app = SimpleNamespace(placement={}, structure=structure)
    engine._finish_transfer = lambda app, edge, *_: finished.append(
        (sim.now, structure.src[edge])
    )
    for i, (src, dst, flits, gap) in enumerate(steps):
        sim.run(until=sim.now + gap)
        app.placement[2 * i], app.placement[2 * i + 1] = src, dst
        structure.src.append(2 * i)
        structure.dst.append(2 * i + 1)
        structure.volume.append(flits)
        engine._start_transfer(app, i)
        states.append((_link_state(noc, mesh), _totals(noc)))
    sim.run()
    states.append((_link_state(noc, mesh), _totals(noc)))
    return powers, finished, states


def _through_begin_end(model, width, height, steps):
    """The same transfers through ``begin_transfer``/``end_transfer``."""
    sim = Simulator()
    mesh = Mesh(width, height)
    noc = model(mesh)
    powers, finished, states = [], [], []

    def end(src, dst, flits, task):
        noc.end_transfer(src, dst, flits)
        finished.append((sim.now, task))

    for i, (src, dst, flits, gap) in enumerate(steps):
        sim.run(until=sim.now + gap)
        src_pos, dst_pos = mesh.position(src), mesh.position(dst)
        estimate = noc.begin_transfer(src_pos, dst_pos, flits, now=sim.now)
        if estimate.latency_us <= 0:
            end(src_pos, dst_pos, flits, 2 * i)
        else:
            powers.append(estimate.energy_uj / estimate.latency_us)
            sim.schedule(estimate.latency_us, end, src_pos, dst_pos, flits, 2 * i)
        states.append((_link_state(noc, mesh), _totals(noc)))
    sim.run()
    states.append((_link_state(noc, mesh), _totals(noc)))
    return powers, finished, states


@pytest.mark.parametrize("model", [NocModel, QueuedNocModel])
@settings(max_examples=60, deadline=None)
@given(script=transfer_scripts())
def test_executor_transfers_match_begin_end_transfer(model, script):
    width, height, steps = script
    assert _through_executor(model, width, height, steps) == _through_begin_end(
        model, width, height, steps
    )
