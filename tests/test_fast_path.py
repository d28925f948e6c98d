"""Fast-path regression tests.

The simulation fast path (incremental power meter, indexed chip state,
cached NoC routing, bisected DVFS selection, parallel sweeps) is an exact
refactor: every shortcut must be observably identical to the reference
algorithm it replaced.  These tests pin that equivalence directly instead
of relying only on the end-to-end digests.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.model import NocModel
from repro.noc.routing import link_id, xy_link_ids, xy_links
from repro.noc.topology import Mesh
from repro.platform.chip import Chip
from repro.platform.core import CoreState
from repro.power.budget import PowerBudget
from repro.power.manager import PIDPowerManager
from repro.power.meter import PowerMeter

CHANNELS = ("workload", "test", "leakage", "noc")
STATES = (CoreState.IDLE, CoreState.BUSY, CoreState.TESTING, CoreState.FAULTY)


def _assert_breakdown_matches_scan(meter: PowerMeter) -> None:
    # Exact: the meter promises the scan's floats bit for bit, so a
    # tolerance would let a reordered sum through.
    fast = meter.breakdown()
    reference = meter.scan_breakdown()
    for channel in CHANNELS:
        assert getattr(fast, channel) == getattr(reference, channel), channel


# ----------------------------------------------------------------------
# Incremental power accounting == full scan
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),   # core
            st.integers(min_value=0, max_value=8),    # op kind
            st.integers(min_value=0, max_value=7),    # parameter
        ),
        min_size=1,
        max_size=60,
    )
)
def test_incremental_breakdown_matches_scan_under_random_transitions(ops):
    chip = Chip.build(4, 4, "16nm", tdp_w=20.0)
    meter = PowerMeter(chip)
    table = chip.vf_table
    n = len(chip.cores)
    for core_idx, kind, param in ops:
        core = chip.cores[core_idx]
        # Ops 5 and 6 act on the busy (even parameter) or testing (odd)
        # set as a whole: empty it, or refill a run of cores into it.
        # Ops 7 and 8 read single cores and every core between changes.
        channel_state = CoreState.BUSY if param % 2 == 0 else CoreState.TESTING
        if kind == 0:
            core.state = STATES[param % len(STATES)]
        elif kind == 1:
            core.level = table.clamp(param)
        elif kind == 2:
            meter.set_core_activity(core, param / 4.0)
        elif kind == 3:
            meter.set_core_activity(core, None)
        elif kind == 4:
            core.leak_factor = 1.0 + param * 0.05
        elif kind == 5:
            for member in list(chip.cores_in_state(channel_state)):
                member.state = CoreState.IDLE
        elif kind == 6:
            for offset in range(param + 1):
                chip.cores[(core_idx + offset) % n].state = channel_state
        elif kind == 7:
            # Move the core's level before each single-core read: each
            # reader must refresh it (and every other dirty core) and
            # read what the live-state level path derives.
            for read in ("core_power", "core_dynamic", "core_leakage"):
                core.level = table[(core.level.index + 1 + param) % len(table)]
                got = getattr(meter, read)(core)
                assert got == getattr(meter, read)(core, core.level), read
        else:
            for offset in range(param + 1):
                member = chip.cores[(core_idx + offset) % n]
                member.level = table[(member.level.index + 1) % len(table)]
            assert meter.core_powers() == [
                meter.core_power(member, member.level) for member in chip.cores
            ]
        _assert_breakdown_matches_scan(meter)
        # An empty channel reads int 0, as the sum over no members does.
        fast = meter.breakdown()
        for channel, state in (
            ("workload", CoreState.BUSY),
            ("test", CoreState.TESTING),
        ):
            empty = not chip.state_ids(state)
            assert (type(getattr(fast, channel)) is int) == empty, channel


@pytest.mark.parametrize(
    "state, channel",
    [(CoreState.BUSY, "workload"), (CoreState.TESTING, "test")],
    ids=["busy", "testing"],
)
def test_zero_watt_member_still_moves_its_channel(chip44, state, channel):
    # At activity 0 a core draws 0.0 W, so entering or leaving the channel
    # changes no per-core watts, only membership: the channel must still
    # turn from the empty int 0 into the scan's float 0.0 and back.
    meter = PowerMeter(chip44)
    core = chip44.cores[3]
    meter.set_core_activity(core, 0.0)
    empty = getattr(meter.breakdown(), channel)
    assert empty == 0 and type(empty) is int
    core.state = state
    lit = getattr(meter.breakdown(), channel)
    assert lit == 0.0 and type(lit) is float
    _assert_breakdown_matches_scan(meter)
    core.state = CoreState.IDLE
    empty = getattr(meter.breakdown(), channel)
    assert empty == 0 and type(empty) is int


def test_breakdown_matches_scan_under_churn(chip44):
    meter = PowerMeter(chip44)
    for step, core in enumerate(chip44):
        core.state = CoreState.BUSY if step % 2 == 0 else CoreState.TESTING
        meter.set_core_activity(core, 0.5 + step * 0.1)
        _assert_breakdown_matches_scan(meter)
        core.state = CoreState.IDLE
        _assert_breakdown_matches_scan(meter)


def test_stale_activity_cleared_when_core_retires(chip44):
    meter = PowerMeter(chip44)
    core = chip44.cores[5]
    core.state = CoreState.BUSY
    meter.set_core_activity(core, 3.0)
    assert meter.breakdown().workload > 0.0
    core.state = CoreState.FAULTY
    assert meter.breakdown().workload == 0.0
    # The 3.0 factor must not leak into the core's next life: it restarts
    # on the default activity until the engine sets a fresh factor.
    core.state = CoreState.BUSY
    node = chip44.node
    assert meter.core_dynamic(core) == node.dynamic_power(
        core.level.vdd, core.level.f_mhz, meter.default_activity
    )
    _assert_breakdown_matches_scan(meter)


def test_stale_activity_cleared_on_power_gating(chip44):
    meter = PowerMeter(chip44)
    core = chip44.cores[0]
    core.state = CoreState.TESTING
    meter.set_core_activity(core, 2.0)
    core.state = CoreState.IDLE
    assert core.core_id not in meter._core_activity
    _assert_breakdown_matches_scan(meter)


# ----------------------------------------------------------------------
# Indexed chip state
# ----------------------------------------------------------------------
def test_free_count_tracks_direct_owner_and_state_writes(chip44):
    def check():
        free = chip44.free_cores()
        assert chip44.n_free_cores() == len(free)
        assert [c.core_id for c in free] == sorted(c.core_id for c in free)

    assert chip44.n_free_cores() == 16
    core = chip44.cores[3]
    core.owner_app = 7
    assert chip44.n_free_cores() == 15
    check()
    core.owner_app = 9  # handoff between owners: still not free
    assert chip44.n_free_cores() == 15
    core.state = CoreState.BUSY
    assert chip44.n_free_cores() == 15
    core.owner_app = None  # busy but unowned: still not free
    assert chip44.n_free_cores() == 15
    check()
    core.state = CoreState.IDLE
    assert chip44.n_free_cores() == 16
    check()


def test_mutation_counter_advances_on_every_observable_change(chip44):
    core = chip44.cores[0]
    table = chip44.vf_table
    before = chip44.mutations
    core.state = CoreState.BUSY
    assert chip44.mutations > before

    before = chip44.mutations
    other = table[0] if core.level.index != 0 else table[1]
    core.level = other
    assert chip44.mutations > before

    before = chip44.mutations
    core.leak_factor = core.leak_factor * 1.5
    assert chip44.mutations > before

    before = chip44.mutations
    core.owner_app = 42
    assert chip44.mutations > before

    # No-op writes must not advance the counter (they would defeat the
    # scheduler's blocked-mapping memo).
    before = chip44.mutations
    core.state = CoreState.BUSY
    core.owner_app = 42
    assert chip44.mutations == before


# ----------------------------------------------------------------------
# Cached NoC routing
# ----------------------------------------------------------------------
def test_link_ids_are_bijective_and_route_consistent():
    mesh = Mesh(5, 4)
    seen = {}
    for src in mesh.positions():
        for dst in mesh.positions():
            links = xy_links(mesh, src, dst)
            ids = xy_link_ids(mesh, src, dst)
            assert len(ids) == len(links)
            for link, lid in zip(links, ids):
                assert link_id(mesh, link) == lid
                assert seen.setdefault(lid, link) == link


def test_link_load_queries_by_position_pair():
    mesh = Mesh(4, 4)
    noc = NocModel(mesh)
    noc.begin_transfer((0, 0), (3, 0), 10.0)
    for link in xy_links(mesh, (0, 0), (3, 0)):
        assert noc.link_load(link) == 10.0
    noc.end_transfer((0, 0), (3, 0), 10.0)
    for link in xy_links(mesh, (0, 0), (3, 0)):
        assert noc.link_load(link) == 0.0


# ----------------------------------------------------------------------
# Simulator heap hygiene
# ----------------------------------------------------------------------
def test_pending_and_compaction_after_mass_cancellation(sim):
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
    fired = []
    sim.schedule(500.0, fired.append, "survivor")
    assert sim.pending() == 201
    for event in events:
        event.cancel()
    assert sim.pending() == 1
    # The cancelled bulk must have been physically dropped, not merely
    # flagged: otherwise long runs leak memory and slow every push.
    assert sim.heap_compactions >= 1
    assert len(sim._heap) < 100
    sim.run()
    assert fired == ["survivor"]
    assert sim.now == 500.0


# ----------------------------------------------------------------------
# Bisected DVFS start-level selection == linear scan
# ----------------------------------------------------------------------
def _start_level_straight_through_model(manager, core, activity):
    """Linear scan of the ladder, every watt from the technology model.

    No meter cache or table: chip power comes from the full scan and the
    core's own gated leakage from the model, in the meter's expressions.
    """
    chip = manager.chip
    meter = manager.meter
    model = chip.tech_model
    node = chip.node
    ctype = core.core_type
    headroom = manager.current_cap() - meter.scan_breakdown().total
    assert core.state is CoreState.IDLE
    base = 0.0 + (
        model.leakage_power(node, ctype, core.level.vdd)
        * core.leak_factor
        * meter.gated_leak_fraction
    )
    for level in reversed(list(chip.vf_table)):
        busy = (
            model.dynamic_power(node, ctype, level.vdd, level.f_mhz, activity)
            + model.leakage_power(node, ctype, level.vdd) * core.leak_factor
        )
        if busy - base <= headroom:
            return level
    return chip.vf_table.min_level


def _check_start_levels(chip):
    """Bisection, linear scan and the model reference agree everywhere."""
    meter = PowerMeter(chip)
    # One target per core type present, each with its own leak factor.
    targets = list({core.core_type.name: core for core in chip.cores[12:]}.values())
    for i, target in enumerate(targets):
        target.leak_factor = 1.0 + 0.15 * i
    for cap in (0.5, 2.0, 6.0, 20.0, 200.0):
        manager = PIDPowerManager(chip, meter, PowerBudget(cap))
        assert manager._ladder_sorted
        for n_busy in (0, 3, 9, 12):
            for core, _ in zip(chip, range(n_busy)):
                core.state = CoreState.BUSY
            for target in targets:
                for activity in (0.0, 0.25, 1.0, 1.8):
                    fast = manager.start_level_for(target, activity)
                    manager._ladder_sorted = False
                    scan = manager.start_level_for(target, activity)
                    manager._ladder_sorted = True
                    assert fast is scan
                    assert fast is _start_level_straight_through_model(
                        manager, target, activity
                    )
            for core in chip:
                core.state = CoreState.IDLE


def test_start_level_bisect_matches_linear_scan():
    # Homogeneous std under cmos, then a mixed-type grid under ntv.
    for type_grid, tech_model in (
        ((), "cmos"),
        (("std", "io", "o3", "accel") * 4, "ntv"),
    ):
        chip = Chip.build(
            4, 4, "16nm", tdp_w=20.0, type_grid=type_grid, tech_model=tech_model
        )
        _check_start_levels(chip)


# ----------------------------------------------------------------------
# Parallel sweep executor == serial loop
# ----------------------------------------------------------------------
def test_run_many_parallel_rows_identical_to_serial():
    from repro.experiments.runners import run_experiment

    serial = run_experiment("E2", horizon_us=2_000.0, seed=11, jobs=None)
    parallel = run_experiment("E2", horizon_us=2_000.0, seed=11, jobs=2)
    assert repr(serial.rows) == repr(parallel.rows)
    assert serial.scalars == parallel.scalars


def test_run_many_rejects_negative_jobs():
    from repro.experiments.parallel import run_many

    with pytest.raises(ValueError):
        run_many([], jobs=-1)
