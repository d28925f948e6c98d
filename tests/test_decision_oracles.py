"""Control decisions: reference oracles and per-decision work counts.

The proposed method makes three runtime decisions from per-core inputs:
test-aware placement, criticality-ranked test admission, and the PID
manager's start level (its oracle is in ``tests/test_fast_path.py``).
Each decision evaluates each candidate core once.  Pinned here:

* **the same decisions** — the test-aware mapper's placement equals a
  reference that evaluates the policy cost per (task, candidate) pair,
  the algorithm the per-decision cost table replaced, written out below;
  the contiguous mapper equals the same reference at zero cost; MapPro's
  potential field equals the discounted sum evaluated node by node (the
  scheduler's ranking oracle is in ``tests/test_power_aware_scheduler.py``);
* **the work** — one ``core_cost`` per available core per mapping
  decision, and one criticality evaluation per eligible core and one
  preferred level per admission per power-aware tick, counted by
  patching the class methods while whole simulations run.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.criticality import CriticalityParameters, TestCriticality
from repro.core.mapping import TestAwareUtilizationMapper
from repro.core.scheduler import PowerAwareTestScheduler
from repro.core.system import run_system
from repro.mapping.base import MappingContext, square_region_score
from repro.mapping.baselines import ContiguousMapper
from repro.mapping.mappro import MapProMapper
from repro.noc.topology import Mesh
from repro.platform.chip import Chip
from repro.platform.core import CoreState
from repro.testing.schedulers import TestSchedulerBase
from repro.workload.application import ApplicationGraph, ApplicationInstance
from repro.workload.task import Edge, Task
from tests.conftest import small_system_config

TYPES = ("std", "io", "o3", "accel")


# ----------------------------------------------------------------------
# Mapping: placement == cost evaluated per (task, candidate)
# ----------------------------------------------------------------------
def reference_placement(cost, app, ctx):
    """First node, then greedy placement, calling ``cost`` per candidate.

    The naive form of ``pick_first_node`` + ``assign_tasks_near``: region
    scores by direct count, distances summed edge by edge (exact: small
    integers plus the half-integer first-node term), and the policy cost
    ``cost(now, core)`` evaluated afresh for every candidate of every
    task, added last.
    """
    graph = app.graph
    if graph.n_tasks > len(ctx.available):
        return None
    radius = 1
    while (2 * radius + 1) ** 2 < graph.n_tasks:
        radius += 1
    first, first_key = None, None
    for core in ctx.available:
        score = float(square_region_score(ctx, core, radius))
        score -= cost(ctx.now, core)
        key = (-score, core.core_id)
        if first_key is None or key < first_key:
            first, first_key = core, key
    free = list(ctx.available)
    placement, positions = {}, {}
    structure = app.structure
    for task_id in structure.topo_order:
        best, best_key = None, None
        for core in free:
            distance = 0.5 * (abs(core.x - first.x) + abs(core.y - first.y))
            for edge in structure.predecessors[task_id]:
                src = structure.src[edge]
                if src in positions:
                    px, py = positions[src]
                    distance += abs(core.x - px) + abs(core.y - py)
            key = (distance + cost(ctx.now, core), core.core_id)
            if best_key is None or key < best_key:
                best, best_key = core, key
        placement[task_id] = best.core_id
        positions[task_id] = best.position
        free.remove(best)
    return placement


@st.composite
def mapping_scenes(draw):
    """A chip with busy histories, stress and sessions, plus an app."""
    width = draw(st.integers(2, 5))
    height = draw(st.integers(2, 5))
    n_cores = width * height
    grid = draw(
        st.one_of(
            st.just(()),
            st.lists(st.sampled_from(TYPES), min_size=n_cores, max_size=n_cores)
            .map(tuple),
        )
    )
    chip = Chip.build(width, height, "16nm", tdp_w=40.0, type_grid=grid)
    now = draw(st.floats(500.0, 8000.0))
    for core in chip:
        start = 0.0
        for gap, length in draw(
            st.lists(
                st.tuples(st.floats(0.0, 1500.0), st.floats(1.0, 1500.0)),
                max_size=3,
            )
        ):
            start += gap
            if start + length > now:
                break
            core.busy_window.add(start, start + length)
            start += length
        core.stress_since_test = draw(st.sampled_from([0.0, 0.5, 3.0, 9.0]))
        core.last_test_end = draw(st.floats(0.0, now))
        fate = draw(st.sampled_from(["free", "free", "testing", "owned"]))
        if fate == "testing":
            core.state = CoreState.TESTING
        elif fate == "owned":
            core.owner_app = 99
    # The system's abort-preemption view: free cores, then unowned
    # cores under test.
    available = chip.free_cores() + [
        c for c in chip.testing_cores() if c.owner_app is None
    ]
    n_tasks = draw(st.integers(1, max(1, min(9, len(available) + 1))))
    tasks = [Task(i, ops=100.0) for i in range(n_tasks)]
    edges = [
        Edge(src, dst, 10.0)
        for dst in range(1, n_tasks)
        for src in draw(st.lists(st.integers(0, dst - 1), max_size=2, unique=True))
    ]
    app = ApplicationInstance(1, ApplicationGraph("scene", tasks, edges), 0.0)
    ctx = MappingContext(chip, Mesh(width, height), now, available)
    return app, ctx


@settings(max_examples=80, deadline=None)
@given(
    scene=mapping_scenes(),
    weights=st.tuples(
        st.sampled_from([0.0, 1.0, 2.5]),   # utilization
        st.sampled_from([0.0, 2.0, 3.5]),   # criticality
        st.sampled_from([0.0, 6.0]),        # testing penalty
        st.sampled_from([0.0, 1.0]),        # core type
    ),
    window=st.sampled_from([500.0, 2000.0]),
)
def test_test_aware_placement_equals_per_candidate_reference(scene, weights, window):
    app, ctx = scene
    mapper = TestAwareUtilizationMapper(
        TestCriticality(CriticalityParameters()),
        utilization_weight=weights[0],
        criticality_weight=weights[1],
        testing_penalty=weights[2],
        utilization_window_us=window,
        type_weight=weights[3],
    )
    assert mapper.map_application(app, ctx) == reference_placement(
        mapper.core_cost, app, ctx
    )


@settings(max_examples=40, deadline=None)
@given(scene=mapping_scenes())
def test_contiguous_placement_equals_reference_at_zero_cost(scene):
    app, ctx = scene
    assert ContiguousMapper().map_application(app, ctx) == reference_placement(
        lambda now, core: 0.0, app, ctx
    )


def reference_potential(gamma, ctx, core, radius):
    """``gamma ** manhattan`` summed over the available cores in the cut."""
    total = 0.0
    for other in ctx.available:
        distance = Mesh.manhattan(core.position, other.position)
        if distance <= 2 * radius:
            total += gamma ** distance
    return total


@settings(max_examples=80, deadline=None)
@given(
    scene=mapping_scenes(),
    gamma=st.sampled_from([0.3, 0.6, 0.85]),
    radius=st.integers(1, 3),
)
def test_mappro_field_equals_the_potential_of_each_node(scene, gamma, radius):
    app, ctx = scene
    mapper = MapProMapper(gamma)
    n_tasks = app.graph.n_tasks
    field = mapper.potential_field(ctx, n_tasks)
    assert field == {
        core.core_id: mapper.potential(ctx, core, mapper.radius_for(n_tasks))
        for core in ctx.available
    }
    assert field == {
        core.core_id: reference_potential(
            gamma, ctx, core, mapper.radius_for(n_tasks)
        )
        for core in ctx.available
    }
    for core in ctx.available:
        assert mapper.potential(ctx, core, radius) == reference_potential(
            gamma, ctx, core, radius
        )


# ----------------------------------------------------------------------
# Work counts over whole simulations
# ----------------------------------------------------------------------
def test_mapping_decision_costs_each_available_core_once(monkeypatch):
    decisions = []
    calls = [0]
    core_cost = TestAwareUtilizationMapper.core_cost
    map_application = TestAwareUtilizationMapper.map_application

    def counting_core_cost(self, now, core):
        calls[0] += 1
        return core_cost(self, now, core)

    def recording_map_application(self, app, ctx):
        before = calls[0]
        placement = map_application(self, app, ctx)
        decisions.append((len(ctx.available), app.graph.n_tasks, calls[0] - before))
        return placement

    monkeypatch.setattr(TestAwareUtilizationMapper, "core_cost", counting_core_cost)
    monkeypatch.setattr(
        TestAwareUtilizationMapper, "map_application", recording_map_application
    )
    run_system(
        small_system_config(
            mapper="test-aware",
            horizon_us=20_000.0,
            arrival_rate_per_ms=4.0,
            fault_hazard_per_us=1e-5,
        )
    )
    assert len(decisions) >= 10
    assert any(n_tasks > 1 for _, n_tasks, _ in decisions)
    for n_available, n_tasks, n_calls in decisions:
        assert n_calls == (n_available if n_tasks <= n_available else 0)


def test_power_aware_tick_evaluates_each_eligible_core_once(monkeypatch):
    ticks = []
    admissions = []
    counts = {"value": 0, "candidates": 0, "pick_level": 0}
    value = TestCriticality.value
    candidates = PowerAwareTestScheduler.candidates
    affordable_level = PowerAwareTestScheduler.affordable_level
    pick_level = TestSchedulerBase.pick_level
    tick = PowerAwareTestScheduler.tick

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def recording_affordable_level(self, core, now, headroom):
        before = counts["pick_level"]
        level = affordable_level(self, core, now, headroom)
        admissions.append(counts["pick_level"] - before)
        return level

    def recording_tick(self, now, dt):
        eligible = sum(
            1
            for core in self.chip.idle_cores()
            if core.owner_app is None
            and now - core.last_test_end >= self.min_interval_us
        )
        before = dict(counts)
        tick(self, now, dt)
        ticks.append(
            (
                eligible,
                counts["candidates"] - before["candidates"],
                counts["value"] - before["value"],
            )
        )

    monkeypatch.setattr(TestCriticality, "value", counting("value", value))
    monkeypatch.setattr(
        PowerAwareTestScheduler, "candidates", counting("candidates", candidates)
    )
    monkeypatch.setattr(TestSchedulerBase, "pick_level", counting("pick_level", pick_level))
    monkeypatch.setattr(
        PowerAwareTestScheduler, "affordable_level", recording_affordable_level
    )
    monkeypatch.setattr(PowerAwareTestScheduler, "tick", recording_tick)
    # The contiguous mapper reads no criticality, so every evaluation
    # counted here is the scheduler's.
    run_system(small_system_config(horizon_us=8_000.0))
    assert any(eligible and ranked for eligible, ranked, _ in ticks)
    for eligible, ranked, n_values in ticks:
        assert ranked <= 1
        assert n_values == eligible * ranked
    assert len(admissions) >= 10
    assert all(n == 1 for n in admissions)
