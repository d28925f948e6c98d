"""Tests for baseline runtime mappers and shared placement machinery."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.mapping.base import (
    MappingContext,
    assign_tasks_near,
    pick_first_node,
    square_region_score,
)
from repro.mapping.baselines import ContiguousMapper, RandomFreeMapper, ScatterMapper
from repro.noc.topology import Mesh
from repro.workload.application import ApplicationGraph, ApplicationInstance
from repro.workload.generator import PROFILE_PRESETS, TaskGraphGenerator
from repro.workload.task import Edge, Task


def make_ctx(chip, now=0.0, available=None):
    mesh = Mesh(chip.width, chip.height)
    cores = available if available is not None else chip.free_cores()
    return MappingContext(chip, mesh, now, cores)


def chain_app(n=4):
    tasks = [Task(i, ops=100.0) for i in range(n)]
    edges = [Edge(i, i + 1, 10.0) for i in range(n - 1)]
    return ApplicationInstance(1, ApplicationGraph("chain", tasks, edges), 0.0)


# ----------------------------------------------------------------------
# Shared machinery
# ----------------------------------------------------------------------
def test_square_region_score_counts_neighbourhood(chip44):
    ctx = make_ctx(chip44)
    center = chip44.core_at(1, 1)
    corner = chip44.core_at(0, 0)
    assert square_region_score(ctx, center, 1) == 9
    assert square_region_score(ctx, corner, 1) == 4


def test_square_region_score_ignores_unavailable(chip44):
    available = [c for c in chip44.free_cores() if c.core_id != 0]
    ctx = make_ctx(chip44, available=available)
    corner = chip44.core_at(0, 0)
    assert square_region_score(ctx, corner, 1) == 3


def test_pick_first_node_prefers_freest_region(chip44):
    # Remove the whole left half: the best first node sits on the right.
    available = [c for c in chip44.free_cores() if c.x >= 2]
    ctx = make_ctx(chip44, available=available)
    first = pick_first_node(ctx, n_tasks=4)
    assert first.x >= 2


def test_pick_first_node_none_when_empty(chip44):
    ctx = make_ctx(chip44, available=[])
    assert pick_first_node(ctx, 4) is None


def test_pick_first_node_extra_cost_biases_choice(chip44):
    ctx = make_ctx(chip44)
    shunned = pick_first_node(ctx, 4)
    # Penalise the previously chosen node heavily; a different one wins.
    costs = {
        core.core_id: 100.0 if core.core_id == shunned.core_id else 0.0
        for core in ctx.available
    }
    other = pick_first_node(ctx, 4, core_costs=costs)
    assert other.core_id != shunned.core_id


def test_assign_tasks_near_full_and_injective(chip44):
    app = chain_app(6)
    ctx = make_ctx(chip44)
    first = pick_first_node(ctx, 6)
    placement = assign_tasks_near(app, ctx, first)
    assert set(placement) == set(range(app.graph.n_tasks))
    assert len(set(placement.values())) == 6
    assert set(placement.values()) <= ctx.available_ids


def test_assign_tasks_near_contiguity(chip44):
    """Adjacent tasks land within a couple of hops of each other."""
    app = chain_app(6)
    ctx = make_ctx(chip44)
    first = pick_first_node(ctx, 6)
    placement = assign_tasks_near(app, ctx, first)
    structure = app.structure
    for src, dst in zip(structure.src, structure.dst):
        a = chip44.core(placement[src]).position
        b = chip44.core(placement[dst]).position
        assert Mesh.manhattan(a, b) <= 3


def test_assign_tasks_near_insufficient_cores(chip44):
    app = chain_app(6)
    ctx = make_ctx(chip44, available=chip44.free_cores()[:3])
    first = ctx.available[0]
    assert assign_tasks_near(app, ctx, first) is None


# ----------------------------------------------------------------------
# Baseline mappers
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "mapper",
    [ContiguousMapper(), ScatterMapper(), RandomFreeMapper(random.Random(1))],
    ids=["contiguous", "scatter", "random"],
)
def test_mappers_produce_valid_placements(chip44, mapper):
    app = chain_app(5)
    ctx = make_ctx(chip44)
    placement = mapper.map_application(app, ctx)
    assert placement is not None
    assert set(placement) == set(range(app.graph.n_tasks))
    assert len(set(placement.values())) == 5
    assert set(placement.values()) <= ctx.available_ids


@pytest.mark.parametrize(
    "mapper",
    [ContiguousMapper(), ScatterMapper(), RandomFreeMapper(random.Random(1))],
    ids=["contiguous", "scatter", "random"],
)
def test_mappers_return_none_when_region_too_small(chip44, mapper):
    app = chain_app(10)
    ctx = make_ctx(chip44, available=chip44.free_cores()[:4])
    assert mapper.map_application(app, ctx) is None


def test_scatter_uses_core_id_order(chip44):
    app = chain_app(3)
    ctx = make_ctx(chip44)
    placement = ScatterMapper().map_application(app, ctx)
    assert sorted(placement.values()) == [0, 1, 2]


def test_contiguous_beats_scatter_on_hops(chip88):
    """Contiguity claim: fewer total edge hops than id-order scatter."""
    gen = TaskGraphGenerator(random.Random(5))
    graph = gen.generate(PROFILE_PRESETS["medium"])
    app = ApplicationInstance(1, graph, 0.0)
    # Make the free set patchy so scatter really scatters.
    available = [c for c in chip88.free_cores() if (c.core_id * 7) % 3 != 0]
    ctx = make_ctx(chip88, available=available)

    def hops(placement):
        return sum(
            Mesh.manhattan(
                chip88.core(placement[src]).position,
                chip88.core(placement[dst]).position,
            )
            for src, dst in zip(app.structure.src, app.structure.dst)
        )

    contiguous = ContiguousMapper().map_application(app, ctx)
    scatter = ScatterMapper().map_application(app, ctx)
    assert hops(contiguous) <= hops(scatter)


def test_random_mapper_deterministic_with_seed(chip44):
    app = chain_app(5)
    a = RandomFreeMapper(random.Random(3)).map_application(app, make_ctx(chip44))
    b = RandomFreeMapper(random.Random(3)).map_application(app, make_ctx(chip44))
    assert a == b


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_contiguous_placement_always_valid(seed):
    from repro.platform.chip import Chip

    chip = Chip.build(6, 6, "16nm", tdp_w=40.0)
    gen = TaskGraphGenerator(random.Random(seed))
    graph = gen.generate(PROFILE_PRESETS["medium"])
    app = ApplicationInstance(1, graph, 0.0)
    rng = random.Random(seed + 1)
    available = [c for c in chip.free_cores() if rng.random() < 0.7]
    ctx = make_ctx(chip, available=available)
    placement = ContiguousMapper().map_application(app, ctx)
    if placement is None:
        assert len(graph) > len(available)
    else:
        assert len(set(placement.values())) == len(graph)
        assert set(placement.values()) <= {c.core_id for c in available}
