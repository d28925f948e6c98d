"""Tests for the MapPro-style proactive mapper."""

import pytest

from repro.mapping.base import MappingContext
from repro.mapping.mappro import MapProMapper
from repro.noc.topology import Mesh
from repro.platform.chip import Chip
from repro.workload.application import ApplicationGraph, ApplicationInstance
from repro.workload.task import Edge, Task


@pytest.fixture
def mapper():
    return MapProMapper()


def make_ctx(chip, available=None):
    mesh = Mesh(chip.width, chip.height)
    cores = available if available is not None else chip.free_cores()
    return MappingContext(chip, mesh, 0.0, cores)


def chain_app(n):
    tasks = [Task(i, 100.0) for i in range(n)]
    edges = [Edge(i, i + 1, 10.0) for i in range(n - 1)]
    return ApplicationInstance(1, ApplicationGraph("chain", tasks, edges), 0.0)


def test_radius_for_sizes(mapper):
    assert mapper.radius_for(1) == 1
    assert mapper.radius_for(9) == 1
    assert mapper.radius_for(10) == 2
    assert mapper.radius_for(25) == 2
    assert mapper.radius_for(26) == 3


def test_gamma_validation():
    with pytest.raises(ValueError):
        MapProMapper(gamma=0.0)
    with pytest.raises(ValueError):
        MapProMapper(gamma=1.0)


def test_potential_highest_at_center_of_free_chip(mapper, chip88):
    ctx = make_ctx(chip88)
    field = mapper.potential_field(ctx, n_tasks=9)
    # Centre nodes beat corner nodes on a fully free mesh.
    corner = chip88.core_at(0, 0).core_id
    center = chip88.core_at(3, 3).core_id
    assert field[center] > field[corner]


def test_potential_self_contribution_is_one(mapper, chip44):
    only = [chip44.core(5)]
    ctx = make_ctx(chip44, available=only)
    assert mapper.potential(ctx, chip44.core(5), radius=1) == pytest.approx(1.0)


def test_potential_discounts_by_distance(mapper, chip44):
    cores = [chip44.core_at(0, 0), chip44.core_at(1, 0), chip44.core_at(3, 0)]
    ctx = make_ctx(chip44, available=cores)
    p = mapper.potential(ctx, chip44.core_at(0, 0), radius=2)
    expected = 1.0 + mapper.gamma ** 1 + mapper.gamma ** 3
    assert p == pytest.approx(expected)


def test_prefers_dense_region_over_fragmented(mapper, chip88):
    """A compact 3x3 free block beats an equal-area scattered set."""
    dense = [
        chip88.core_at(x, y) for x in (0, 1, 2) for y in (0, 1, 2)
    ]
    scattered = [
        chip88.core_at(x, y)
        for (x, y) in [(5, 0), (7, 2), (5, 4), (7, 6), (4, 7), (6, 3), (4, 2), (7, 0), (5, 6)]
    ]
    ctx = make_ctx(chip88, available=dense + scattered)
    app = chain_app(9)
    placement = mapper.map_application(app, ctx)
    dense_ids = {c.core_id for c in dense}
    chosen = set(placement.values())
    assert len(chosen & dense_ids) >= 7  # lands (almost) entirely in the block


def test_placement_valid_and_injective(mapper, chip88):
    app = chain_app(6)
    ctx = make_ctx(chip88)
    placement = mapper.map_application(app, ctx)
    assert set(placement) == set(range(app.graph.n_tasks))
    assert len(set(placement.values())) == 6
    assert set(placement.values()) <= ctx.available_ids


def test_none_when_insufficient(mapper, chip44):
    app = chain_app(6)
    ctx = make_ctx(chip44, available=chip44.free_cores()[:3])
    assert mapper.map_application(app, ctx) is None


def test_none_when_empty(mapper, chip44):
    app = chain_app(1)
    ctx = make_ctx(chip44, available=[])
    assert mapper.map_application(app, ctx) is None


def test_system_accepts_mappro():
    from repro.core.system import SystemConfig, run_system

    result = run_system(
        SystemConfig(mapper="mappro", horizon_us=5_000.0, seed=3)
    )
    assert result.mapper_name == "mappro"
    assert result.metrics.apps_completed > 0
