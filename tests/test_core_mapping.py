"""Tests for the proposed test-aware utilization-oriented mapper."""

import pytest

from repro.core.criticality import CriticalityParameters, TestCriticality
from repro.core.mapping import TestAwareUtilizationMapper
from repro.mapping.base import MappingContext
from repro.noc.topology import Mesh
from repro.platform.core import CoreState
from repro.workload.application import ApplicationGraph, ApplicationInstance
from repro.workload.task import Edge, Task


@pytest.fixture
def metric():
    return TestCriticality(CriticalityParameters())


@pytest.fixture
def mapper(metric):
    return TestAwareUtilizationMapper(
        metric,
        utilization_weight=3.0,
        criticality_weight=3.0,
        testing_penalty=6.0,
        utilization_window_us=1000.0,
    )


def make_ctx(chip, now=1000.0, available=None):
    mesh = Mesh(chip.width, chip.height)
    cores = available if available is not None else chip.free_cores()
    return MappingContext(chip, mesh, now, cores)


def one_task_app():
    return ApplicationInstance(
        1, ApplicationGraph("one", [Task(0, ops=100.0)], []), 0.0
    )


def test_cost_grows_with_utilization(mapper, chip44):
    hot, cold = chip44.core(0), chip44.core(1)
    hot.busy_window.add(0.0, 900.0)
    assert mapper.core_cost(1000.0, hot) > mapper.core_cost(1000.0, cold)


def test_cost_grows_with_criticality(mapper, chip44):
    stressed, fresh = chip44.core(0), chip44.core(1)
    stressed.stress_since_test = 50.0
    assert mapper.core_cost(1000.0, stressed) > mapper.core_cost(1000.0, fresh)


def test_criticality_term_saturates(mapper, chip44):
    a, b = chip44.core(0), chip44.core(1)
    a.stress_since_test = 1e3
    b.stress_since_test = 1e6
    assert mapper.core_cost(1000.0, a) == pytest.approx(
        mapper.core_cost(1000.0, b)
    )


def test_testing_core_penalised(mapper, chip44):
    testing, idle = chip44.core(0), chip44.core(1)
    testing.state = CoreState.TESTING
    assert (
        mapper.core_cost(1000.0, testing)
        >= mapper.core_cost(1000.0, idle) + mapper.testing_penalty
    )


def test_single_task_lands_on_untouched_core(mapper, chip44):
    """All else equal, the stressed core is avoided."""
    for core in chip44:
        core.stress_since_test = 0.0
    chip44.core(5).stress_since_test = 100.0
    app = one_task_app()
    placement = mapper.map_application(app, make_ctx(chip44))
    assert placement[0] != 5


def test_avoids_testing_core_when_alternatives_exist(mapper, chip44):
    chip44.core(0).state = CoreState.TESTING
    available = [chip44.core(0), chip44.core(1)]
    app = one_task_app()
    placement = mapper.map_application(app, make_ctx(chip44, available=available))
    assert placement[0] == 1


def test_none_when_insufficient_cores(mapper, chip44):
    tasks = [Task(i, 10.0) for i in range(5)]
    edges = [Edge(i, i + 1) for i in range(4)]
    app = ApplicationInstance(1, ApplicationGraph("big", tasks, edges), 0.0)
    ctx = make_ctx(chip44, available=chip44.free_cores()[:3])
    assert mapper.map_application(app, ctx) is None


def test_placement_still_contiguous(mapper, chip44):
    """Policy bias must not destroy communication locality."""
    tasks = [Task(i, 10.0) for i in range(4)]
    edges = [Edge(i, i + 1, 10.0) for i in range(3)]
    app = ApplicationInstance(1, ApplicationGraph("c", tasks, edges), 0.0)
    placement = mapper.map_application(app, make_ctx(chip44))
    structure = app.structure
    for src, dst in zip(structure.src, structure.dst):
        a = chip44.core(placement[src]).position
        b = chip44.core(placement[dst]).position
        assert Mesh.manhattan(a, b) <= 3


def test_zero_weights_reduce_to_contiguous_behaviour(metric, chip44):
    from repro.mapping.baselines import ContiguousMapper

    neutral = TestAwareUtilizationMapper(
        metric, utilization_weight=0.0, criticality_weight=0.0, testing_penalty=0.0
    )
    tasks = [Task(i, 10.0) for i in range(4)]
    edges = [Edge(i, i + 1, 10.0) for i in range(3)]
    app = ApplicationInstance(1, ApplicationGraph("c", tasks, edges), 0.0)
    # Stress some cores: must not matter with zero weights.
    chip44.core(0).stress_since_test = 100.0
    a = neutral.map_application(app, make_ctx(chip44))
    b = ContiguousMapper().map_application(app, make_ctx(chip44))
    assert a == b


def test_constructor_validation(metric):
    with pytest.raises(ValueError):
        TestAwareUtilizationMapper(metric, utilization_weight=-1.0)
    with pytest.raises(ValueError):
        TestAwareUtilizationMapper(metric, utilization_window_us=0.0)
