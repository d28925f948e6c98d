"""Tests for tasks, application graphs, generator and arrival processes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.application import (
    ApplicationGraph,
    ApplicationInstance,
    graph_structure,
)
from repro.workload.arrivals import BurstyArrivalProcess, PoissonArrivalProcess
from repro.workload.generator import (
    PROFILE_PRESETS,
    ApplicationProfile,
    TaskGraphGenerator,
)
from repro.workload.task import Edge, Task


def diamond() -> ApplicationGraph:
    """A 4-task diamond: 0 -> {1, 2} -> 3."""
    tasks = [Task(i, ops=1000.0) for i in range(4)]
    edges = [Edge(0, 1, 10.0), Edge(0, 2, 10.0), Edge(1, 3, 10.0), Edge(2, 3, 10.0)]
    return ApplicationGraph("diamond", tasks, edges)


def critical_path_ops(graph: ApplicationGraph) -> float:
    """Longest chain of operations through the DAG (ignores comm)."""
    structure = graph_structure(graph)
    longest = {}
    for task_id in structure.topo_order:
        incoming = [
            longest[structure.src[e]] for e in structure.predecessors[task_id]
        ]
        longest[task_id] = structure.ops[task_id] + max(incoming, default=0.0)
    return max(longest.values(), default=0.0)


def ready_tasks(app: ApplicationInstance, running) -> list:
    """Tasks whose dependencies are satisfied and are not done/running."""
    return [
        t
        for t in app.structure.topo_order
        if t not in app.completed_tasks
        and t not in running
        and app.task_ready(t)
    ]


# ----------------------------------------------------------------------
# Task / Edge
# ----------------------------------------------------------------------
def test_task_duration_at_speed():
    task = Task(0, ops=3000.0)
    assert task.duration_at(1500.0) == pytest.approx(2.0)


def test_task_validation():
    with pytest.raises(ValueError):
        Task(0, ops=0.0)
    with pytest.raises(ValueError):
        Task(0, ops=10.0, activity=0.0)
    with pytest.raises(ValueError):
        Task(0, ops=10.0).duration_at(0.0)


def test_edge_validation():
    with pytest.raises(ValueError):
        Edge(1, 1)
    with pytest.raises(ValueError):
        Edge(0, 1, volume_flits=-5.0)


# ----------------------------------------------------------------------
# ApplicationGraph
# ----------------------------------------------------------------------
def test_topo_order_respects_edges():
    order = graph_structure(diamond()).topo_order
    assert order.index(0) < order.index(1)
    assert order.index(0) < order.index(2)
    assert order.index(1) < order.index(3)
    assert order.index(2) < order.index(3)


def test_roots_and_sinks():
    structure = graph_structure(diamond())
    assert structure.roots == [0]
    assert structure.sinks == [3]


def test_totals():
    structure = graph_structure(diamond())
    assert sum(structure.ops) == pytest.approx(4000.0)
    assert sum(structure.volume) == pytest.approx(40.0)


def test_critical_path():
    assert critical_path_ops(diamond()) == pytest.approx(3000.0)  # 0 -> 1 -> 3


def test_hand_built_graph_packs_tasks_by_id_and_edges_in_order():
    tasks = [Task(1, 20.0, 0.5), Task(0, 10.0, 0.25)]
    graph = ApplicationGraph("two", tasks, [Edge(0, 1, 7.0)], rt_class="hard-rt")
    assert (graph.name, graph.rt_class, graph.n_tasks, graph.n_edges) == (
        "two", "hard-rt", 2, 1,
    )
    assert list(graph.values) == [10.0, 0.25, 20.0, 0.5, 7.0]
    assert list(graph.ends) == [0, 1]
    assert not hasattr(graph, "__dict__")


def test_task_ids_must_be_dense():
    with pytest.raises(ValueError, match="must be 0..1"):
        ApplicationGraph("bad", [Task(0, 1.0), Task(2, 1.0)], [])


def test_cycle_detection():
    tasks = [Task(i, ops=10.0) for i in range(2)]
    with pytest.raises(ValueError, match="cycle"):
        ApplicationGraph("bad", tasks, [Edge(0, 1), Edge(1, 0)])


def test_duplicate_task_ids_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        ApplicationGraph("bad", [Task(0, 1.0), Task(0, 2.0)], [])


def test_edge_to_unknown_task_rejected():
    with pytest.raises(ValueError, match="unknown task"):
        ApplicationGraph("bad", [Task(0, 1.0)], [Edge(0, 9)])


# ----------------------------------------------------------------------
# ApplicationInstance
# ----------------------------------------------------------------------
def test_instance_ready_logic():
    app = ApplicationInstance(1, diamond(), arrival_time=0.0)
    assert app.task_ready(0)
    assert not app.task_ready(1)
    app.mark_task_done(0)
    assert not app.task_ready(1)  # edge not transferred yet
    app.transferred_edges.add((0, 1))
    assert app.task_ready(1)
    assert not app.task_ready(3)


def test_instance_ready_tasks_excludes_running_and_done():
    app = ApplicationInstance(1, diamond(), arrival_time=0.0)
    assert ready_tasks(app, running=[]) == [0]
    assert ready_tasks(app, running=[0]) == []
    app.mark_task_done(0)
    app.transferred_edges.update({(0, 1), (0, 2)})
    assert ready_tasks(app, running=[]) == [1, 2]


def test_instance_double_completion_rejected():
    app = ApplicationInstance(1, diamond(), arrival_time=0.0)
    app.mark_task_done(0)
    with pytest.raises(ValueError):
        app.mark_task_done(0)


def test_instance_finished_flag():
    app = ApplicationInstance(1, diamond(), arrival_time=0.0)
    for t in range(4):
        app.mark_task_done(t)
    assert app.is_finished()


def test_instance_timing_metrics():
    app = ApplicationInstance(1, diamond(), arrival_time=10.0)
    assert app.waiting_time() is None
    assert app.turnaround() is None
    app.start_time = 15.0
    app.finish_time = 40.0
    assert app.waiting_time() == pytest.approx(5.0)
    assert app.turnaround() == pytest.approx(30.0)


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------
def test_generator_respects_profile_ranges():
    profile = ApplicationProfile(
        name="t", n_tasks=(5, 9), ops=(100.0, 200.0),
        comm_volume=(1.0, 2.0), activity=(0.5, 0.6),
    )
    gen = TaskGraphGenerator(random.Random(1))
    for _ in range(20):
        graph = gen.generate(profile)
        assert 5 <= len(graph) <= 9
        structure = graph_structure(graph)
        assert all(100.0 <= ops <= 200.0 for ops in structure.ops)
        assert all(0.5 <= act <= 0.6 for act in structure.activity)
        assert all(1.0 <= volume <= 2.0 for volume in structure.volume)


def test_generator_graphs_are_connected_dags():
    gen = TaskGraphGenerator(random.Random(2))
    for _ in range(20):
        graph = gen.generate(PROFILE_PRESETS["medium"])
        # topological order exists (no exception) and every non-root task
        # has at least one predecessor
        structure = graph_structure(graph)
        roots = set(structure.roots)
        for task_id in range(graph.n_tasks):
            if task_id not in roots:
                assert structure.predecessors[task_id]


def test_generator_deterministic_from_seed():
    a = TaskGraphGenerator(random.Random(7)).generate(PROFILE_PRESETS["small"])
    b = TaskGraphGenerator(random.Random(7)).generate(PROFILE_PRESETS["small"])
    assert len(a) == len(b)
    assert a.values == b.values
    assert a.ends == b.ends


def test_generator_mix_weights():
    gen = TaskGraphGenerator(random.Random(3))
    graphs = gen.generate_mix(
        [PROFILE_PRESETS["small"], PROFILE_PRESETS["large"]], [1.0, 0.0], 10
    )
    assert all(g.name.startswith("small") for g in graphs)


def test_generator_mix_validation():
    gen = TaskGraphGenerator(random.Random(3))
    with pytest.raises(ValueError):
        gen.generate_mix([], [], 5)


def test_profile_validation():
    with pytest.raises(ValueError):
        ApplicationProfile(name="bad", n_tasks=(0, 5))
    with pytest.raises(ValueError):
        ApplicationProfile(name="bad", ops=(10.0, 1.0))
    with pytest.raises(ValueError):
        ApplicationProfile(name="bad", max_fanin=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generator_never_produces_cycles(seed):
    gen = TaskGraphGenerator(random.Random(seed))
    graph = gen.generate(PROFILE_PRESETS["large"])
    assert len(graph_structure(graph).topo_order) == len(graph)


# ----------------------------------------------------------------------
# Arrivals
# ----------------------------------------------------------------------
def test_poisson_arrival_times_sorted_and_bounded():
    process = PoissonArrivalProcess(
        2.0, [PROFILE_PRESETS["small"]], rng=random.Random(1)
    )
    arrivals = process.generate(50_000.0)
    times = [a.time for a in arrivals]
    assert times == sorted(times)
    assert all(0.0 < t <= 50_000.0 for t in times)


def test_poisson_rate_approximation():
    process = PoissonArrivalProcess(
        2.0, [PROFILE_PRESETS["small"]], rng=random.Random(5)
    )
    arrivals = process.generate(200_000.0)
    # Expect ~400 arrivals; allow generous tolerance.
    assert 300 <= len(arrivals) <= 500


def test_poisson_deterministic_per_rng_seed():
    a = PoissonArrivalProcess(1.0, [PROFILE_PRESETS["small"]], rng=random.Random(9))
    b = PoissonArrivalProcess(1.0, [PROFILE_PRESETS["small"]], rng=random.Random(9))
    assert [x.time for x in a.generate(20_000.0)] == [
        x.time for x in b.generate(20_000.0)
    ]


def test_arrival_instantiate():
    process = PoissonArrivalProcess(
        5.0, [PROFILE_PRESETS["small"]], rng=random.Random(2)
    )
    arrival = process.generate(10_000.0)[0]
    app = arrival.instantiate(42)
    assert app.app_id == 42
    assert app.arrival_time == arrival.time
    assert app.graph is arrival.graph


def test_bursty_rate_exceeds_base_poisson():
    base = PoissonArrivalProcess(
        1.0, [PROFILE_PRESETS["small"]], rng=random.Random(4)
    ).generate(100_000.0)
    bursty = BurstyArrivalProcess(
        1.0, [PROFILE_PRESETS["small"]], rng=random.Random(4), burst_factor=5.0
    ).generate(100_000.0)
    assert len(bursty) > len(base)


def test_arrival_validation():
    with pytest.raises(ValueError):
        PoissonArrivalProcess(0.0, [PROFILE_PRESETS["small"]])
    with pytest.raises(ValueError):
        PoissonArrivalProcess(1.0, [])
    with pytest.raises(ValueError):
        PoissonArrivalProcess(1.0, [PROFILE_PRESETS["small"]], weights=[1.0, 2.0])
    process = PoissonArrivalProcess(1.0, [PROFILE_PRESETS["small"]])
    with pytest.raises(ValueError):
        process.generate(0.0)
    with pytest.raises(ValueError):
        BurstyArrivalProcess(
            1.0, [PROFILE_PRESETS["small"]], burst_factor=0.5
        )
