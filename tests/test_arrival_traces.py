"""Arrival traces: bit-identical draws, shared as pure data.

A memoized trace keeps every app as its drawn numbers, and each run
derives the structure of the graphs it maps for itself
(``graph_structure``, held by the run's ``ApplicationInstance``).
These tests pin what makes that safe and cheap:

* the drawn numbers are the ones the eager generator drew: a digest
  over every trace's tasks, edges and structure, frozen from the eager
  generator, for Poisson and bursty arrivals under the default and
  real-time profile mixes (``tests/goldens/arrival_trace_goldens.json``),
  and graphs equal to the stdlib-drawing reference generator for any
  profile;
* the structure is the one the eager graph built, in the same orders,
  for drawn and hand-built graphs (the old ``_structure`` is copied
  here as the reference);
* runs leave a shared trace as they found it, build no ``Task`` or
  ``Edge``, keep nothing of theirs in it (measured with
  ``tracemalloc``), and give the serial results when threads share it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Sequence

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.system import SystemConfig, arrival_trace, run_system
from repro.experiments.result import DEFAULT_CONFIG
from repro.obs.provenance import result_digest
from repro.workload.application import (
    ApplicationGraph,
    ApplicationInstance,
    graph_structure,
)
from repro.workload.generator import (
    PROFILE_PRESETS,
    ApplicationProfile,
    TaskGraphGenerator,
)
from repro.workload.task import Edge, Task

GOLDENS = Path(__file__).parent / "goldens" / "arrival_trace_goldens.json"

DEFAULT_MIX = (("small", "medium", "large"), (0.40, 0.45, 0.15))
RT_MIX = (("hard-rt-small", "soft-rt-medium", "large"), (0.3, 0.4, 0.3))
E9_MIX = (("small", "medium"), (0.5, 0.5))

#: label -> arrival_trace arguments (bursty, rate, names, weights,
#: seed, horizon_us).
CASES = {
    "poisson-default-s1-5ms": (False, 6.0, *DEFAULT_MIX, 1, 5_000.0),
    "poisson-default-s1-60ms": (False, 6.0, *DEFAULT_MIX, 1, 60_000.0),
    "poisson-default-s7-60ms": (False, 6.0, *DEFAULT_MIX, 7, 60_000.0),
    "poisson-default-s2015-20ms": (False, 6.0, *DEFAULT_MIX, 2015, 20_000.0),
    "poisson-default-r20-s3-10ms": (False, 20.0, *DEFAULT_MIX, 3, 10_000.0),
    "poisson-rt-s3-60ms": (False, 6.0, *RT_MIX, 3, 60_000.0),
    "poisson-rt-s11-8ms": (False, 10.0, *RT_MIX, 11, 8_000.0),
    "bursty-default-s1-60ms": (True, 6.0, *DEFAULT_MIX, 1, 60_000.0),
    "bursty-e9-s7-60ms": (True, 6.0, *E9_MIX, 7, 60_000.0),
    "bursty-e9-s4-5ms": (True, 6.0, *E9_MIX, 4, 5_000.0),
    "bursty-rt-s3-30ms": (True, 6.0, *RT_MIX, 3, 30_000.0),
}


def trace_digest(arrivals) -> str:
    """SHA-256 over every arrival, its tasks, edges and structure.

    Feeds the byte stream the digest of the eager generator's built
    graphs fed (task ``i`` of graph ``g`` was named ``f"{g}.t{i}"``), so
    the goldens frozen from it still hold.
    """
    h = hashlib.sha256()

    def put(value) -> None:
        h.update(repr(value).encode("utf-8"))
        h.update(b"\n")

    for arrival in arrivals:
        graph = arrival.graph
        structure = graph_structure(graph)
        src, dst = structure.src, structure.dst
        put((arrival.time, graph.name, graph.rt_class, graph.n_tasks,
             graph.n_edges))
        tasks = range(graph.n_tasks)
        for t in tasks:
            put((t, t, structure.ops[t], structure.activity[t],
                 f"{graph.name}.t{t}"))
        for e in range(graph.n_edges):
            put((src[e], dst[e], structure.volume[e]))
        for t in tasks:
            put((
                t,
                [(src[e], dst[e]) for e in structure.successors[t]],
                [(src[e], dst[e]) for e in structure.predecessors[t]],
            ))
        put((structure.topo_order, structure.roots, structure.sinks))
    return h.hexdigest()


def fresh_trace(case: str):
    """The case's trace, drawn anew (bypasses the process-wide memo)."""
    return arrival_trace.__wrapped__(*CASES[case])


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_eager_golden(case):
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert trace_digest(fresh_trace(case)) == goldens[case]


def test_goldens_cover_every_case():
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert set(goldens) == set(CASES)


def eager_draws(rng: random.Random, profile: ApplicationProfile, name: str):
    """The generator as it was before it inlined the stdlib draws: the
    reference its drawn graphs must equal, number for number."""
    n_tasks = rng.randint(*profile.n_tasks)
    layers, next_id = [], 0
    while next_id < n_tasks:
        width = min(rng.randint(*profile.layer_width), n_tasks - next_id)
        layers.append(list(range(next_id, next_id + width)))
        next_id += width
    tasks = [
        (i, rng.uniform(*profile.ops), rng.uniform(*profile.activity),
         f"{name}.t{i}")
        for i in range(n_tasks)
    ]
    edges = []
    for layer_idx in range(1, len(layers)):
        earlier = [t for layer in layers[:layer_idx] for t in layer]
        for dst in layers[layer_idx]:
            fanin = rng.randint(1, min(profile.max_fanin, len(earlier)))
            srcs = {rng.choice(layers[layer_idx - 1])}
            while len(srcs) < fanin:
                srcs.add(rng.choice(earlier))
            for src in sorted(srcs):
                edges.append((src, dst, rng.uniform(*profile.comm_volume)))
    return tasks, edges


@st.composite
def profiles(draw):
    low = draw(st.integers(1, 8))
    width = draw(st.integers(1, 5))
    ops = draw(st.floats(1.0, 1e6))
    return ApplicationProfile(
        name="p",
        n_tasks=(low, low + draw(st.integers(0, 30))),
        ops=(ops, ops + draw(st.floats(0.0, 1e6))),
        max_fanin=draw(st.integers(1, 6)),
        comm_volume=(draw(st.floats(0.0, 10.0)), draw(st.floats(10.0, 1e4))),
        activity=(0.5, draw(st.floats(0.5, 1.0))),
        layer_width=(width, width + draw(st.integers(0, 6))),
    )


@settings(max_examples=60, deadline=None)
@given(profile=profiles(), seed=st.integers(0, 2**32 - 1))
def test_drawn_graphs_equal_the_stdlib_reference(profile, seed):
    drawn = TaskGraphGenerator(random.Random(seed))
    reference = random.Random(seed)
    for i in range(1, 4):
        graph = drawn.generate(profile)
        tasks, edges = eager_draws(reference, profile, f"p-{i}")
        assert graph.name == f"p-{i}" and graph.n_tasks == len(tasks)
        structure = graph_structure(graph)
        assert [
            (t, structure.ops[t], structure.activity[t], f"{graph.name}.t{t}")
            for t in range(graph.n_tasks)
        ] == tasks
        assert list(
            zip(structure.src, structure.dst, structure.volume)
        ) == edges
    # Both consumed the stream identically.
    assert drawn.rng.getstate() == reference.getstate()




# ----------------------------------------------------------------------
# Structure oracle
# ----------------------------------------------------------------------
def reference_structure(
    name: str, tasks: Sequence[Task], edges: Sequence[Edge]
) -> Dict[str, object]:
    """The structure the eager ``ApplicationGraph`` built (``_structure``
    and ``_topological_order`` as they were), the oracle of
    :func:`graph_structure`."""
    by_id: Dict[int, Task] = {}
    for task in tasks:
        if task.task_id in by_id:
            raise ValueError(f"duplicate task id {task.task_id} in {name}")
        by_id[task.task_id] = task
    edges = tuple(edges)
    outgoing: Dict[int, List[Edge]] = {t: [] for t in by_id}
    incoming: Dict[int, List[Edge]] = {t: [] for t in by_id}
    for edge in edges:
        if edge.src not in by_id or edge.dst not in by_id:
            raise ValueError(f"edge {edge} references unknown task in {name}")
        outgoing[edge.src].append(edge)
        incoming[edge.dst].append(edge)
    successors = {t: tuple(out) for t, out in outgoing.items()}
    predecessors = {t: tuple(inc) for t, inc in incoming.items()}
    indegree = {t: len(predecessors[t]) for t in predecessors}
    ready = sorted(t for t, d in indegree.items() if d == 0)
    order: List[int] = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        appended = []
        for edge in successors[current]:
            indegree[edge.dst] -= 1
            if indegree[edge.dst] == 0:
                appended.append(edge.dst)
        for t in sorted(appended):
            ready.append(t)
    if len(order) != len(predecessors):
        raise ValueError(f"application {name!r} contains a cycle")
    return {
        "tasks": by_id,
        "edges": edges,
        "successors": successors,
        "predecessors": predecessors,
        "topo": order,
        "roots": sorted(t for t in by_id if not predecessors[t]),
        "sinks": sorted(t for t in by_id if not successors[t]),
    }


def drawn_tasks_and_edges(graph: ApplicationGraph):
    """A drawn graph's tasks and edges, as the eager build made them."""
    values, ends, n = graph.values, graph.ends, graph.n_tasks
    tasks = [Task(i, values[2 * i], values[2 * i + 1]) for i in range(n)]
    edges = [
        Edge(ends[2 * j], ends[2 * j + 1], values[2 * n + j])
        for j in range(graph.n_edges)
    ]
    return tasks, edges


def assert_structure_matches(graph, tasks, edges) -> None:
    want = reference_structure(graph.name, tasks, edges)
    got = graph_structure(graph)
    n_tasks = len(want["tasks"])
    assert graph.n_tasks == n_tasks and graph.n_edges == len(want["edges"])
    assert [(got.ops[t], got.activity[t]) for t in range(n_tasks)] == [
        (want["tasks"][t].ops, want["tasks"][t].activity)
        for t in range(n_tasks)
    ]
    assert list(zip(got.src, got.dst, got.volume)) == [
        (e.src, e.dst, e.volume_flits) for e in want["edges"]
    ]
    # Adjacency as edge positions, in the reference's order.
    position = {id(edge): j for j, edge in enumerate(want["edges"])}
    for t in range(n_tasks):
        assert got.successors[t] == [
            position[id(e)] for e in want["successors"][t]
        ]
        assert got.predecessors[t] == [
            position[id(e)] for e in want["predecessors"][t]
        ]
    assert got.topo_order == want["topo"]
    assert got.roots == want["roots"]
    assert got.sinks == want["sinks"]


@settings(max_examples=60, deadline=None)
@given(
    profile=st.one_of(st.sampled_from(sorted(PROFILE_PRESETS)), profiles()),
    seed=st.integers(0, 2**32 - 1),
)
def test_drawn_structure_equals_the_eager_build(profile, seed):
    if isinstance(profile, str):
        profile = PROFILE_PRESETS[profile]
    generator = TaskGraphGenerator(random.Random(seed))
    for _ in range(3):
        graph = generator.generate(profile)
        assert_structure_matches(graph, *drawn_tasks_and_edges(graph))


@st.composite
def hand_built(draw):
    """Tasks in any list order and edges in any order; half the graphs
    are DAGs whose topological order is not the id order, the rest may
    hold cycles and repeated edges."""
    n = draw(st.integers(1, 10))
    ids = draw(st.permutations(range(n)))
    tasks = [
        Task(i, draw(st.floats(1.0, 1e6)), draw(st.floats(0.1, 1.0)))
        for i in ids
    ]
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda p: p[0] != p[1]),
        max_size=3 * n,
    )) if n > 1 else []
    if draw(st.booleans()):
        rank = draw(st.permutations(range(n)))
        pairs = [(a, b) if rank[a] < rank[b] else (b, a) for a, b in pairs]
    edges = [Edge(a, b, draw(st.floats(0.0, 1e4))) for a, b in pairs]
    return tasks, edges


@settings(max_examples=200, deadline=None)
@given(graph=hand_built())
def test_hand_built_structure_equals_the_eager_build(graph):
    tasks, edges = graph
    try:
        reference_structure("g", tasks, edges)
    except ValueError:
        with pytest.raises(ValueError, match="cycle"):
            ApplicationGraph("g", tasks, edges)
        return
    assert_structure_matches(ApplicationGraph("g", tasks, edges), tasks, edges)


# ----------------------------------------------------------------------
# Sharing and footprint
# ----------------------------------------------------------------------
POLICIES = ("none", "power-aware", "unaware", "round-robin")


def memoized_trace(config: SystemConfig):
    return arrival_trace(
        config.bursty, config.arrival_rate_per_ms, config.profile_names,
        config.profile_weights, config.seed, config.horizon_us,
    )


def trace_state(arrivals) -> str:
    """SHA-256 over every arrival's state: time and every graph slot."""
    h = hashlib.sha256()
    for arrival in arrivals:
        graph = arrival.graph
        h.update(repr((
            arrival.time, graph.name, graph.rt_class, graph.n_tasks,
            graph.n_edges, graph.values.typecode, graph.ends.typecode,
        )).encode("utf-8"))
        h.update(graph.values.tobytes())
        h.update(graph.ends.tobytes())
    return h.hexdigest()


def test_runs_leave_the_memoized_trace_unchanged():
    """E2's four test policies replay one trace and leave it as drawn."""
    base = replace(DEFAULT_CONFIG, horizon_us=10_000.0, seed=424_242)
    arrivals = memoized_trace(base)
    before = trace_state(arrivals)
    for policy in POLICIES:
        run_system(replace(base, test_policy=policy))
    assert memoized_trace(base) is arrivals
    assert trace_state(arrivals) == before
    assert not any(hasattr(a.graph, "__dict__") for a in arrivals)
    assert arrival_trace.cache_info().maxsize == 64


def test_a_run_builds_no_task_or_edge(monkeypatch):
    built = []
    for cls in (Task, Edge):
        monkeypatch.setattr(
            cls, "__post_init__", lambda self: built.append(self)
        )
    result = run_system(replace(DEFAULT_CONFIG, horizon_us=5_000.0, seed=5))
    assert result.apps_completed > 0
    assert built == []


def test_an_instance_derives_its_structure_once_on_first_read():
    graph = memoized_trace(replace(DEFAULT_CONFIG, horizon_us=5_000.0))[0].graph
    app = ApplicationInstance(1, graph, 0.0)
    assert "structure" not in vars(app)
    structure = app.structure
    assert app.structure is structure
    assert structure == graph_structure(graph)


#: Bytes a memoized 60 ms E2 trace may retain per arrival after its four
#: runs.  The drawn numbers take about 0.7 KB; when runs kept the
#: ``Task``/``Edge`` graphs they admitted in the trace, it was 3.5 KB.
RETAINED_PER_ARRIVAL = 1_500


def test_runs_retain_nothing_in_the_trace():
    """``tracemalloc`` over the workload modules, from before the trace
    is drawn until after its four runs: what is left is the trace."""
    base = replace(DEFAULT_CONFIG, seed=31_337)
    only_workload = [tracemalloc.Filter(True, "*/repro/workload/*")]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_workload)
        arrivals = memoized_trace(base)
        for policy in POLICIES:
            run_system(replace(base, test_policy=policy))
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(only_workload)
    finally:
        tracemalloc.stop()
    retained = sum(
        stat.size_diff for stat in after.compare_to(before, "filename")
    )
    assert len(arrivals) > 400
    assert retained / len(arrivals) < RETAINED_PER_ARRIVAL


def test_threads_sharing_a_trace_give_the_serial_results():
    base = replace(DEFAULT_CONFIG, horizon_us=5_000.0, seed=77)
    configs = [replace(base, test_policy=policy) for policy in POLICIES]
    serial = [result_digest(run_system(config)) for config in configs]
    n_threads = 2 * len(configs)
    barrier = threading.Barrier(n_threads)
    seen = [None] * n_threads
    errors = []

    def runner(slot: int) -> None:
        try:
            barrier.wait(timeout=10)
            # Half the threads run the policies in reverse order.
            order = configs if slot % 2 else configs[::-1]
            seen[slot] = [result_digest(run_system(c)) for c in order]
            if not slot % 2:
                seen[slot].reverse()
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=runner, args=(slot,), daemon=True)
            for slot in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert all(digests == serial for digests in seen)
