"""Arrival traces: bit-identical draws, graphs built only when admitted.

A memoized trace keeps every app as its drawn numbers and builds the
app's task graph the first time a mapper or the executor reads it.
These tests pin the three things that makes safe:

* the drawn numbers are the ones the eager generator drew: a digest
  over fully built traces, frozen from the eager generator, for
  Poisson and bursty arrivals under the default and real-time profile
  mixes (``tests/goldens/arrival_trace_goldens.json``), and graphs
  equal to the stdlib-drawing reference generator for any profile;
* only admitted apps get built, counted over whole runs of every test
  policy that replays one trace;
* concurrent first reads (``repro serve`` shares the memo across its
  threads) build each graph once and all see the same structure.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
from dataclasses import replace
from pathlib import Path

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.system import SystemConfig, arrival_trace, run_system
from repro.obs import Journal
from repro.workload.generator import ApplicationProfile, TaskGraphGenerator

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
    """SHA-256 over every arrival and its fully built task graph."""
    h = hashlib.sha256()

    def put(value) -> None:
        h.update(repr(value).encode("utf-8"))
        h.update(b"\n")

    for arrival in arrivals:
        graph = arrival.graph
        put((arrival.time, graph.name, graph.rt_class, graph.n_tasks,
             graph.n_edges))
        for task_id, task in graph.tasks.items():
            put((task_id, task.task_id, task.ops, task.activity, task.name))
        for edge in graph.edges:
            put((edge.src, edge.dst, edge.volume_flits))
        for task_id in graph.tasks:
            put((
                task_id,
                [(e.src, e.dst) for e in graph.successors[task_id]],
                [(e.src, e.dst) for e in graph.predecessors[task_id]],
            ))
        put((list(graph.topo_order), list(graph.roots()),
             list(graph.sinks())))
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
        assert [
            (t.task_id, t.ops, t.activity, t.name)
            for t in graph.tasks.values()
        ] == tasks
        assert [(e.src, e.dst, e.volume_flits) for e in graph.edges] == edges
    # Both consumed the stream identically.
    assert drawn.rng.getstate() == reference.getstate()


def test_drawn_graph_is_unbuilt_until_read():
    arrivals = fresh_trace("poisson-default-s1-5ms")
    graph = arrivals[0].graph
    assert not graph.built
    # Admission reads these on every attempt; none of them builds.
    assert graph.name.startswith(("small-", "medium-", "large-"))
    assert graph.rt_class == "best-effort"
    assert len(graph) == graph.n_tasks >= 1
    assert graph.n_edges >= graph.n_tasks - 1
    assert not graph.built
    roots = graph.roots()
    assert graph.built
    assert roots == sorted(t for t in graph.tasks if not graph.predecessors[t])
    assert len(graph.tasks) == graph.n_tasks
    assert len(graph.edges) == graph.n_edges


def test_every_policy_builds_only_admitted_apps():
    """Graphs built == apps admitted, as the union over the four test
    policies that replay one trace (E2's shape at a short horizon)."""
    base = SystemConfig(horizon_us=20_000.0, seed=424_242)
    arrivals = arrival_trace(
        base.bursty, base.arrival_rate_per_ms, base.profile_names,
        base.profile_weights, base.seed, base.horizon_us,
    )
    assert not any(a.graph.built for a in arrivals)
    admitted = set()
    for policy in ("none", "power-aware", "unaware", "round-robin"):
        journal = Journal()
        run_system(replace(base, test_policy=policy), journal=journal)
        mapped = {e.data["app"] for e in journal.events if e.type == "app.map"}
        assert mapped, policy
        # App ids count arrivals from 1, so id - 1 indexes the trace.
        admitted |= {app_id - 1 for app_id in mapped}
    built = {i for i, a in enumerate(arrivals) if a.graph.built}
    assert built == admitted
    assert len(built) < len(arrivals)


#: Structural attributes that each build a drawn graph when read first.
ENTRY_ATTRIBUTES = ("successors", "tasks", "predecessors", "topo_order", "edges")


def test_concurrent_first_reads_build_each_graph_once(monkeypatch):
    from repro.workload import application

    builds = []
    structure = application._structure

    def counting_structure(name, tasks, edges):
        builds.append(name)
        return structure(name, tasks, edges)

    # A build validates its tasks and edges through _structure once.
    monkeypatch.setattr(application, "_structure", counting_structure)
    graphs = [a.graph for a in fresh_trace("poisson-default-r20-s3-10ms")]
    assert graphs and not any(g.built for g in graphs)
    # More threads than cores, so they preempt each other mid-build.
    n_threads = 2 * (os.cpu_count() or 1) + 1
    barrier = threading.Barrier(n_threads)
    seen = [None] * n_threads
    errors = []

    def reader(slot: int) -> None:
        try:
            barrier.wait(timeout=10)
            shapes = []
            # Half the threads start from the other end, and each one
            # enters through a different structural attribute.
            order = graphs if slot % 2 else graphs[::-1]
            entry = ENTRY_ATTRIBUTES[slot % len(ENTRY_ATTRIBUTES)]
            for graph in order:
                assert getattr(graph, entry) is not None
                shapes.append((
                    graph.name,
                    tuple(graph.topo_order),
                    tuple(graph.roots()),
                    tuple(graph.sinks()),
                    tuple(sorted(graph.tasks)),
                    tuple((e.src, e.dst, e.volume_flits) for e in graph.edges),
                    tuple(
                        (t, tuple(graph.successors[t]),
                         tuple(graph.predecessors[t]))
                        for t in graph.tasks
                    ),
                ))
            seen[slot] = sorted(shapes)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=reader, args=(slot,), daemon=True)
            for slot in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert all(shape == seen[0] for shape in seen)
    assert sorted(builds) == sorted(g.name for g in graphs)
    assert all(g.built for g in graphs)
