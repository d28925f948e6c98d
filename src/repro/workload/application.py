"""Application model: task graphs as data, plus instance-level runtime state.

An :class:`ApplicationGraph` is pure data (two arrays of numbers), so
memoized arrival traces share graphs between every run and thread that
replays them.  A run derives the index-only :class:`GraphStructure` of
a graph it maps (:func:`graph_structure`); the
:class:`ApplicationInstance` holds it, so it dies with the run.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence

from repro.workload.task import Edge, Task


class ApplicationGraph:
    """An immutable task graph (template an application instance runs).

    Tasks are ``0 .. n_tasks - 1`` and edges ``0 .. n_edges - 1``.
    ``values`` holds each task's ops and activity, interleaved (``ops0,
    act0, ops1, act1, ...``), then each edge's volume in flits; ``ends``
    holds each edge's source and destination (``src0, dst0, src1, dst1,
    ...``).  Never mutated: memoized arrival traces share their graphs.
    """

    __slots__ = ("name", "rt_class", "n_tasks", "n_edges", "values", "ends")

    def __init__(
        self,
        name: str,
        tasks: Sequence[Task],
        edges: Sequence[Edge],
        rt_class: str = "best-effort",
    ) -> None:
        """A graph of hand-written tasks and edges, packed into arrays.

        Task ids must be ``0 .. len(tasks) - 1``, in any order; edges
        keep their order.  Raises ``ValueError`` on a duplicate task id,
        an edge to an unknown task or a cycle.
        """
        by_id: Dict[int, Task] = {}
        for task in tasks:
            if task.task_id in by_id:
                raise ValueError(f"duplicate task id {task.task_id} in {name}")
            by_id[task.task_id] = task
        n_tasks = len(by_id)
        if set(by_id) != set(range(n_tasks)):
            raise ValueError(f"task ids of {name} must be 0..{n_tasks - 1}")
        values = array("d")
        for task_id in range(n_tasks):
            values.append(by_id[task_id].ops)
            values.append(by_id[task_id].activity)
        ends = array("I")
        for edge in edges:
            if edge.src not in by_id or edge.dst not in by_id:
                raise ValueError(f"edge {edge} references unknown task in {name}")
            ends.extend((edge.src, edge.dst))
            values.append(edge.volume_flits)
        self.name = name
        self.rt_class = rt_class
        self.n_tasks = n_tasks
        self.n_edges = len(ends) // 2
        self.values = values
        self.ends = ends
        graph_structure(self)  # raises on a cycle

    @classmethod
    def from_draws(
        cls,
        name: str,
        n_tasks: int,
        values: array,
        ends: array,
        rt_class: str = "best-effort",
    ) -> "ApplicationGraph":
        """A graph of a generator's drawn numbers, laid out as the class
        docstring says (not validated: the generator draws only DAGs)."""
        graph = cls.__new__(cls)
        graph.name = name
        graph.rt_class = rt_class
        graph.n_tasks = n_tasks
        graph.n_edges = len(ends) // 2
        graph.values = values
        graph.ends = ends
        return graph

    def __len__(self) -> int:
        return self.n_tasks


@dataclass(slots=True)
class GraphStructure:
    """The index-only structure of one graph, as a run reads it.

    Task ``t`` runs ``ops[t]`` operations at activity ``activity[t]``;
    edge ``e`` carries ``volume[e]`` flits from task ``src[e]`` to task
    ``dst[e]``.  ``successors[t]`` and ``predecessors[t]`` hold task
    ``t``'s outgoing and incoming edge ids in edge order.  Treat every
    list as read-only.
    """

    ops: List[float]
    activity: List[float]
    src: List[int]
    dst: List[int]
    volume: List[float]
    successors: List[List[int]]
    predecessors: List[List[int]]
    #: Kahn's order: the roots ascending, then, for each task in turn,
    #: the successors it makes ready, ascending.
    topo_order: List[int]
    roots: List[int]
    sinks: List[int]


def graph_structure(graph: ApplicationGraph) -> GraphStructure:
    """Derive ``graph``'s structure from its arrays (``ValueError`` on a
    cycle)."""
    n_tasks = graph.n_tasks
    values = graph.values
    ends = graph.ends
    src = ends[0::2].tolist()
    dst = ends[1::2].tolist()
    successors: List[List[int]] = [[] for _ in range(n_tasks)]
    predecessors: List[List[int]] = [[] for _ in range(n_tasks)]
    for edge, (s, d) in enumerate(zip(src, dst)):
        successors[s].append(edge)
        predecessors[d].append(edge)
    indegree = list(map(len, predecessors))
    roots = [t for t in range(n_tasks) if not indegree[t]]
    order = roots[:]
    for current in order:  # grows as tasks become ready
        appended = []
        for edge in successors[current]:
            d = dst[edge]
            indegree[d] -= 1
            if not indegree[d]:
                appended.append(d)
        if appended:
            # Keep determinism: new ready tasks enter in sorted order.
            appended.sort()
            order += appended
    if len(order) != n_tasks:
        raise ValueError(f"application {graph.name!r} contains a cycle")
    return GraphStructure(
        ops=values[0 : 2 * n_tasks : 2].tolist(),
        activity=values[1 : 2 * n_tasks : 2].tolist(),
        src=src,
        dst=dst,
        volume=values[2 * n_tasks :].tolist(),
        successors=successors,
        predecessors=predecessors,
        topo_order=order,
        roots=roots,
        sinks=[t for t in range(n_tasks) if not successors[t]],
    )


class ApplicationInstance:
    """A runtime instance of an :class:`ApplicationGraph`.

    Tracks arrival/start/finish timestamps and per-task completion so the
    execution engine can release dependent tasks and free cores.
    """

    def __init__(self, app_id: int, graph: ApplicationGraph, arrival_time: float) -> None:
        self.app_id = app_id
        self.graph = graph
        self.arrival_time = arrival_time
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        # task_id -> core_id assignment chosen by the mapper at start.
        self.placement: Dict[int, int] = {}
        self.completed_tasks: set = set()
        #: (src, dst) task pairs whose data has arrived.
        self.transferred_edges: set = set()

    @cached_property
    def structure(self) -> GraphStructure:
        """The graph's structure, derived on the first read (mappers and
        the executor read it; an app never tried costs nothing)."""
        return graph_structure(self.graph)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.graph.name

    def is_finished(self) -> bool:
        return len(self.completed_tasks) == self.graph.n_tasks

    def is_started(self) -> bool:
        return self.start_time is not None

    def mark_task_done(self, task_id: int) -> None:
        if not 0 <= task_id < self.graph.n_tasks:
            raise KeyError(f"unknown task {task_id}")
        if task_id in self.completed_tasks:
            raise ValueError(f"task {task_id} completed twice")
        self.completed_tasks.add(task_id)

    def task_ready(self, task_id: int) -> bool:
        """All predecessor tasks done and their edges transferred?"""
        structure = self.structure
        src = structure.src
        for edge in structure.predecessors[task_id]:
            producer = src[edge]
            if producer not in self.completed_tasks:
                return False
            if (producer, task_id) not in self.transferred_edges:
                return False
        return True

    def waiting_time(self) -> Optional[float]:
        """Queueing delay from arrival to mapping (None before start)."""
        if self.start_time is None:
            return None
        return self.start_time - self.arrival_time

    def turnaround(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ApplicationInstance(id={self.app_id}, graph={self.graph.name!r}, "
            f"arrived={self.arrival_time})"
        )
