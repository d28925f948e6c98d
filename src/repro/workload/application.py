"""Application model: a DAG of tasks plus instance-level runtime state."""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence

from repro._sum import lsum
from repro.workload.task import Edge, Task

#: Serialises the lazy builds of drawn graphs: ``repro serve``'s
#: threads share the memoized arrival traces.
_BUILD_LOCK = threading.Lock()


class _Structure:
    """A structural attribute of an :class:`ApplicationGraph`.

    Only a drawn graph ever reads it: reading it builds the whole
    structure into the instance ``__dict__``, which shadows this
    (non-data) descriptor from then on, so a built graph reads the
    attribute as a plain one.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, graph, owner=None):
        if graph is None:
            return self
        graph._build()
        return graph.__dict__[self.name]


class ApplicationGraph:
    """An immutable task graph (template an application instance runs).

    Built from tasks and edges, or by :meth:`from_draws` from a
    generator's drawn numbers.  A drawn graph knows its ``name``,
    ``rt_class``, ``n_tasks`` and ``n_edges`` at once, which is all
    admission reads; it builds ``tasks``, ``edges``, the adjacency, the
    topological order, roots and sinks the first time any of them is
    read (see :attr:`built`), through the constructor's validating code.
    """

    tasks = _Structure()
    edges = _Structure()
    successors = _Structure()
    predecessors = _Structure()
    _topo = _Structure()
    _roots = _Structure()
    _sinks = _Structure()

    def __init__(
        self,
        name: str,
        tasks: Sequence[Task],
        edges: Sequence[Edge],
        rt_class: str = "best-effort",
    ) -> None:
        self.name = name
        self.rt_class = rt_class
        self.__dict__.update(_structure(name, tasks, edges))

    @classmethod
    def from_draws(
        cls,
        name: str,
        n_tasks: int,
        values: Sequence[float],
        ends: Sequence[int],
        rt_class: str = "best-effort",
    ) -> "ApplicationGraph":
        """A graph kept as drawn numbers until its structure is read.

        ``values`` holds each task's ops and activity, interleaved
        (``ops0, act0, ops1, act1, ...``), then each edge's volume;
        ``ends`` holds each edge's source and destination (``src0, dst0,
        src1, dst1, ...``).  Task ``i`` is named ``f"{name}.t{i}"``.
        """
        graph = cls.__new__(cls)
        graph.name = name
        graph.rt_class = rt_class
        #: Task count as a plain attribute: mappers test it on every
        #: placement attempt and ``len(graph)`` costs a Python frame.
        graph.n_tasks = n_tasks
        graph.n_edges = len(ends) // 2
        graph._draws = (values, ends)
        return graph

    @property
    def built(self) -> bool:
        """True once ``tasks``, ``edges`` and the adjacency exist."""
        return "_draws" not in self.__dict__

    def _build(self) -> None:
        """Build a drawn graph's structure (a no-op once built)."""
        with _BUILD_LOCK:
            draws = self.__dict__.get("_draws")
            if draws is None:
                return
            values, ends = draws
            name = self.name
            n_tasks = self.n_tasks
            tasks = [
                Task(i, values[2 * i], values[2 * i + 1], f"{name}.t{i}")
                for i in range(n_tasks)
            ]
            edges = [
                Edge(ends[2 * j], ends[2 * j + 1], values[2 * n_tasks + j])
                for j in range(self.n_edges)
            ]
            # Every attribute lands complete: a thread that reads one
            # before the rest exist waits on the lock in its descriptor.
            self.__dict__.update(_structure(name, tasks, edges))
            del self.__dict__["_draws"]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_tasks

    @property
    def topo_order(self) -> List[int]:
        """Topological task order.  Treat as read-only (not a copy)."""
        return self._topo

    def roots(self) -> List[int]:
        """Tasks with no predecessors.  Treat as read-only (not a copy)."""
        return self._roots

    def sinks(self) -> List[int]:
        """Tasks with no successors.  Treat as read-only (not a copy)."""
        return self._sinks

    def total_ops(self) -> float:
        return lsum(task.ops for task in self.tasks.values())

    def total_comm_volume(self) -> float:
        return lsum(edge.volume_flits for edge in self.edges)

    def critical_path_ops(self) -> float:
        """Longest chain of operations through the DAG (ignores comm)."""
        longest: Dict[int, float] = {}
        for task_id in self._topo:
            incoming = [
                longest[e.src] for e in self.predecessors[task_id]
            ]
            longest[task_id] = self.tasks[task_id].ops + (max(incoming) if incoming else 0.0)
        return max(longest.values()) if longest else 0.0


def _structure(
    name: str, tasks: Iterable[Task], edges: Iterable[Edge]
) -> Dict[str, object]:
    """The validated structure of a task graph, as instance attributes.

    Each value is complete before it is returned; adjacency lists are
    tuples.
    """
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
    return {
        "tasks": by_id,
        "edges": edges,
        "successors": successors,
        "predecessors": predecessors,
        "n_tasks": len(by_id),
        "n_edges": len(edges),
        "_topo": _topological_order(name, successors, predecessors),
        # The graph is immutable, so the root/sink orderings are too;
        # computing them here keeps admission off the sort path.
        "_roots": sorted(t for t in by_id if not predecessors[t]),
        "_sinks": sorted(t for t in by_id if not successors[t]),
    }


def _topological_order(
    name: str,
    successors: Dict[int, Sequence[Edge]],
    predecessors: Dict[int, Sequence[Edge]],
) -> List[int]:
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
        # Keep determinism: new ready tasks enter in sorted order.
        for t in sorted(appended):
            ready.append(t)
    if len(order) != len(predecessors):
        raise ValueError(f"application {name!r} contains a cycle")
    return order


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
        self.transferred_edges: set = set()

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.graph.name

    def is_finished(self) -> bool:
        return len(self.completed_tasks) == self.graph.n_tasks

    def is_started(self) -> bool:
        return self.start_time is not None

    def mark_task_done(self, task_id: int) -> None:
        if task_id not in self.graph.tasks:
            raise KeyError(f"unknown task {task_id}")
        if task_id in self.completed_tasks:
            raise ValueError(f"task {task_id} completed twice")
        self.completed_tasks.add(task_id)

    def task_ready(self, task_id: int) -> bool:
        """All predecessor tasks done and their edges transferred?"""
        for edge in self.graph.predecessors[task_id]:
            if edge.src not in self.completed_tasks:
                return False
            if (edge.src, edge.dst) not in self.transferred_edges:
                return False
        return True

    def ready_tasks(self, running: Iterable[int]) -> List[int]:
        """Tasks whose dependencies are satisfied and are not done/running."""
        running_set = set(running)
        return [
            t
            for t in self.graph.topo_order
            if t not in self.completed_tasks
            and t not in running_set
            and self.task_ready(t)
        ]

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
