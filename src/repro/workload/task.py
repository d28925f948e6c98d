"""Task and edge primitives of the application model.

A *task* is a unit of sequential computation measured in **operations**;
a core at DVFS level with speed ``s`` ops/µs finishes ``ops`` operations in
``ops / s`` µs.  The task's ``activity`` is the switching-activity factor
its instruction mix induces, scaling the core's dynamic power while the
task runs.  An *edge* carries ``volume`` flits of data from its producer to
its consumer over the NoC before the consumer may start.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Task:
    """One node of an application task graph."""

    task_id: int
    ops: float
    activity: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.ops <= 0:
            raise ValueError(f"task {self.task_id}: ops must be positive")
        if self.activity <= 0:
            raise ValueError(f"task {self.task_id}: activity must be positive")


@dataclass(frozen=True, slots=True)
class Edge:
    """A producer → consumer data dependency."""

    src: int
    dst: int
    volume_flits: float = 0.0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self edge on task {self.src}")
        if self.volume_flits < 0:
            raise ValueError("edge volume must be non-negative")
