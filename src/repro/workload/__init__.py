"""Workload substrate: task graphs, generators, arrival processes."""

from repro.workload.application import (
    ApplicationGraph,
    ApplicationInstance,
    GraphStructure,
    graph_structure,
)
from repro.workload.arrivals import (
    Arrival,
    BurstyArrivalProcess,
    PoissonArrivalProcess,
)
from repro.workload.generator import (
    PROFILE_PRESETS,
    RT_CLASSES,
    ApplicationProfile,
    TaskGraphGenerator,
)
from repro.workload.task import Edge, Task

__all__ = [
    "ApplicationGraph",
    "ApplicationInstance",
    "ApplicationProfile",
    "Arrival",
    "BurstyArrivalProcess",
    "Edge",
    "GraphStructure",
    "PROFILE_PRESETS",
    "PoissonArrivalProcess",
    "RT_CLASSES",
    "Task",
    "TaskGraphGenerator",
    "graph_structure",
]
