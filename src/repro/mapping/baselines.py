"""Baseline runtime mappers.

* :class:`ContiguousMapper` — CoNA/SHiC-style state of the art the paper
  builds on: pick the first node whose square neighbourhood is freest,
  then place tasks contiguously around it for communication locality.
* :class:`ScatterMapper` — naive first-free placement in core-id order;
  destroys locality, used to show the value of contiguity.
* :class:`RandomFreeMapper` — uniformly random placement on free cores
  from an injected RNG stream (a classic mapping-paper baseline).
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.mapping.base import (
    MappingContext,
    RuntimeMapper,
    assign_tasks_near,
    pick_first_node,
)
from repro.workload.application import ApplicationInstance


class ContiguousMapper(RuntimeMapper):
    """First-node selection + contiguous nearest-neighbour placement."""

    name = "contiguous"

    def map_application(
        self, app: ApplicationInstance, ctx: MappingContext
    ) -> Optional[Dict[int, int]]:
        if app.graph.n_tasks > len(ctx.available):
            return None
        first = pick_first_node(ctx, app.graph.n_tasks)
        if first is None:
            return None
        return assign_tasks_near(app, ctx, first)


class ScatterMapper(RuntimeMapper):
    """Naive mapper: tasks take free cores in core-id order."""

    name = "scatter"

    def map_application(
        self, app: ApplicationInstance, ctx: MappingContext
    ) -> Optional[Dict[int, int]]:
        cores = sorted(ctx.available, key=lambda c: c.core_id)
        if app.graph.n_tasks > len(cores):
            return None
        order = app.structure.topo_order
        return {task_id: cores[i].core_id for i, task_id in enumerate(order)}


class RandomFreeMapper(RuntimeMapper):
    """Uniformly random placement on available cores."""

    name = "random"

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def map_application(
        self, app: ApplicationInstance, ctx: MappingContext
    ) -> Optional[Dict[int, int]]:
        cores = sorted(ctx.available, key=lambda c: c.core_id)
        if app.graph.n_tasks > len(cores):
            return None
        chosen = self.rng.sample(cores, app.graph.n_tasks)
        order = app.structure.topo_order
        return {task_id: chosen[i].core_id for i, task_id in enumerate(order)}
