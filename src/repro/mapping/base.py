"""Runtime-mapper interface and shared placement machinery.

A runtime mapper receives the head-of-queue application instance and the
current chip state and returns a ``task_id -> core_id`` placement, or
``None`` when it cannot (or chooses not to) place the application yet.

The placement machinery shared by the contiguous mappers (baseline CoNA-
style and the proposed test-aware mapper) is factored here:

* :func:`square_region_score` — SHiC-style first-node scoring: how many
  allocatable cores sit in the square of radius ``r`` around a node;
* :func:`assign_tasks_near` — greedy task-to-core assignment that walks the
  task graph in topological order and puts each task on the allocatable
  core minimising communication distance to its already-placed
  predecessors (with an optional per-core cost table, which is where the
  proposed mapper injects utilization/criticality awareness).
"""

from __future__ import annotations

import functools
from itertools import accumulate
from operator import add
from typing import Dict, List, Mapping, Optional, Tuple

from repro.noc.topology import Mesh
from repro.platform.chip import Chip
from repro.platform.core import Core
from repro.workload.application import ApplicationInstance


class MappingContext:
    """Everything a mapper may consult besides the chip itself."""

    def __init__(
        self,
        chip: Chip,
        mesh: Mesh,
        now: float,
        available: List[Core],
    ) -> None:
        self.chip = chip
        self.mesh = mesh
        self.now = now
        self.available = available
        self._available_ids: Optional[set] = None

    @property
    def available_ids(self) -> set:
        """Ids of the available cores (built lazily; most mappers never ask)."""
        if self._available_ids is None:
            self._available_ids = {core.core_id for core in self.available}
        return self._available_ids


class RuntimeMapper:
    """Interface for runtime mapping policies."""

    name = "base"

    def type_bias(self, core: Core) -> float:
        """Per-type placement bias of ``core`` (hop-equivalents).

        The heterogeneity touch point of the mapping layer: policies that
        weigh tiles differently (keep hot O3/accelerator tiles free for
        their own work; prefer cheap IO tiles for generic tasks) override
        or scale this.  The default biases by the tile's dynamic-power
        scale, which is exactly 0.0 for the degenerate ``std`` type —
        cost-aware mappers only *add* the term when it is nonzero, so
        homogeneous-std placements are bit-identical to the
        pre-heterogeneity engine.
        """
        return core.core_type.dyn_scale - 1.0

    def map_application(
        self, app: ApplicationInstance, ctx: MappingContext
    ) -> Optional[Dict[int, int]]:  # pragma: no cover - interface
        raise NotImplementedError


def square_region_score(ctx: MappingContext, core: Core, radius: int) -> int:
    """Number of available cores in the ``(2r+1)²`` square centred on core."""
    count = 0
    for other in ctx.available:
        if abs(other.x - core.x) <= radius and abs(other.y - core.y) <= radius:
            count += 1
    return count


def pick_first_node(
    ctx: MappingContext,
    n_tasks: int,
    core_costs: Optional[Mapping[int, float]] = None,
) -> Optional[Core]:
    """SHiC-style first-node selection.

    The radius is the smallest square that could hold the application; the
    chosen node maximises available cores in that square (most-contiguous
    region), with the candidate's entry in ``core_costs`` (core id -> cost
    in hop-equivalents, one entry per available core) subtracted for
    policy-aware biasing and core id as the final deterministic tie-break.
    """
    if not ctx.available:
        return None
    radius = 1
    while (2 * radius + 1) ** 2 < n_tasks:
        radius += 1
    # The region score is an integer occupancy count, so it can be read
    # off a 2-D prefix-sum grid in O(1) per candidate instead of scanning
    # every available core per candidate — same counts, same winner.
    width = ctx.mesh.width
    height = ctx.mesh.height
    grid = [[0] * width for _ in range(height)]
    for other in ctx.available:
        grid[other.y][other.x] += 1
    pref = [[0] * (width + 1)]
    for counts in grid:
        # pref[y + 1][x + 1] = this row's running count + pref[y][x + 1]
        pref.append([0, *map(add, accumulate(counts), pref[-1][1:])])
    best: Optional[Core] = None
    best_key = 0.0
    w1 = width - 1
    h1 = height - 1
    for core in ctx.available:
        x = core.x
        y = core.y
        # The window clamped to the mesh: ``max(0, v)``/``min(w1, v)`` inlined.
        x0 = x - radius if x > radius else 0
        y0 = y - radius if y > radius else 0
        x1 = x + radius if x + radius < w1 else w1
        y1 = y + radius if y + radius < h1 else h1
        score = float(
            pref[y1 + 1][x1 + 1] - pref[y0][x1 + 1]
            - pref[y1 + 1][x0] + pref[y0][x0]
        )
        if core_costs is not None:
            score -= core_costs[core.core_id]
        key = -score
        if (
            best is None
            or key < best_key
            or (key == best_key and core.core_id < best.core_id)
        ):
            best_key = key
            best = core
    return best


def assign_tasks_near(
    app: ApplicationInstance,
    ctx: MappingContext,
    first: Core,
    core_costs: Optional[Mapping[int, float]] = None,
) -> Optional[Dict[int, int]]:
    """Greedy contiguous assignment around ``first``.

    Tasks are placed in topological order; each goes to the free core with
    the lowest cost, where cost is the summed Manhattan distance to already
    placed predecessors (communication locality), the distance to the first
    node (region compactness), and the core's entry in ``core_costs``
    (core id -> cost in hop-equivalents, one entry per available core).
    Returns ``None`` when the region runs out of cores.
    """
    if app.graph.n_tasks > len(ctx.available):
        return None
    # Every distance term is integer-valued except the exact half-integer
    # first-node bias, so float addition is exact here and those sums may
    # be regrouped freely: the distance splits into a per-core constant
    # (distance to the first node, hoisted below) plus separable per-axis
    # predecessor distances: per task, one row of a per-axis distance
    # table added per predecessor instead of O(|free| * preds).  Same
    # values, same (cost, core_id) winner as the naive double loop.  The
    # table cost is added last, as the naive loop did; without a table it
    # is 0.0, and adding 0.0 to the non-negative distance is exact.
    first_x, first_y = first.position
    free: Dict[int, tuple] = {
        c.core_id: (
            c,
            0.5 * (abs(c.x - first_x) + abs(c.y - first_y)),
            c.x,
            c.y,
            0.0 if core_costs is None else core_costs[c.core_id],
        )
        for c in ctx.available
    }
    placement: Dict[int, int] = {}
    positions: Dict[int, tuple] = {}

    width = ctx.mesh.width
    height = ctx.mesh.height
    dist_x = _axis_distances(width)
    dist_y = _axis_distances(height)
    no_col = (0,) * width
    no_row = (0,) * height
    structure = app.structure
    src = structure.src
    predecessors = structure.predecessors
    for task_id in structure.topo_order:
        col = no_col
        row = no_row
        for edge in predecessors[task_id]:
            placed = positions.get(src[edge])
            if placed is not None:
                col = list(map(add, col, dist_x[placed[0]]))
                row = list(map(add, row, dist_y[placed[1]]))
        best_core = None
        best_cost = 0.0
        for core, base, cx, cy, extra in free.values():
            cost = base + col[cx] + row[cy] + extra
            if (
                best_core is None
                or cost < best_cost
                or (cost == best_cost and core.core_id < best_core.core_id)
            ):
                best_cost = cost
                best_core = core
        if best_core is None:
            return None
        placement[task_id] = best_core.core_id
        positions[task_id] = best_core.position
        del free[best_core.core_id]
    return placement


@functools.lru_cache(maxsize=None)
def _axis_distances(n: int) -> Tuple[Tuple[int, ...], ...]:
    """``table[p][x] == abs(x - p)`` for positions on an axis of ``n``."""
    return tuple(tuple(abs(x - p) for x in range(n)) for p in range(n))
