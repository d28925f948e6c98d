"""2-D mesh topology used by the NoC substrate.

Positions are ``(x, y)`` with ``0 <= x < width`` and ``0 <= y < height``;
node ids are row-major (``id = y * width + x``) and consistent with
:class:`repro.platform.chip.Chip` core ids.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

Position = Tuple[int, int]


class RouteCache:
    """Per-mesh memo of XY routes, filled lazily by :mod:`repro.noc.routing`.

    Routes on a mesh are static (deterministic XY), so once a
    (source, destination) pair has been walked its node path and link ids
    never change.  Both the analytic and the queued NoC models
    route through the same :class:`Mesh` instance and therefore share
    this table.  Entries are stored as tuples: callers may hold on to
    them without defensive copies.
    """

    __slots__ = ("paths", "link_ids")

    def __init__(self) -> None:
        self.paths: Dict[Tuple[Position, Position], Tuple[Position, ...]] = {}
        self.link_ids: Dict[Tuple[Position, Position], Tuple[int, ...]] = {}


#: Route tables depend only on the mesh geometry, so every Mesh of the
#: same size shares one cache — experiment sweeps build a fresh Mesh per
#: run and would otherwise re-walk every route from cold each time.
_SHARED_ROUTE_CACHES: Dict[Tuple[int, int], RouteCache] = {}


class Mesh:
    """A ``width x height`` 2-D mesh."""

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"invalid mesh {width}x{height}")
        self.width = width
        self.height = height
        cache = _SHARED_ROUTE_CACHES.get((width, height))
        if cache is None:
            cache = _SHARED_ROUTE_CACHES.setdefault((width, height), RouteCache())
        self.route_cache = cache

    def __len__(self) -> int:
        return self.width * self.height

    def contains(self, pos: Position) -> bool:
        x, y = pos
        return 0 <= x < self.width and 0 <= y < self.height

    def node_id(self, pos: Position) -> int:
        if not self.contains(pos):
            raise IndexError(f"{pos} outside {self.width}x{self.height} mesh")
        x, y = pos
        return y * self.width + x

    def position(self, node_id: int) -> Position:
        if not 0 <= node_id < len(self):
            raise IndexError(f"node id {node_id} out of range")
        return (node_id % self.width, node_id // self.width)

    def positions(self) -> Iterator[Position]:
        for y in range(self.height):
            for x in range(self.width):
                yield (x, y)

    def neighbors(self, pos: Position) -> List[Position]:
        x, y = pos
        out = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            cand = (x + dx, y + dy)
            if self.contains(cand):
                out.append(cand)
        return out

    @staticmethod
    def manhattan(a: Position, b: Position) -> int:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def hop_count(self, a: Position, b: Position) -> int:
        """Hops an XY-routed packet traverses between ``a`` and ``b``."""
        if not (self.contains(a) and self.contains(b)):
            raise IndexError(f"{a} or {b} outside mesh")
        return self.manhattan(a, b)
