"""Deterministic dimension-ordered (XY) routing.

XY routing first corrects the X coordinate, then the Y coordinate.  It is
deadlock-free on a mesh and is what the NoC manycore platforms this paper
targets (and the group's companion NoC papers) use.

Routes are static, so node paths and link-id sequences are memoized in
the mesh's :class:`~repro.noc.topology.RouteCache`; the analytic and
queued NoC models share one mesh and hence one table.
:func:`xy_link_ids` returns the cached tuple directly — treat it as
immutable.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.noc.topology import Mesh, Position

#: A unidirectional link between two adjacent mesh positions.
Link = Tuple[Position, Position]


def _walk_xy(mesh: Mesh, src: Position, dst: Position) -> Tuple[Position, ...]:
    if not (mesh.contains(src) and mesh.contains(dst)):
        raise IndexError(f"{src} or {dst} outside mesh")
    path = [src]
    x, y = src
    dx = 1 if dst[0] > x else -1
    while x != dst[0]:
        x += dx
        path.append((x, y))
    dy = 1 if dst[1] > y else -1
    while y != dst[1]:
        y += dy
        path.append((x, y))
    return tuple(path)


def _cached_path(mesh: Mesh, src: Position, dst: Position) -> Tuple[Position, ...]:
    cache = mesh.route_cache.paths
    key = (src, dst)
    path = cache.get(key)
    if path is None:
        path = _walk_xy(mesh, src, dst)
        cache[key] = path
    return path


def xy_path(mesh: Mesh, src: Position, dst: Position) -> List[Position]:
    """Sequence of positions an XY-routed packet visits, inclusive."""
    return list(_cached_path(mesh, src, dst))


def xy_links(mesh: Mesh, src: Position, dst: Position) -> Sequence[Link]:
    """Unidirectional links traversed by an XY-routed packet."""
    path = _cached_path(mesh, src, dst)
    return tuple(zip(path, path[1:]))


def link_id(mesh: Mesh, link: Link) -> int:
    """Small-integer identity of a unidirectional link.

    ``endpoint-node-id x mesh-size + endpoint-node-id`` is a bijection on
    links, so load tables may key by it instead of the nested position
    tuples (int dict keys hash much faster on the per-transfer path).
    """
    return mesh.node_id(link[0]) * len(mesh) + mesh.node_id(link[1])


def xy_link_ids(mesh: Mesh, src: Position, dst: Position) -> Sequence[int]:
    """:func:`xy_links` as cached link-id tuples (same order)."""
    cache = mesh.route_cache.link_ids
    key = (src, dst)
    ids = cache.get(key)
    if ids is None:
        ids = tuple(link_id(mesh, link) for link in xy_links(mesh, src, dst))
        cache[key] = ids
    return ids
