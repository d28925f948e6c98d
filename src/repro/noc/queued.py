"""Queued (store-and-forward) NoC model — the fidelity cross-check.

The default :class:`~repro.noc.model.NocModel` is analytic: contention is
a latency penalty proportional to current link load.  This module offers
a more detailed alternative with explicit *temporal* link contention:
every unidirectional link keeps the absolute time it becomes free, and a
message reserves its links hop by hop (store-and-forward at message
granularity):

``start(link) = max(arrival + router_delay, link_free(link))``
``finish(link) = start + flits / bandwidth``

Messages queue *behind each other in time* instead of merely slowing each
other down, which is the first-order effect a wormhole NoC exhibits under
congestion.  Energy accounting is identical to the analytic model.

The point of carrying both models is experiment **A8**: running the same
workload under both and showing the scheduling/penalty results are
insensitive to the NoC abstraction — the justification for the analytic
substitution claimed in DESIGN.md.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.noc.model import NocParameters, TransferEstimate
from repro.noc.routing import Link, link_id, xy_link_ids
from repro.noc.topology import Mesh, Position


class QueuedNocModel:
    """Mesh NoC with per-link temporal reservations (store-and-forward)."""

    def __init__(self, mesh: Mesh, params: NocParameters = NocParameters()) -> None:
        self.mesh = mesh
        self.params = params
        self._link_free: Dict[int, float] = {}  # link id -> free at
        self.total_flits: float = 0.0
        self.total_energy_uj: float = 0.0
        self.total_flit_hops: float = 0.0
        self.total_queue_wait_us: float = 0.0

    # ------------------------------------------------------------------
    def link_free_at(self, link: Link) -> float:
        return self._link_free.get(link_id(self.mesh, link), 0.0)

    def _walk(
        self, src: Position, dst: Position, flits: float, now: float, commit: bool
    ) -> Tuple[float, float, int, float]:
        """``(latency_us, energy_uj, hops, max_wait_us)``; reserves if ``commit``."""
        if flits < 0:
            raise ValueError("flit volume must be non-negative")
        if now < 0:
            raise ValueError("now must be non-negative")
        link_ids = xy_link_ids(self.mesh, src, dst)
        hops = len(link_ids)
        if flits == 0 or hops == 0:
            return 0.0, 0.0, hops, 0.0
        params = self.params
        serial = flits / params.bandwidth_flits_per_us
        link_free = self._link_free
        arrival = now
        max_wait = 0.0
        for lid in link_ids:
            ready = arrival + params.router_delay_us
            # ``max(ready, free)`` and ``max(max_wait, wait)``, spelled out.
            free = link_free.get(lid, 0.0)
            start = free if free > ready else ready
            if start - ready > max_wait:
                max_wait = start - ready
            arrival = start + serial
            if commit:
                link_free[lid] = arrival
        energy_pj = flits * (
            hops * params.e_link_pj + (hops + 1) * params.e_router_pj
        )
        return arrival - now, energy_pj * 1e-6, hops, max_wait

    # ------------------------------------------------------------------
    # NocModel-compatible interface
    # ------------------------------------------------------------------
    def estimate(
        self, src: Position, dst: Position, flits: float, now: float = 0.0
    ) -> TransferEstimate:
        return TransferEstimate(*self._walk(src, dst, flits, now, commit=False))

    def admit(
        self, src: Position, dst: Position, flits: float, now: float = 0.0
    ) -> Tuple[float, float, float, Sequence[int]]:
        """:meth:`begin_transfer` as ``(latency_us, energy_uj, max_wait_us,
        route)``; the route is empty, as :meth:`release` has nothing to do."""
        latency, energy_uj, hops, wait = self._walk(src, dst, flits, now, True)
        self.total_flits += flits
        self.total_flit_hops += flits * hops
        self.total_energy_uj += energy_uj
        self.total_queue_wait_us += wait
        return latency, energy_uj, wait, ()

    def begin_transfer(
        self, src: Position, dst: Position, flits: float, now: float = 0.0
    ) -> TransferEstimate:
        latency, energy_uj, wait, _ = self.admit(src, dst, flits, now)
        hops = len(xy_link_ids(self.mesh, src, dst))
        return TransferEstimate(latency, energy_uj, hops, wait)

    def release(self, route: Sequence[int], flits: float) -> None:
        """No-op: reservations expire with simulated time."""

    def end_transfer(self, src: Position, dst: Position, flits: float) -> None:
        """No-op: reservations expire with simulated time."""

    def average_hops(self) -> float:
        if self.total_flits == 0:
            return 0.0
        return self.total_flit_hops / self.total_flits
