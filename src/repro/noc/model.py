"""Analytic NoC latency/energy model with link-load accounting.

The scheduling and mapping claims of the paper depend on communication
*trends* — contiguous mappings communicate over fewer hops, dispersed ones
congest shared links — not on per-flit cycle accuracy, so we use the
standard analytic model:

* latency of transferring ``volume`` flits over ``h`` hops:
  ``h * router_delay_us + volume / bandwidth * (1 + congestion_penalty)``
  where the congestion penalty grows with the current load of the busiest
  traversed link;
* energy: ``volume * (h * e_link_pj + (h + 1) * e_router_pj)`` pico-joules.

Link loads are tracked as flits currently in flight per unidirectional
link, so concurrent transfers across shared links slow each other down —
enough fidelity for the mapper comparisons (experiment E7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.noc.routing import Link, link_id, xy_link_ids
from repro.noc.topology import Mesh, Position


@dataclass(frozen=True)
class NocParameters:
    """Electrical/timing parameters of the NoC."""

    router_delay_us: float = 0.005   # per-hop router+link traversal
    bandwidth_flits_per_us: float = 1000.0
    e_link_pj: float = 2.0           # per flit per link
    e_router_pj: float = 3.0         # per flit per router
    congestion_alpha: float = 1.0    # penalty slope per unit link load

    def __post_init__(self) -> None:
        if self.bandwidth_flits_per_us <= 0:
            raise ValueError("bandwidth must be positive")
        if self.router_delay_us < 0 or self.congestion_alpha < 0:
            raise ValueError("delays and penalties must be non-negative")


@dataclass(slots=True)
class TransferEstimate:
    """Result of admitting one transfer into the NoC model (read-only)."""

    latency_us: float
    energy_uj: float
    hops: int
    max_link_load: float


class NocModel:
    """Mesh NoC with XY routing and analytic contention."""

    def __init__(self, mesh: Mesh, params: NocParameters = NocParameters()) -> None:
        self.mesh = mesh
        self.params = params
        # Keyed by the links' small-int identities (see routing.link_id):
        # int keys hash substantially faster than nested position tuples,
        # and this table is touched several times per transfer.
        self._link_load: Dict[int, float] = {}
        self.total_flits: float = 0.0
        self.total_energy_uj: float = 0.0
        self.total_flit_hops: float = 0.0

    # ------------------------------------------------------------------
    # Load accounting
    # ------------------------------------------------------------------
    def link_load(self, link: Link) -> float:
        return self._link_load.get(link_id(self.mesh, link), 0.0)

    def link_loads(self) -> Dict[int, float]:
        """Current per-link flit loads keyed by link id (a copy).

        Only links with in-flight transfers appear; all loads are
        non-negative by construction (``release`` refuses to go below
        zero), which is what the NoC sanity invariant checks.
        """
        return dict(self._link_load)

    def release(self, link_ids: Sequence[int], flits: float) -> None:
        """Take ``flits`` off each link; ends a transfer whose ``route``
        :meth:`admit` returned."""
        loads = self._link_load
        get = loads.get
        for lid in link_ids:
            remaining = get(lid, 0.0) - flits
            if remaining < -1e-9:
                raise ValueError(f"link {lid} released below zero")
            if remaining <= 1e-9:
                loads.pop(lid, None)
            else:
                loads[lid] = remaining

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def _price(self, hops: int, flits: float, load: float) -> Tuple[float, float]:
        """``(latency_us, energy_uj)`` of a non-empty transfer of ``flits``
        over ``hops`` links whose busiest carries ``load`` flits."""
        params = self.params
        normalized = load / params.bandwidth_flits_per_us
        serial = flits / params.bandwidth_flits_per_us
        latency = (
            hops * params.router_delay_us
            + serial * (1.0 + params.congestion_alpha * normalized)
        )
        energy_pj = flits * (
            hops * params.e_link_pj + (hops + 1) * params.e_router_pj
        )
        return latency, energy_pj * 1e-6

    def estimate(
        self, src: Position, dst: Position, flits: float, now: float = 0.0
    ) -> TransferEstimate:
        """Latency/energy of a transfer given *current* link loads.

        ``now`` is accepted for interface parity with the queued model and
        ignored: the analytic model's state is load, not time.  Does not
        change model state; use :meth:`begin_transfer` /
        :meth:`end_transfer` around the transfer's lifetime.
        """
        if flits < 0:
            raise ValueError("flit volume must be non-negative")
        link_ids = xy_link_ids(self.mesh, src, dst)
        hops = len(link_ids)
        if flits == 0 or hops == 0:
            return TransferEstimate(0.0, 0.0, hops, 0.0)
        load = max([self._link_load.get(lid, 0.0) for lid in link_ids])
        latency, energy_uj = self._price(hops, flits, load)
        return TransferEstimate(latency, energy_uj, hops, load)

    def admit(
        self, src: Position, dst: Position, flits: float, now: float = 0.0
    ) -> Tuple[float, float, float, Sequence[int]]:
        """:meth:`begin_transfer` as ``(latency_us, energy_uj, max_link_load,
        route)``, building no estimate; hand ``route`` (the link ids) to
        :meth:`release` when the transfer ends."""
        if flits < 0:
            raise ValueError("flit volume must be non-negative")
        link_ids = xy_link_ids(self.mesh, src, dst)
        hops = len(link_ids)
        loads = self._link_load
        get = loads.get
        # Busiest-load scan fused with occupancy: an XY route visits each
        # link once, so reading a link and then writing it cannot affect
        # another link's reading.  Loads are non-negative, so starting the
        # maximum at 0.0 picks the same float ``max`` of the loads does.
        load = 0.0
        for lid in link_ids:
            seen = get(lid, 0.0)
            if seen > load:
                load = seen
            loads[lid] = seen + flits
        if flits == 0 or hops == 0:
            latency = energy_uj = load = 0.0
        else:
            latency, energy_uj = self._price(hops, flits, load)
        self.total_flits += flits
        self.total_flit_hops += flits * hops
        self.total_energy_uj += energy_uj
        return latency, energy_uj, load, link_ids

    def begin_transfer(
        self, src: Position, dst: Position, flits: float, now: float = 0.0
    ) -> TransferEstimate:
        """Admit a transfer: account its load and return its estimate."""
        latency, energy_uj, load, link_ids = self.admit(src, dst, flits, now)
        return TransferEstimate(latency, energy_uj, len(link_ids), load)

    def end_transfer(self, src: Position, dst: Position, flits: float) -> None:
        """Retire a transfer admitted with :meth:`begin_transfer`."""
        self.release(xy_link_ids(self.mesh, src, dst), flits)

    def average_hops(self) -> float:
        """Mean hop count per flit transferred so far."""
        if self.total_flits == 0:
            return 0.0
        return self.total_flit_hops / self.total_flits
