"""Technology nodes and models, and the dark-silicon budget arithmetic.

The DATE'15 paper frames online testing as a consumer of the *power slack*
left under a fixed chip-level power budget (TDP).  With every technology
generation the aggregate peak power of all cores grows faster than the
budget, so the fraction of the chip that may be simultaneously active — the
*lit* fraction — shrinks: dark silicon.

We model a node with a handful of physical-ish parameters:

* ``vdd_nominal`` / ``vdd_min`` — nominal and near-threshold supply voltage;
* ``vth`` — threshold voltage (for the alpha-power frequency law);
* ``f_nominal_mhz`` — core clock at nominal voltage;
* ``ceff_nf`` — effective switched capacitance per core (nF), lumping
  activity factor and capacitance;
* ``leak_w_nominal`` — per-core leakage power at nominal voltage;
* ``leak_beta`` — exponential voltage sensitivity of leakage.

Dynamic power of a core running at voltage ``V`` and frequency ``f`` is
``ceff · V² · f`` and leakage is ``leak_w_nominal · (V/Vnom) ·
exp(leak_beta · (V − Vnom))``.  Absolute Watts are calibrated, not measured
(see DESIGN.md, substitutions table): what matters is that the budget-to-
demand ratio reproduces the published dark-silicon fractions per node.

A :class:`TechnologyModel` turns a node's formulas into per-core power
for one :class:`~repro.platform.coretypes.CoreType`, and derives the
lit and dark fractions of a type mix under a TDP.  Models are plain
parameter objects picked by name from :data:`TECHNOLOGY_MODELS`:
``cmos`` (the node's formulas times the type scales) and ``ntv``
(near-threshold: guard-banded timing, back-biased leakage).

Nothing here is memoized.  An evaluation is a few multiplies and one
``exp``; the power meter keeps its own per-chip leakage table (see
:mod:`repro.power.meter`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.platform.coretypes import CoreType


@dataclass(frozen=True)
class TechnologyNode:
    """Parameters of one CMOS technology node."""

    name: str
    feature_nm: int
    vdd_nominal: float
    vdd_min: float
    vth: float
    f_nominal_mhz: float
    ceff_nf: float
    leak_w_nominal: float
    leak_beta: float = 3.0
    alpha: float = 1.5  # alpha-power-law exponent for f(V)

    def __post_init__(self) -> None:
        if not (0.0 < self.vth < self.vdd_min < self.vdd_nominal):
            raise ValueError(
                f"{self.name}: require 0 < vth < vdd_min < vdd_nominal, got "
                f"vth={self.vth}, vdd_min={self.vdd_min}, "
                f"vdd_nom={self.vdd_nominal}"
            )
        if self.f_nominal_mhz <= 0 or self.ceff_nf <= 0:
            raise ValueError(f"{self.name}: frequency and ceff must be positive")

    # ------------------------------------------------------------------
    # Electrical models
    # ------------------------------------------------------------------
    def frequency_at(self, vdd: float) -> float:
        """Maximum clock (MHz) sustainable at ``vdd`` (alpha-power law)."""
        if vdd < self.vth:
            return 0.0
        scale = ((vdd - self.vth) / (self.vdd_nominal - self.vth)) ** self.alpha
        return self.f_nominal_mhz * scale

    def dynamic_power(self, vdd: float, f_mhz: float, activity: float = 1.0) -> float:
        """Dynamic power (W) of one core at ``vdd`` (V) and ``f_mhz`` (MHz)."""
        if activity < 0:
            raise ValueError(f"activity must be >= 0, got {activity}")
        # ceff[nF]·1e-9 F · V² · f[MHz]·1e6 Hz == ceff·V²·f · 1e-3 W
        return self.ceff_nf * vdd * vdd * f_mhz * 1e-3 * activity

    def leakage_power(self, vdd: float) -> float:
        """Leakage power (W) of one powered core at ``vdd``."""
        if vdd <= 0:
            return 0.0
        ratio = vdd / self.vdd_nominal
        return self.leak_w_nominal * ratio * math.exp(
            self.leak_beta * (vdd - self.vdd_nominal)
        )


@dataclass(frozen=True)
class TechnologyModel:
    """Maps (node, core type, V/F) to per-core power.

    Every evaluation takes a :class:`~repro.platform.coretypes.CoreType`,
    so IO / O3 / accelerator tiles on one die draw different power at the
    same V/F point and the chip's dark-silicon ratio becomes a *derived*
    quantity of the type mix (see :meth:`lit_fraction`).  Two parameters
    select the model family:

    * ``timing_guard`` — constant relative dynamic-power overhead (the
      wider timing margins near-threshold operation needs);
    * ``leak_gain`` — an extra ``exp(leak_gain * (vdd - vdd_nominal))``
      leakage factor, == 1 at nominal (aggressive body biasing steepens
      the roll-off below nominal supply).

    With both at 0.0 — the ``cmos`` baseline — every result is the
    node's formula times the type scale, and with the ``std`` type the
    node's formula itself, bit for bit: ``x * 1.0 == x`` and
    ``exp(±0.0) == 1.0``.
    """

    name: str
    timing_guard: float = 0.0
    leak_gain: float = 0.0

    def dynamic_power(
        self,
        node: TechnologyNode,
        ctype: CoreType,
        vdd: float,
        f_mhz: float,
        activity: float = 1.0,
    ) -> float:
        """Dynamic power (W) of one ``ctype`` core at ``vdd``/``f_mhz``."""
        return (
            node.dynamic_power(vdd, f_mhz, activity)
            * ctype.dyn_scale
            * (1.0 + self.timing_guard)
        )

    def leakage_power(
        self, node: TechnologyNode, ctype: CoreType, vdd: float
    ) -> float:
        """Leakage power (W) of one powered ``ctype`` core at ``vdd``."""
        return (
            node.leakage_power(vdd)
            * ctype.leak_scale
            * math.exp(self.leak_gain * (vdd - node.vdd_nominal))
        )

    def peak_core_power(self, node: TechnologyNode, ctype: CoreType) -> float:
        """Power (W) of one ``ctype`` core at nominal V/F, fully active."""
        return self.dynamic_power(
            node, ctype, node.vdd_nominal, node.f_nominal_mhz
        ) + self.leakage_power(node, ctype, node.vdd_nominal)

    # ------------------------------------------------------------------
    # Dark-silicon arithmetic over a type mix
    # ------------------------------------------------------------------
    def lit_fraction(
        self,
        node: TechnologyNode,
        type_counts: Mapping[CoreType, int],
        tdp_w: float,
    ) -> float:
        """Fraction of the chip runnable at peak within ``tdp_w`` (clipped).

        ``type_counts`` maps each :class:`CoreType` present to its tile
        count, in a stable iteration order (the chip uses first-occurrence
        order).  A single ``std`` entry of ``n`` tiles under ``cmos`` gives
        ``min(1, tdp_w / (n * peak))`` with the node's peak core power.
        """
        demand = 0.0
        n_cores = 0
        for ctype, count in type_counts.items():
            if count <= 0:
                raise ValueError(
                    f"type count for {ctype.name!r} must be positive"
                )
            demand += count * self.peak_core_power(node, ctype)
            n_cores += count
        if n_cores <= 0:
            raise ValueError("type_counts must cover at least one core")
        return min(1.0, tdp_w / demand)

    def dark_fraction(
        self,
        node: TechnologyNode,
        type_counts: Mapping[CoreType, int],
        tdp_w: float,
    ) -> float:
        """Complement of :meth:`lit_fraction`."""
        return 1.0 - self.lit_fraction(node, type_counts, tdp_w)


#: Calibrated node table.  With the default 80 W TDP on an 8x8 chip the lit
#: fractions are ~0.93 / 0.76 / 0.56 / 0.40 for 45/32/22/16 nm, matching the
#: utilization-wall trend the dark-silicon literature reports.
TECHNOLOGY_NODES: Dict[str, TechnologyNode] = {
    "45nm": TechnologyNode(
        name="45nm", feature_nm=45, vdd_nominal=1.10, vdd_min=0.55,
        vth=0.40, f_nominal_mhz=2000.0, ceff_nf=0.50, leak_w_nominal=0.14,
    ),
    "32nm": TechnologyNode(
        name="32nm", feature_nm=32, vdd_nominal=1.00, vdd_min=0.50,
        vth=0.38, f_nominal_mhz=2500.0, ceff_nf=0.58, leak_w_nominal=0.20,
    ),
    "22nm": TechnologyNode(
        name="22nm", feature_nm=22, vdd_nominal=0.95, vdd_min=0.48,
        vth=0.36, f_nominal_mhz=3000.0, ceff_nf=0.70, leak_w_nominal=0.35,
    ),
    "16nm": TechnologyNode(
        name="16nm", feature_nm=16, vdd_nominal=0.90, vdd_min=0.45,
        vth=0.34, f_nominal_mhz=3500.0, ceff_nf=0.95, leak_w_nominal=0.41,
    ),
}

#: Default chip-level thermal design power (W) shared by all nodes, so that
#: scaling the node while keeping TDP fixed exposes the dark-silicon squeeze.
DEFAULT_TDP_W = 80.0


def get_node(name: str) -> TechnologyNode:
    """Look up a technology node by name (e.g. ``"16nm"``)."""
    try:
        return TECHNOLOGY_NODES[name]
    except KeyError:
        known = ", ".join(sorted(TECHNOLOGY_NODES))
        raise KeyError(f"unknown technology node {name!r}; known: {known}") from None


def node_names() -> List[str]:
    """Node names ordered from oldest (largest feature) to newest."""
    return sorted(TECHNOLOGY_NODES, key=lambda n: -TECHNOLOGY_NODES[n].feature_nm)


#: Model registry.  ``cmos`` is the degenerate baseline every
#: pre-heterogeneity config implicitly used; ``ntv`` is its
#: near-threshold variant.
TECHNOLOGY_MODELS: Dict[str, TechnologyModel] = {
    "cmos": TechnologyModel("cmos"),
    "ntv": TechnologyModel("ntv", timing_guard=0.08, leak_gain=1.5),
}

#: Name of the baseline model.
DEFAULT_TECH_MODEL = "cmos"


def get_tech_model(name: str) -> TechnologyModel:
    """Look up a technology model by name (e.g. ``"cmos"``)."""
    try:
        return TECHNOLOGY_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(TECHNOLOGY_MODELS))
        raise KeyError(
            f"unknown technology model {name!r}; known: {known}"
        ) from None
