"""Core-type descriptors for heterogeneous tiles.

The DATE'15 experiments run on a homogeneous grid, but the dark-silicon
argument sharpens when tiles are unequal: an accelerator-rich floorplan
(dark memory / accelerator literature, see PAPERS.md) mixes small
in-order tiles, wide out-of-order tiles and accelerator blocks whose
peak power, SBST session length and wear-out rates all differ.  A
:class:`CoreType` captures those differences as *dimensionless scales*
applied on top of the technology node's per-core analytic model:

* ``dyn_scale`` / ``leak_scale`` — multipliers on dynamic and leakage
  power (an O3 tile switches more capacitance; an accelerator is mostly
  dark logic with little leaking SRAM);
* ``sbst_cycles_scale`` — multiplier on SBST routine length (a wider
  pipeline needs longer march/functional patterns);
* ``detection_scale`` — multiplier on per-routine fault coverage
  (structured datapaths test better than control-heavy cores);
* ``aging_scale`` — multiplier on the stress accrual rate (duty-cycled
  accelerators age slower per busy microsecond);
* ``fault_hazard_scale`` — multiplier on the base fault hazard.

The load-bearing contract is *degeneracy*: the default ``std`` type
carries 1.0 for every scale, and IEEE-754 guarantees ``x * 1.0 == x``
bit-for-bit, so a chip where every tile is ``std`` produces floats —
and therefore result digests — identical to the pre-heterogeneity
engine.  The differential harness (``tests/test_hetero_differential.py``)
pins that contract against frozen goldens.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List


@dataclass(frozen=True)
class CoreType:
    """One tile flavour: power / test / aging scales over the node model."""

    name: str
    description: str
    dyn_scale: float = 1.0
    leak_scale: float = 1.0
    sbst_cycles_scale: float = 1.0
    detection_scale: float = 1.0
    aging_scale: float = 1.0
    fault_hazard_scale: float = 1.0

    def __post_init__(self) -> None:
        for field in fields(self):
            if field.type != "float":
                continue
            value = getattr(self, field.name)
            if value < 0.0:
                raise ValueError(
                    f"{self.name}: {field.name} must be >= 0, got {value}"
                )
        if not (0.0 < self.detection_scale <= 1.0):
            raise ValueError(
                f"{self.name}: detection_scale must be in (0, 1], got "
                f"{self.detection_scale}"
            )
        if self.sbst_cycles_scale <= 0.0:
            raise ValueError(
                f"{self.name}: sbst_cycles_scale must be > 0, got "
                f"{self.sbst_cycles_scale}"
            )


#: The type catalog.  ``std`` is the degenerate identity type every
#: pre-heterogeneity config implicitly used; the other three follow the
#: accelerator-rich floorplan archetypes (small IO tile, wide O3 tile,
#: fixed-function accelerator block).
CORE_TYPES: Dict[str, CoreType] = {
    "std": CoreType(
        name="std",
        description="baseline tile, identical to the homogeneous engine",
    ),
    "io": CoreType(
        name="io",
        description="small in-order tile: low power, short SBST, slow wear",
        dyn_scale=0.6,
        leak_scale=0.7,
        sbst_cycles_scale=0.7,
        detection_scale=1.0,
        aging_scale=0.8,
        fault_hazard_scale=0.9,
    ),
    "o3": CoreType(
        name="o3",
        description="wide out-of-order tile: hot, long SBST, fast wear",
        dyn_scale=1.6,
        leak_scale=1.3,
        sbst_cycles_scale=1.4,
        detection_scale=0.95,
        aging_scale=1.25,
        fault_hazard_scale=1.2,
    ),
    "accel": CoreType(
        name="accel",
        description="accelerator block: high peak, duty-cycled, mostly dark",
        dyn_scale=2.5,
        leak_scale=0.5,
        sbst_cycles_scale=0.6,
        detection_scale=0.9,
        aging_scale=1.1,
        fault_hazard_scale=0.8,
    ),
}

#: Name of the degenerate identity type.
DEFAULT_CORE_TYPE = "std"


def get_core_type(name: str) -> CoreType:
    """Look up a core type by name (e.g. ``"o3"``)."""
    try:
        return CORE_TYPES[name]
    except KeyError:
        known = ", ".join(sorted(CORE_TYPES))
        raise KeyError(
            f"unknown core type {name!r}; known: {known}"
        ) from None


def register_core_type(ctype: CoreType, overwrite: bool = False) -> CoreType:
    """Add a custom :class:`CoreType` to the catalog (pluggable layer).

    Used by experiments and the metamorphic relation suite to introduce
    special-purpose tiles (e.g. a zero-hazard control type) without
    editing the built-in catalog.  Registering an existing name requires
    ``overwrite=True``.
    """
    if ctype.name in CORE_TYPES and not overwrite:
        raise ValueError(f"core type {ctype.name!r} already registered")
    CORE_TYPES[ctype.name] = ctype
    return ctype


def core_type_names() -> List[str]:
    """Catalog names, degenerate ``std`` first, then alphabetical."""
    rest = sorted(n for n in CORE_TYPES if n != DEFAULT_CORE_TYPE)
    return [DEFAULT_CORE_TYPE] + rest
