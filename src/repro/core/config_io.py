"""The config plane: SystemConfig, its parameter blocks, their JSON form.

This module imports no model code, so a process that only reads,
checks or digests configs does not load the simulator.  Configurations
are plain nested dataclasses; this module turns them into
JSON-compatible dictionaries and back, so runs can be archived, diffed
and replayed exactly:

>>> from repro.core.config_io import SystemConfig
>>> from repro.core.config_io import config_to_dict, config_from_dict
>>> cfg = SystemConfig(seed=42)
>>> config_from_dict(config_to_dict(cfg)) == cfg
True

Malformed input raises ``ValueError`` naming the field, whatever its
shape.  Unknown keys are rejected (a typo silently ignored is a mis-run
silently produced), and so are values of the wrong JSON type, in nested
parameter blocks and tuple elements too (``aging.bogus``,
``profile_weights[0]``): ``"seed": "4"``, ``4.0`` and ``true`` would
each run the simulation of ``4`` under a config digest of its own.  An
int is accepted where a float is declared if a float can hold it
(``80`` and ``80.0`` are two spellings with two digests, and both are
frozen in goldens; ``10**400`` is rejected).  Nested
parameter blocks are rebuilt into their proper dataclass types so
validation in ``__post_init__`` re-runs.  :func:`dataclass_from_dict`
is the one checker; campaign and DSE specs build their parameter
blocks with it too.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.obs.provenance import field_dict


@dataclass(frozen=True)
class CriticalityParameters:
    """Weights and normalisation of the criticality metric."""

    stress_weight: float = 0.6
    time_weight: float = 0.4
    stress_reference: float = 4.0      # stress units for one criticality unit
    time_reference_us: float = 3000.0  # µs since last test for one unit
    threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.stress_weight < 0 or self.time_weight < 0:
            raise ValueError("weights must be non-negative")
        if self.stress_weight + self.time_weight <= 0:
            raise ValueError("at least one weight must be positive")
        if self.stress_reference <= 0 or self.time_reference_us <= 0:
            raise ValueError("references must be positive")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")


@dataclass(frozen=True)
class AgingParameters:
    """Coefficients of the stress-accrual law."""

    base_rate: float = 1.0 / 1000.0   # stress units per µs busy at nominal V
    voltage_acceleration: float = 4.0  # k in exp(k * (V - Vnom))
    test_stress_fraction: float = 0.5  # tests stress the core too, but less

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if not 0.0 <= self.test_stress_fraction <= 1.0:
            raise ValueError("test_stress_fraction must be in [0, 1]")


@dataclass(frozen=True)
class ThermalParameters:
    """RC constants of the lumped per-core thermal node."""

    ambient_c: float = 45.0          # heatsink/ambient reference (°C)
    r_self_c_per_w: float = 12.0     # core -> ambient thermal resistance
    r_lateral_c_per_w: float = 8.0   # core <-> neighbour resistance
    #: Thermal capacitance. Small manycore tiles have millisecond-scale
    #: time constants (tau = R·C = 6 ms at the defaults), so temperatures
    #: genuinely evolve within the 10-100 ms simulation horizons.
    c_j_per_c: float = 0.0005
    limit_c: float = 95.0            # junction limit used by TSP policies

    def __post_init__(self) -> None:
        if self.r_self_c_per_w <= 0 or self.r_lateral_c_per_w <= 0:
            raise ValueError("thermal resistances must be positive")
        if self.c_j_per_c <= 0:
            raise ValueError("thermal capacitance must be positive")
        if self.limit_c <= self.ambient_c:
            raise ValueError("junction limit must exceed ambient")

    @property
    def tau_us(self) -> float:
        """Self time constant R·C in microseconds."""
        return self.r_self_c_per_w * self.c_j_per_c * 1e6


@dataclass(frozen=True)
class VariationParameters:
    """Magnitudes of the variation components."""

    sigma_systematic: float = 0.04   # peak amplitude of the spatial gradient
    sigma_random: float = 0.03       # stddev of the per-core random part
    leak_speed_coupling: float = 2.0  # leakage factor per unit speed delta
    min_factor: float = 0.75         # clip floor (a core can't be arbitrarily slow)
    max_factor: float = 1.25

    def __post_init__(self) -> None:
        if self.sigma_systematic < 0 or self.sigma_random < 0:
            raise ValueError("variation magnitudes must be non-negative")
        if not 0.0 < self.min_factor <= 1.0 <= self.max_factor:
            raise ValueError("clip range must bracket 1.0")


@dataclass(frozen=True)
class SystemConfig:
    """Everything that defines one simulation run."""

    # Platform
    width: int = 8
    height: int = 8
    node_name: str = "16nm"
    tdp_w: float = 80.0
    n_vf_levels: int = 8
    guard_fraction: float = 0.02
    #: Per-tile core-type names, row-major.  Empty means homogeneous
    #: ``std`` (the degenerate pre-heterogeneity platform); one entry
    #: means a homogeneous grid of that type; otherwise exactly
    #: ``width * height`` entries.
    type_grid: Tuple[str, ...] = ()
    #: Technology-model registry name (``cmos`` baseline or ``ntv``).
    tech_model: str = "cmos"
    # Control
    epoch_us: float = 100.0
    dvfs_transition_us: float = 0.0
    noc_mode: str = "analytic"          # analytic | queued
    horizon_us: float = 100_000.0
    seed: int = 1
    # Workload
    arrival_rate_per_ms: float = 6.0
    profile_names: Tuple[str, ...] = ("small", "medium", "large")
    profile_weights: Tuple[float, ...] = (0.40, 0.45, 0.15)
    bursty: bool = False
    # Policies
    mapper: str = "contiguous"          # contiguous | scatter | random | mappro | test-aware
    #: Mixed-criticality scheduling (ICCD'14): serve the queue in
    #: real-time-class priority order and bias DVFS towards RT cores.
    rt_priorities: bool = False
    power_policy: str = "pid"           # pid | tsp | naive | worst-case | none
    test_policy: str = "power-aware"    # power-aware | none | unaware | round-robin
    test_preemption: str = "auto"       # auto | abort | reserve
    # Testing knobs
    min_test_interval_us: float = 2500.0
    test_level_policy: str = "rotate"   # rotate | nominal
    max_concurrent_tests: int = 8
    sbst_scale: float = 1.0
    #: Resume aborted SBST sessions from a checkpoint (same core + level)
    #: instead of restarting the suite from scratch.
    test_checkpointing: bool = False
    criticality: CriticalityParameters = field(default_factory=CriticalityParameters)
    # Mapper knobs (test-aware)
    utilization_weight: float = 2.0
    criticality_weight: float = 2.0
    utilization_window_us: float = 2000.0
    # Reliability knobs
    aging: AgingParameters = field(default_factory=AgingParameters)
    fault_hazard_per_us: float = 0.0
    fault_stress_scale: float = 50.0
    # Platform realism knobs (off by default: the baseline evaluation)
    thermal_enabled: bool = False
    thermal: ThermalParameters = field(default_factory=ThermalParameters)
    thermal_test_margin_c: float = 5.0
    variation_enabled: bool = False
    variation: VariationParameters = field(default_factory=VariationParameters)

    def __post_init__(self) -> None:
        if self.epoch_us <= 0 or self.horizon_us <= 0:
            raise ValueError("epoch and horizon must be positive")
        if len(self.profile_names) != len(self.profile_weights):
            raise ValueError("profile names and weights must align")
        if self.test_preemption not in ("auto", "abort", "reserve"):
            raise ValueError(f"unknown preemption policy {self.test_preemption!r}")
        n_cores = self.width * self.height
        if len(self.type_grid) not in (0, 1, n_cores):
            raise ValueError(
                f"type_grid must have 0, 1 or {n_cores} entries for a "
                f"{self.width}x{self.height} mesh, got {len(self.type_grid)}"
            )


#: Nested parameter dataclasses, by the type name a field declares.
_NESTED = {
    cls.__name__: cls
    for cls in (
        CriticalityParameters,
        AgingParameters,
        ThermalParameters,
        VariationParameters,
    )
}
#: Checks per declared scalar type (a bool is not an int here).
_SCALARS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, float) or (
        isinstance(v, int) and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max  # an int float() can hold
    ),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
}


@functools.lru_cache(maxsize=None)
def _declared(cls: type) -> Dict[str, dataclasses.Field]:
    return {fld.name: fld for fld in dataclasses.fields(cls)}


def unknown_fields(
    data: Dict[str, Any], cls: type = SystemConfig, prefix: str = ""
) -> List[str]:
    """Dotted names of the keys of ``data`` that ``cls`` does not
    declare, looking into nested parameter blocks too
    (``["aging.bogus"]``)."""
    declared = _declared(cls)
    unknown: List[str] = []
    for key, value in data.items():
        if key not in declared:
            unknown.append(prefix + key)
        elif declared[key].type in _NESTED and isinstance(value, dict):
            unknown.extend(
                unknown_fields(
                    value, _NESTED[declared[key].type], f"{prefix}{key}."
                )
            )
    return unknown


def dataclass_from_dict(cls: type, data: Any, prefix: str = "") -> Any:
    """``cls(**data)`` for a JSON object ``data``, checked first.

    Raises ``ValueError`` naming the field (``prefix`` + its name) on a
    non-object, an unknown key, a missing required field or a value
    whose JSON type does not fit the declared one; ``cls``'s own
    ``__post_init__`` checks run as usual.  Declared scalar types are
    ``int``, ``float``, ``str`` and ``bool``, ``Optional`` ones (``null``
    allowed), tuples of them, and the nested parameter blocks of
    :class:`SystemConfig`.
    """
    if not isinstance(data, dict):
        what = f"field {prefix[:-1]!r}" if prefix else "config"
        raise ValueError(f"{what} must be an object, got {data!r}")
    unknown = unknown_fields(data, cls, prefix)
    if unknown:
        raise ValueError(f"unknown keys: {sorted(unknown)}")
    return _build(cls, data, prefix)


def _build(cls: type, data: Dict[str, Any], prefix: str) -> Any:
    kwargs: Dict[str, Any] = {}
    for fld in _declared(cls).values():
        name = prefix + fld.name
        if fld.name not in data:
            if (
                fld.default is dataclasses.MISSING
                and fld.default_factory is dataclasses.MISSING
            ):
                raise ValueError(f"field {name!r} is required")
            continue
        # Field types are strings: every config module defers annotations.
        value, declared = data[fld.name], fld.type
        if declared.startswith("Tuple[") and declared.endswith(", ...]"):
            if not isinstance(value, (list, tuple)):
                raise ValueError(
                    f"field {name!r} must be an array, got {value!r}"
                )
            element = declared[len("Tuple["):-len(", ...]")]
            for index, item in enumerate(value):
                _check_value(f"{name}[{index}]", element, item)
            value = tuple(value)
        elif declared in _NESTED:
            if isinstance(value, dict):
                value = _build(_NESTED[declared], value, f"{name}.")
            elif not isinstance(value, _NESTED[declared]):
                raise ValueError(
                    f"field {name!r} must be an object, got {value!r}"
                )
        else:
            _check_value(name, declared, value)
        kwargs[fld.name] = value
    return cls(**kwargs)


def _check_value(name: str, declared: str, value: Any) -> None:
    if declared.startswith("Optional[") and declared.endswith("]"):
        if value is None:
            return
        declared = declared[len("Optional["):-1]
    check = _SCALARS.get(declared)
    if check is not None and not check(value):
        raise ValueError(f"field {name!r} must be {declared}, got {value!r}")


def config_to_dict(config: SystemConfig) -> Dict[str, Any]:
    """Flatten a :class:`SystemConfig` into a JSON-compatible dict.

    Equal to ``dataclasses.asdict(config)``, from one field walk
    (:func:`repro.obs.provenance.field_dict`).
    """
    return field_dict(config)


def config_from_dict(data: Dict[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from :func:`config_to_dict` output.

    Raises ``ValueError`` on a non-object, on unknown keys (nested ones
    too) and on values of the wrong type (see the module docstring).
    """
    return dataclass_from_dict(SystemConfig, data)


def config_to_json(config: SystemConfig, indent: int = 2) -> str:
    return json.dumps(config_to_dict(config), indent=indent, sort_keys=True)


def config_from_json(text: str) -> SystemConfig:
    return config_from_dict(json.loads(text))


def save_config(config: SystemConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(config_to_json(config))
        handle.write("\n")


def load_config(path: str) -> SystemConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return config_from_json(handle.read())
