"""SystemConfig serialisation (JSON round-trip).

Experiment configurations are plain nested dataclasses; this module turns
them into JSON-compatible dictionaries and back, so runs can be archived,
diffed and replayed exactly:

>>> from repro.core.system import SystemConfig
>>> from repro.core.config_io import config_to_dict, config_from_dict
>>> cfg = SystemConfig(seed=42)
>>> config_from_dict(config_to_dict(cfg)) == cfg
True

Unknown keys in the input are rejected (a typo silently ignored is a
mis-run silently produced), and nested parameter blocks are rebuilt into
their proper dataclass types so validation in ``__post_init__`` re-runs.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict

from repro.aging.model import AgingParameters
from repro.core.criticality import CriticalityParameters
from repro.core.system import SystemConfig
from repro.obs.provenance import field_dict
from repro.platform.thermal import ThermalParameters
from repro.platform.variation import VariationParameters

#: Nested dataclass fields of SystemConfig and their types.
_NESTED = {
    "criticality": CriticalityParameters,
    "aging": AgingParameters,
    "thermal": ThermalParameters,
    "variation": VariationParameters,
}
#: Tuple-typed fields (JSON arrays come back as lists).
_TUPLES = ("profile_names", "profile_weights", "type_grid")


def config_to_dict(config: SystemConfig) -> Dict[str, Any]:
    """Flatten a :class:`SystemConfig` into a JSON-compatible dict.

    Equal to ``dataclasses.asdict(config)``, from one field walk
    (:func:`repro.obs.provenance.field_dict`).
    """
    return field_dict(config)


def config_from_dict(data: Dict[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from :func:`config_to_dict` output."""
    known = {f.name for f in dataclasses.fields(SystemConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        if key in _NESTED and isinstance(value, dict):
            kwargs[key] = _NESTED[key](**value)
        elif key in _TUPLES and isinstance(value, list):
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
    return SystemConfig(**kwargs)


def config_to_json(config: SystemConfig, indent: int = 2) -> str:
    return json.dumps(config_to_dict(config), indent=indent, sort_keys=True)


def config_from_json(text: str) -> SystemConfig:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("config JSON must be an object")
    return config_from_dict(data)


def save_config(config: SystemConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(config_to_json(config))
        handle.write("\n")


def load_config(path: str) -> SystemConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return config_from_json(handle.read())
