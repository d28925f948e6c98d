"""SystemConfig serialisation (JSON round-trip).

Experiment configurations are plain nested dataclasses; this module turns
them into JSON-compatible dictionaries and back, so runs can be archived,
diffed and replayed exactly:

>>> from repro.core.system import SystemConfig
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
from typing import Any, Dict, List

from repro.aging.model import AgingParameters
from repro.core.criticality import CriticalityParameters
from repro.core.system import SystemConfig
from repro.obs.provenance import field_dict
from repro.platform.thermal import ThermalParameters
from repro.platform.variation import VariationParameters

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
