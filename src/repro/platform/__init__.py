"""Manycore platform substrate: technology nodes, DVFS, cores, chip."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BusyWindow": "core",
    "CORE_TYPES": "coretypes",
    "Chip": "chip",
    "Core": "core",
    "CoreState": "core",
    "CoreType": "coretypes",
    "DEFAULT_CORE_TYPE": "coretypes",
    "DEFAULT_TDP_W": "technology",
    "DEFAULT_TECH_MODEL": "technology",
    "TECHNOLOGY_MODELS": "technology",
    "TECHNOLOGY_NODES": "technology",
    "TechnologyModel": "technology",
    "TechnologyNode": "technology",
    "ThermalModel": "thermal",
    "ThermalParameters": "thermal",
    "VariationModel": "variation",
    "VariationParameters": "variation",
    "VFLevel": "dvfs",
    "VFTable": "dvfs",
    "build_vf_table": "dvfs",
    "core_type_names": "coretypes",
    "get_core_type": "coretypes",
    "get_node": "technology",
    "get_tech_model": "technology",
    "node_names": "technology",
    "register_core_type": "coretypes",
    "thermal_safe_power": "thermal",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
