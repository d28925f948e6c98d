"""Manycore platform substrate: technology nodes, DVFS, cores, chip."""

from repro.platform.chip import Chip
from repro.platform.core import BusyWindow, Core, CoreState
from repro.platform.coretypes import (
    CORE_TYPES,
    DEFAULT_CORE_TYPE,
    CoreType,
    core_type_names,
    get_core_type,
    register_core_type,
)
from repro.platform.dvfs import VFLevel, VFTable, build_vf_table
from repro.platform.thermal import ThermalModel, ThermalParameters, thermal_safe_power
from repro.platform.variation import VariationModel, VariationParameters
from repro.platform.technology import (
    DEFAULT_TDP_W,
    DEFAULT_TECH_MODEL,
    TECHNOLOGY_MODELS,
    TECHNOLOGY_NODES,
    TechnologyModel,
    TechnologyNode,
    get_node,
    get_tech_model,
    node_names,
)

__all__ = [
    "BusyWindow",
    "CORE_TYPES",
    "Chip",
    "Core",
    "CoreState",
    "CoreType",
    "DEFAULT_CORE_TYPE",
    "DEFAULT_TDP_W",
    "DEFAULT_TECH_MODEL",
    "TECHNOLOGY_MODELS",
    "TECHNOLOGY_NODES",
    "TechnologyModel",
    "TechnologyNode",
    "ThermalModel",
    "ThermalParameters",
    "VariationModel",
    "VariationParameters",
    "VFLevel",
    "VFTable",
    "build_vf_table",
    "core_type_names",
    "get_core_type",
    "get_node",
    "get_tech_model",
    "node_names",
    "register_core_type",
    "thermal_safe_power",
]
