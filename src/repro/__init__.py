"""repro: reproduction of "Power-aware online testing of manycore systems
in the dark silicon era" (Haghbayan et al., DATE 2015).

Public API (the pieces a downstream user composes):

>>> from repro import SystemConfig, run_system
>>> result = run_system(SystemConfig(horizon_us=20_000, seed=7))
>>> result.summary()["tests_completed"] >= 0
True
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "Chip": "platform",
    "CoreState": "platform",
    "CriticalityParameters": "core",
    "ManycoreSystem": "core",
    "PowerAwareTestScheduler": "core",
    "SimulationResult": "core",
    "SystemConfig": "core",
    "TestAwareUtilizationMapper": "core",
    "TestCriticality": "core",
    "get_node": "platform",
    "node_names": "platform",
    "run_system": "core",
}
__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
