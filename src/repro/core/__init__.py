"""The paper's contribution: criticality metric, power-aware test
scheduler, test-aware mapper, execution engine and the integrated system."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CriticalityParameters": "config_io",
    "ExecutionEngine": "executor",
    "ManycoreSystem": "system",
    "PowerAwareTestScheduler": "scheduler",
    "SimulationResult": ".metrics.collectors",
    "SystemConfig": "config_io",
    "TaskExecution": "executor",
    "TestAwareUtilizationMapper": "mapping",
    "TestCriticality": "criticality",
    "run_system": "system",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
