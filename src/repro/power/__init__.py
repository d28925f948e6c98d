"""Power substrate: metering, TDP budget, PID budgeting, DVFS policies."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BudgetAudit": "budget",
    "NaiveTDPManager": "manager",
    "NoOpPowerManager": "manager",
    "PIDController": "pid",
    "PIDGains": "pid",
    "PIDPowerManager": "manager",
    "PowerBreakdown": "meter",
    "PowerBudget": "budget",
    "PowerManager": "manager",
    "PowerMeter": "meter",
    "TSPPowerManager": "manager",
    "WorstCaseTDPManager": "manager",
    "make_power_manager": "manager",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
