"""Simulation-domain metrics: collectors and report formatting.

How this package, ``repro.telemetry`` and ``repro.obs`` split the work:
``docs/observability.md``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AppRecord": "collectors",
    "MetricsCollector": "collectors",
    "format_series": "report",
    "format_table": "report",
    "sparkline": "report",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
