"""Simulation-domain metrics: collectors and report formatting.

How this package, ``repro.telemetry`` and ``repro.obs`` split the work:
``docs/observability.md``.
"""

from repro.metrics.collectors import AppRecord, MetricsCollector
from repro.metrics.report import format_series, format_table, sparkline

__all__ = [
    "AppRecord",
    "MetricsCollector",
    "format_series",
    "format_table",
    "sparkline",
]
