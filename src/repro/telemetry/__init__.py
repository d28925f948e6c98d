"""Runtime telemetry: live metrics and status exports.

How this package, ``repro.metrics`` and ``repro.obs`` split the work:
``docs/observability.md``.

No registry enters a simulation.  A run is counted from its finished
:class:`~repro.core.system.SimulationResult` by :func:`count_run`, in
the caller's process, wherever a computed result lands: ``run_many``,
a campaign, ``repro serve``, ``RunCache.get_or_run`` and ``repro run
--telemetry``.  So counting cannot change what a run computes, and
every path counts the same run the same way.  A registry is always an
argument (``run_many(telemetry=)``, the cache calls), never a
process-wide default.  Its counters describe *computed* work: a cache
hit adds ``cache.*`` counters but no ``sim.*`` ones.
"""

from __future__ import annotations

from repro.telemetry.export import (
    atomic_write_text,
    prometheus_text,
    snapshot_json,
)
from repro.telemetry.registry import (
    INVARIANT_PREFIXES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_TELEMETRY,
    count_run,
    invariant_view,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "INVARIANT_PREFIXES",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "atomic_write_text",
    "count_run",
    "invariant_view",
    "prometheus_text",
    "snapshot_json",
]
