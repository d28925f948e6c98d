"""Runtime telemetry: live metrics and status exports.

How this package, ``repro.metrics`` and ``repro.obs`` split the work:
``docs/observability.md``.

Like the journal (``repro.obs``), telemetry obeys the no-op-sink
invariant: every instrumentation site defaults to the disabled
:data:`NULL_TELEMETRY` registry and enabling telemetry never changes
what a run computes — registries are written to, never read from, by
instrumented code.  A registry is always an argument
(``run_system(telemetry=)``, ``run_many(telemetry=)``, the cache calls),
never a process-wide default, and telemetry composes with the run
cache: its counters describe *executed* work, so cached hits contribute
``cache.*`` counters but no ``sim.*`` ones.

Cross-process model: the supervisor owns one registry per sweep or
campaign; each run executed for it records into a fresh registry
(``repro.experiments.parallel.execute(telemetry=True)``) whose snapshot
travels back with the result, and the supervisor merges it — see
``repro.telemetry.registry`` for why merged snapshots are
order-independent.
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
    "invariant_view",
    "prometheus_text",
    "snapshot_json",
]
