"""Runtime telemetry: live metrics, trace spans, and status exports.

Naming note — this package vs ``repro.metrics``: **`repro.metrics` is
simulation-domain metrics** (per-app latency/throughput records,
detection statistics, report tables — *results* of a run, part of what
experiments assert on), while **`repro.telemetry` is runtime
telemetry** (counters/gauges/histograms about the machinery while it
executes — events/s, launches and deferrals, cache hits, worker
health).  Nothing is re-exported across the two; telemetry never feeds
back into simulation results.

Like the journal (``repro.obs``), telemetry obeys the no-op-sink
invariant: every instrumentation site defaults to the disabled
:data:`NULL_TELEMETRY` registry and enabling telemetry never changes
what a run computes — registries are written to, never read from, by
instrumented code.  Unlike the journal, telemetry does **not** bypass
the run cache: its counters describe *executed* work, so cached hits
contribute ``cache.*`` counters but no ``sim.*`` ones.

Cross-process model: the supervisor owns one registry per sweep or
campaign and opens a root trace span; each worker run executes under
:func:`worker_telemetry`, which opens a child span around a fresh
registry — handed explicitly to ``run_system(telemetry=)``, never
installed process-wide — and packages a *telemetry blob* (metric
snapshot + finished spans + wall time + pid) to travel back with the
result.  The supervisor merges blobs deterministically — see
``repro.telemetry.registry`` for why merged snapshots are
order-independent.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

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
from repro.telemetry.spans import Span, SpanContext, Tracer, new_trace_id

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "INVARIANT_PREFIXES",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "Span",
    "SpanContext",
    "TelemetrySession",
    "Tracer",
    "active_telemetry",
    "atomic_write_text",
    "configure_telemetry",
    "invariant_view",
    "new_trace_id",
    "prometheus_text",
    "snapshot_json",
    "worker_telemetry",
]

_active_telemetry: MetricsRegistry = NULL_TELEMETRY


def configure_telemetry(registry: Optional[MetricsRegistry] = None) -> None:
    """Install the process-wide default registry (``None`` resets to off)."""
    global _active_telemetry
    _active_telemetry = registry if registry is not None else NULL_TELEMETRY


def active_telemetry() -> MetricsRegistry:
    """The process-wide default registry (NULL_TELEMETRY unless configured)."""
    return _active_telemetry


class WorkerScope:
    """What :func:`worker_telemetry` yields: the worker-side collect bucket."""

    def __init__(self, registry: MetricsRegistry, tracer: Tracer, span: Span) -> None:
        self.registry = registry
        self.tracer = tracer
        self.span = span
        self._start = time.perf_counter()

    def blob(self) -> Dict[str, object]:
        """The delta package the worker ships back with its result."""
        return {
            "metrics": self.registry.snapshot(),
            "spans": [span.to_data() for span in self.tracer.finished],
            "wall_s": time.perf_counter() - self._start,
            "pid": os.getpid(),
        }


@contextmanager
def worker_telemetry(
    ctx: Optional[SpanContext],
    slot: str,
    name: str = "worker.run",
    attrs: Optional[Dict[str, object]] = None,
) -> Iterator[Optional[WorkerScope]]:
    """Run a unit of work under a fresh registry and a child span.

    Yields a :class:`WorkerScope` whose ``registry`` the work records
    into (pass it to ``run_system(telemetry=)``; the process-wide
    registry is left alone), with a child span of ``ctx`` opened under
    the slot-derived deterministic id and closed on exit, even on
    exception.  Yields ``None`` when ``ctx`` is None — telemetry off,
    zero work.
    """
    if ctx is None:
        yield None
        return
    tracer = Tracer(trace_id=ctx.trace_id)
    span = tracer.start_child(name, ctx, slot, attrs=attrs)
    try:
        yield WorkerScope(MetricsRegistry(enabled=True), tracer, span)
    finally:
        tracer.finish(span)


class TelemetrySession:
    """Supervisor-side aggregation scope for one sweep or campaign.

    Owns the merge registry and the root span, hands out the
    :class:`SpanContext` to propagate into work items, folds worker
    blobs back in, and on :meth:`finish` emits every finished span as a
    ``trace.span`` journal event at ``t=0.0`` (the ``cache.*`` events
    convention) so the journal file remains replayable as-is.
    """

    def __init__(
        self,
        name: str,
        registry: Optional[MetricsRegistry] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer()
        self.root = self.tracer.start(name, attrs=attrs)
        self.worker_wall_s = 0.0
        self.worker_pids: Dict[int, int] = {}

    @property
    def ctx(self) -> SpanContext:
        """The propagation handle for work items under this session."""
        return self.root.context()

    def merge_blob(self, blob: Optional[Dict[str, object]]) -> None:
        """Fold one worker's telemetry blob into the session."""
        if not blob:
            return
        metrics = blob.get("metrics")
        if metrics:
            self.registry.merge(metrics)  # type: ignore[arg-type]
        for data in blob.get("spans") or ():  # type: ignore[union-attr]
            self.tracer.finished.append(Span.from_data(data))
        self.worker_wall_s += float(blob.get("wall_s", 0.0))  # type: ignore[arg-type]
        pid = blob.get("pid")
        if pid is not None:
            pid = int(pid)  # type: ignore[arg-type]
            self.worker_pids[pid] = self.worker_pids.get(pid, 0) + 1

    def finish(self, **attrs: object) -> Span:
        """Close the root span and mirror all spans into the journal."""
        self.tracer.finish(self.root, **attrs)
        from repro.obs import active_journal

        journal = active_journal()
        if journal.enabled:
            for span in self.tracer.finished:
                journal.emit("trace.span", 0.0, **span.to_data())
        return self.root
