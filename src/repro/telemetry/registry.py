"""The metrics registry: counters, gauges and bounded histograms.

Design constraints, in order of importance:

1. **No-op null sink.**  Instrumentation sites hold a reference to a
   registry that is usually :data:`NULL_TELEMETRY`; a disabled registry
   hands out shared null metric objects whose mutators do nothing, so an
   uninstrumented run pays one attribute read per site and — like the
   journal — *enabling* telemetry must never change
   what a run computes (telemetry is read-only by contract).
2. **Deterministic, order-independent merge.**  Worker processes return
   metric deltas with their results and the supervisor merges them in
   whatever order work completes.  Every merged field is therefore an
   exact commutative/associative reduction: counters and histogram
   buckets are integer sums, gauges and histograms track only
   ``min``/``max``/``count`` (no float accumulators, whose addition
   order would leak the execution schedule into the snapshot), and a
   gauge's ``last`` field — inherently completion-order-dependent — is
   dropped by :meth:`MetricsRegistry.merge`.  Serial and pooled
   execution of the same work merge to identical snapshots (over the
   invariant namespaces, see :func:`invariant_view`).
3. **Fixed memory.**  Histograms are bounded: a fixed bucket ladder is
   chosen at creation and observations only bump integer bucket counts,
   so a billion observations cost the same bytes as ten.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "INVARIANT_PREFIXES",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "invariant_view",
]


class Counter:
    """Monotonically increasing integer count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the running total."""
        self.value += n


class Gauge:
    """Point-in-time measurement with order-independent min/max/count.

    ``last`` is the most recent value — meaningful within one process,
    dropped on cross-process merge (completion order is not data).
    """

    __slots__ = ("last", "min", "max", "count")

    def __init__(self) -> None:
        self.last: Optional[float] = None
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.count = 0

    def set(self, value: float) -> None:
        """Record ``value``, updating last/min/max and the sample count."""
        self.last = value
        if self.count == 0:
            self.min = self.max = value
        else:
            if value < self.min:  # type: ignore[operator]
                self.min = value
            if value > self.max:  # type: ignore[operator]
                self.max = value
        self.count += 1


#: Default histogram ladder: geometric decades with a 1-2-5 pattern,
#: wide enough for µs durations and small counts alike.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    1.0, 2.0, 5.0,
    10.0, 20.0, 50.0,
    100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0,
    10_000.0, 20_000.0, 50_000.0,
    100_000.0, 200_000.0, 500_000.0,
    1_000_000.0,
)


class Histogram:
    """Fixed-bound bucket histogram: O(len(bounds)) memory forever.

    ``bounds`` are upper bucket edges (inclusive, ascending); one
    implicit overflow bucket catches everything above the last edge.
    Only integer bucket counts and float min/max are kept — both merge
    exactly regardless of order.
    """

    __slots__ = ("bounds", "counts", "count", "min", "max")

    def __init__(self, bounds: Iterable[float] = DEFAULT_BOUNDS) -> None:
        edges = tuple(float(b) for b in bounds)
        if not edges:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError("histogram bounds must be strictly ascending")
        self.bounds = edges
        self.counts = [0] * (len(edges) + 1)  # +1 overflow bucket
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Drop ``value`` into its bucket and update min/max/count."""
        self.counts[bisect_left(self.bounds, value)] += 1
        if self.count == 0:
            self.min = self.max = value
        else:
            if value < self.min:  # type: ignore[operator]
                self.min = value
            if value > self.max:  # type: ignore[operator]
                self.max = value
        self.count += 1


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:  # noqa: D102 - no-op by design
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:  # noqa: D102 - no-op by design
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:  # noqa: D102 - no-op
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram((1.0,))


#: Namespaces whose values are a pure function of the simulated work —
#: identical whether the work ran serially or pooled.  The complement
#: (``exec.*``, ``campaign.*`` and any future machinery namespace)
#: describes *how* the work was executed and legitimately differs
#: between paths.
INVARIANT_PREFIXES: Tuple[str, ...] = ("sim.", "power.", "test.", "cache.")


def invariant_view(snapshot: Mapping[str, object]) -> Dict[str, object]:
    """Project a snapshot onto the execution-path-invariant namespaces.

    The serial == pooled identity contract is asserted on this view:
    machinery metrics (retries, queue depths) are execution-schedule
    facts, not simulation facts.
    """

    def keep(section: Mapping[str, object]) -> Dict[str, object]:
        return {
            name: value
            for name, value in section.items()
            if name.startswith(INVARIANT_PREFIXES)
        }

    return {
        "counters": keep(snapshot.get("counters", {})),  # type: ignore[arg-type]
        "gauges": keep(snapshot.get("gauges", {})),  # type: ignore[arg-type]
        "histograms": keep(snapshot.get("histograms", {})),  # type: ignore[arg-type]
    }


class MetricsRegistry:
    """Named metrics with snapshot/merge semantics.

    One registry per *scope*: the supervisor holds one for an entire
    sweep or campaign, each worker run gets a fresh one (opened by
    ``repro.telemetry.worker_telemetry``) whose snapshot travels back as
    a delta.  A disabled registry (``enabled=False``) is a pure null
    sink; :data:`NULL_TELEMETRY` is the shared process-wide instance.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Metric accessors (create-on-first-use)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (a shared no-op when disabled)."""
        if not self.enabled:
            return _NULL_COUNTER
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (a shared no-op when disabled)."""
        if not self.enabled:
            return _NULL_GAUGE
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        """The histogram called ``name`` (a shared no-op when disabled)."""
        if not self.enabled:
            return _NULL_HISTOGRAM
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(bounds)
        return metric

    # ------------------------------------------------------------------
    # Snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Plain-data view of every *touched* metric, keys sorted.

        Untouched metrics (zero counters, never-set gauges) are omitted
        so two registries that did the same work produce identical
        snapshots even if one pre-created metric objects the other
        never had reason to.
        """
        counters = {
            name: metric.value
            for name, metric in sorted(self._counters.items())
            if metric.value
        }
        gauges = {
            name: {
                "last": metric.last,
                "min": metric.min,
                "max": metric.max,
                "count": metric.count,
            }
            for name, metric in sorted(self._gauges.items())
            if metric.count
        }
        histograms = {
            name: {
                "bounds": list(metric.bounds),
                "counts": list(metric.counts),
                "count": metric.count,
                "min": metric.min,
                "max": metric.max,
            }
            for name, metric in sorted(self._histograms.items())
            if metric.count
        }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Fold a worker's snapshot into this registry, order-independently.

        Counters add; gauges combine min/max/count and *drop* ``last``
        (which worker finished most recently is scheduling noise, and
        keeping it would make merged snapshots depend on completion
        order); histograms require identical bounds and add bucket
        counts.
        """
        for name, value in snapshot.get("counters", {}).items():  # type: ignore[union-attr]
            self.counter(name).inc(int(value))
        for name, data in snapshot.get("gauges", {}).items():  # type: ignore[union-attr]
            gauge = self.gauge(name)
            if gauge is _NULL_GAUGE:
                continue
            count = int(data["count"])
            if count <= 0:
                continue
            if gauge.count == 0:
                gauge.min, gauge.max = data["min"], data["max"]
            else:
                if data["min"] < gauge.min:  # type: ignore[operator]
                    gauge.min = data["min"]
                if data["max"] > gauge.max:  # type: ignore[operator]
                    gauge.max = data["max"]
            gauge.count += count
            gauge.last = None  # completion order is not data
        for name, data in snapshot.get("histograms", {}).items():  # type: ignore[union-attr]
            bounds = tuple(float(b) for b in data["bounds"])
            hist = self.histogram(name, bounds)
            if hist is _NULL_HISTOGRAM:
                continue
            if hist.bounds != bounds:
                raise ValueError(
                    f"histogram {name!r}: cannot merge bounds {bounds} "
                    f"into existing {hist.bounds}"
                )
            for i, n in enumerate(data["counts"]):
                hist.counts[i] += int(n)
            count = int(data["count"])
            if count:
                if hist.count == 0:
                    hist.min, hist.max = data["min"], data["max"]
                else:
                    if data["min"] < hist.min:  # type: ignore[operator]
                        hist.min = data["min"]
                    if data["max"] > hist.max:  # type: ignore[operator]
                        hist.max = data["max"]
                hist.count += count

    def clear(self) -> None:
        """Drop every metric (the registry stays enabled/disabled as-is)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: The shared disabled registry every instrumentation site defaults to.
NULL_TELEMETRY = MetricsRegistry(enabled=False)
