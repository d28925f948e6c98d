"""The metrics registry: counters, gauges and bounded histograms.

Design constraints, in order of importance:

1. **Outside the run.**  No registry ever enters a simulation, so
   counting cannot change what a run computes.  ``None`` is the one
   "count nothing" value: :func:`count_run` and the run cache's calls
   take it and count nothing.
2. **One counting rule.**  A run is counted from its finished
   :class:`~repro.core.system.SimulationResult` by :func:`count_run`,
   in the caller's process, wherever the result lands.  Every field is
   an exact order-independent reduction: counters are integer sums, and
   gauges and histograms keep ``min``/``max``/``count`` (no float
   accumulators, whose addition order would leak the execution schedule
   into the snapshot).  Only a gauge's ``last`` depends on the order
   results arrive in, and :func:`invariant_view` drops it, so serial and
   pooled execution of the same work give identical views.
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
    "count_run",
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

    ``last`` is the most recent value; it depends on the order values
    arrive in, so :func:`invariant_view` drops it.
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
    Only integer bucket counts and float min/max are kept, so the
    result does not depend on the order of observations.
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
    facts, not simulation facts, and so is a gauge's ``last`` (which
    run finished last), so gauges keep only ``min``/``max``/``count``.
    """

    def keep(section: Mapping[str, object]) -> Dict[str, object]:
        return {
            name: value
            for name, value in section.items()
            if name.startswith(INVARIANT_PREFIXES)
        }

    gauges = keep(snapshot.get("gauges", {}))  # type: ignore[arg-type]
    return {
        "counters": keep(snapshot.get("counters", {})),  # type: ignore[arg-type]
        "gauges": {
            name: {k: v for k, v in gauge.items() if k != "last"}  # type: ignore[union-attr]
            for name, gauge in gauges.items()
        },
        "histograms": keep(snapshot.get("histograms", {})),  # type: ignore[arg-type]
    }


class MetricsRegistry:
    """Named metrics with snapshot semantics.

    One registry per *scope*: a sweep, a campaign or a server holds one,
    and every run it computes is counted into it by :func:`count_run`.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Metric accessors (create-on-first-use)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter called ``name``."""
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``."""
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        """The histogram called ``name``."""
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(bounds)
        return metric

    # ------------------------------------------------------------------
    # Snapshot
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


def count_run(registry: Optional[MetricsRegistry], result) -> None:
    """Count one computed run into ``registry`` (``None``: nothing).

    Every value comes from the :class:`~repro.core.system.SimulationResult`:
    ``sim.runs``, ``sim.events``, ``sim.epochs`` (control epochs),
    ``test.sessions.{started,completed,aborted,resumed}``,
    ``test.detections`` and ``test.defer.no-level-fits`` (sessions the
    power-aware scheduler skipped because no V/F level fit), plus the
    gauges ``power.measured_w`` and ``power.headroom_w``, set once per
    epoch from the ``power.total`` trace.  Callers count computed runs
    only: a cache hit simulated nothing and adds no ``sim.*`` counts.
    """
    if registry is None:
        return
    stats = result.test_stats
    audit = result.metrics.audit
    for name, n in (
        ("sim.runs", 1),
        ("sim.events", result.events_fired),
        ("sim.epochs", audit.samples),
        ("test.sessions.started", stats.started),
        ("test.sessions.completed", stats.completed),
        ("test.sessions.aborted", stats.aborted),
        ("test.sessions.resumed", stats.resumed),
        ("test.detections", stats.detections),
        ("test.defer.no-level-fits", result.skipped_no_budget),
    ):
        registry.counter(name).inc(n)
    if not audit.samples:
        return
    measured = registry.gauge("power.measured_w")
    headroom = registry.gauge("power.headroom_w")
    for watts in result.metrics.trace.series("power.total")[1]:
        measured.set(watts)
        headroom.set(audit.budget.headroom(watts))
