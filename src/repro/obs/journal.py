"""Structured event journal for simulation runs.

A :class:`Journal` is an append-only sink of typed, timestamped records:
every *decision* the control planes make (test launched / deferred and
why, DVFS level changes with the PID state behind them, budget
violations, application lifecycle, core state transitions) can be
captured and replayed after the run, which is the per-decision evidence
thermal/power-aware test-scheduling papers report.

Design constraints (the no-op-sink invariant, see DESIGN.md):

* **Off by default and cheap.**  Instrumentation sites hold a journal
  reference that defaults to :data:`NULL_JOURNAL` (``enabled`` False) and
  guard payload construction with ``if journal.enabled:`` — a disabled
  journal costs one attribute read per site and allocates nothing.
* **Read-only.**  Emitting must never consume RNG, reorder simulator
  events or touch a float the model computes: enabling the journal on a
  seeded run reproduces the disabled run's results bit for bit (pinned by
  ``tests/test_obs.py`` and the perf-kernel bench).
* **Filterable.**  Events carry a severity level (``info`` for decisions,
  ``debug`` for high-rate state churn); a bounded journal drops the
  newest events past ``capacity`` and counts them in ``dropped``.

Events serialise to JSONL (one object per line) for archival and for the
``python -m repro obs`` summariser.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

#: Severity order; an event is kept when its level is at or above the
#: journal's threshold.
LEVELS = ("debug", "info")

#: Event types considered high-rate state churn rather than decisions:
#: recorded only at the ``debug`` level.  ``map.blocked`` fires once per
#: distinct blocked chip state while the queue head waits — an order of
#: magnitude more often than any decision event — and the admission
#: outcome it explains is already captured by ``app.map``'s ``waited_us``.
DEBUG_TYPES = frozenset({"core.transition", "map.blocked"})


@dataclass(frozen=True)
class JournalEvent:
    """One typed, timestamped journal record.

    ``time`` is simulation time (µs); ``type`` is a dotted event kind
    (``test.launch``, ``dvfs.change``, ...); ``data`` is a flat mapping of
    JSON-compatible payload fields.
    """

    time: float
    type: str
    data: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        """One-line JSON form (sorted keys) for JSONL streams."""
        return json.dumps(
            {"t": self.time, "type": self.type, **self.data}, sort_keys=True
        )

    @classmethod
    def from_json(cls, line: str) -> "JournalEvent":
        """Parse one JSONL line back into an event."""
        raw = json.loads(line)
        time = raw.pop("t")
        kind = raw.pop("type")
        return cls(time=float(time), type=str(kind), data=raw)


class Journal:
    """Append-only structured event sink with a level filter."""

    def __init__(
        self,
        enabled: bool = True,
        level: str = "info",
        capacity: Optional[int] = None,
    ) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown journal level {level!r}; known: {LEVELS}")
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.enabled = enabled
        self.level = level
        #: Precomputed ``enabled and level == "debug"`` so hot call sites
        #: can skip building debug-event payloads with one attribute read.
        self.debug = enabled and level == "debug"
        self.capacity = capacity
        self.dropped = 0
        # Hot path: emit() appends to three parallel lists instead of
        # building one record object per event.  This is deliberate GC
        # hygiene, not micro-optimisation: floats and strings are not
        # GC-tracked and an all-atomic ``**data`` dict is untracked at
        # creation, so a journal with tens of thousands of retained
        # events adds (almost) nothing to the collector's long-lived set
        # and does not provoke extra full collections mid-run.  The
        # JournalEvent objects the query API hands out are materialised
        # lazily and cached.
        self._times: List[float] = []
        self._kinds: List[str] = []
        self._datas: List[Dict[str, object]] = []
        self._materialised: Optional[List[JournalEvent]] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def emit(self, type: str, time: float, **data: object) -> None:
        """Append one event (subject to the level and capacity filters)."""
        if not self.enabled:
            return
        if type in DEBUG_TYPES and self.level != "debug":
            return
        if self.capacity is not None and len(self._kinds) >= self.capacity:
            self.dropped += 1
            return
        self._times.append(time)
        self._kinds.append(type)
        self._datas.append(data)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[JournalEvent]:
        """All recorded events, oldest first."""
        if self._materialised is None or len(self._materialised) != len(self._kinds):
            self._materialised = [
                JournalEvent(time=t, type=kind, data=data)
                for t, kind, data in zip(self._times, self._kinds, self._datas)
            ]
        return self._materialised

    def __len__(self) -> int:
        return len(self._kinds)

    def counts(self) -> Dict[str, int]:
        """Number of recorded events per type."""
        out: Dict[str, int] = {}
        for kind in self._kinds:
            out[kind] = out.get(kind, 0) + 1
        return out

    def filter(
        self,
        type_prefix: Optional[str] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        where: Optional[Callable[[JournalEvent], bool]] = None,
    ) -> List[JournalEvent]:
        """Events matching a type prefix / time window / predicate."""
        out = []
        for event in self.events:
            if type_prefix is not None and not event.type.startswith(type_prefix):
                continue
            if t0 is not None and event.time < t0:
                continue
            if t1 is not None and event.time > t1:
                continue
            if where is not None and not where(event):
                continue
            out.append(event)
        return out

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """The journal as JSONL text, one event per line."""
        return "".join(event.to_json() + "\n" for event in self.events)

    def write_jsonl(self, path: str) -> None:
        """Write the journal to ``path`` as JSONL."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    @staticmethod
    def read_jsonl(source: str) -> List[JournalEvent]:
        """Parse JSONL text (not a path) back into events."""
        return [
            JournalEvent.from_json(line)
            for line in source.splitlines()
            if line.strip()
        ]

    @staticmethod
    def load_jsonl(path: str) -> List[JournalEvent]:
        """Read a journal back from a JSONL file."""
        with open(path, "r", encoding="utf-8") as handle:
            return Journal.read_jsonl(handle.read())


def events_of(journal_or_events: object) -> Iterable[JournalEvent]:
    """Accept either a :class:`Journal` or a plain event iterable."""
    if isinstance(journal_or_events, Journal):
        return journal_or_events.events
    return journal_or_events  # type: ignore[return-value]


#: The shared disabled sink every instrumentation site defaults to.
#: ``NULL_JOURNAL.emit`` returns immediately and records nothing.
NULL_JOURNAL = Journal(enabled=False)
