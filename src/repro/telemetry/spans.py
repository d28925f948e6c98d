"""Trace spans: supervisor→worker causality for distributed runs.

A *trace* covers one top-level operation (a sweep, a campaign); *spans*
are the timed units of work inside it.  The supervisor opens a root
span and hands each worker a picklable :class:`SpanContext`; the worker
opens a child span whose id is **derived deterministically** from the
parent id plus its work slot (sweep index, point digest, group digest),
so concurrently spawned workers can never collide and a re-run of the
same work produces the same span ids.

Spans carry wall-clock timings, which are inherently non-deterministic
— they therefore live *outside* the metrics registry (whose snapshots
must merge order-independently) and travel in the per-worker telemetry
blob.  At the supervisor they are emitted as ``trace.span`` journal
events (at ``t=0.0``, the same convention ``cache.*`` events use), so
existing journal tooling — including the bit-exact replayer, which
ignores event kinds it does not model — keeps round-tripping.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Span", "SpanContext", "Tracer", "new_trace_id"]


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (random, not derived from run state)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class SpanContext:
    """The picklable propagation handle: just enough to parent a child.

    This is what crosses the process boundary inside executor work
    items; everything else about a span stays with its tracer.
    """

    trace_id: str
    span_id: str

    def child_id(self, slot: str) -> str:
        """Deterministic child span id for a work slot under this span."""
        return f"{self.span_id}/{slot}"


@dataclass
class Span:
    """One timed unit of work within a trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    start_s: float = 0.0
    end_s: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> Optional[float]:
        """Elapsed seconds, or ``None`` while the span is still open."""
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    def context(self) -> SpanContext:
        """The picklable ``SpanContext`` for propagating this span."""
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_data(self) -> Dict[str, object]:
        """Flat dict form, suitable as journal-event payload."""
        data: Dict[str, object] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
        }
        for key, value in sorted(self.attrs.items()):
            data["attr_" + key] = value
        return data

    @classmethod
    def from_data(cls, data: Dict[str, object]) -> "Span":
        """Rebuild a span from its :meth:`to_data` journal payload."""
        attrs = {
            key[len("attr_"):]: value
            for key, value in data.items()
            if key.startswith("attr_")
        }
        return cls(
            name=str(data["name"]),
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=(
                None if data.get("parent_id") is None else str(data["parent_id"])
            ),
            start_s=float(data["start_s"]),  # type: ignore[arg-type]
            end_s=(
                None if data.get("end_s") is None else float(data["end_s"])  # type: ignore[arg-type]
            ),
            attrs=attrs,
        )


class Tracer:
    """Span factory for one process's view of a trace.

    The supervisor's tracer mints sequential ids (``s0``, ``s1``, ...);
    workers derive their ids from the propagated parent context instead
    (see :meth:`start_child`), so two tracers in different processes
    never hand out the same id.  Finished spans accumulate in
    :attr:`finished` (workers ship them back in the telemetry blob;
    the supervisor appends them to its own).
    """

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.finished: List[Span] = []
        self._seq = 0

    def start(
        self,
        name: str,
        parent: Optional[SpanContext] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Open a span with a locally minted sequential id."""
        span_id = f"s{self._seq}"
        self._seq += 1
        return Span(
            name=name,
            trace_id=parent.trace_id if parent else self.trace_id,
            span_id=span_id if parent is None else f"{parent.span_id}.{span_id}",
            parent_id=parent.span_id if parent else None,
            start_s=time.time(),
            attrs=dict(attrs or {}),
        )

    def start_child(
        self,
        name: str,
        parent: SpanContext,
        slot: str,
        attrs: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Open a worker-side child span with a slot-derived id.

        ``slot`` must be unique among the siblings fanned out under
        ``parent`` (a sweep index, a point digest prefix); uniqueness of
        the derived id then needs no coordination between processes.
        """
        return Span(
            name=name,
            trace_id=parent.trace_id,
            span_id=parent.child_id(slot),
            parent_id=parent.span_id,
            start_s=time.time(),
            attrs=dict(attrs or {}),
        )

    def finish(self, span: Span, **attrs: object) -> Span:
        """Close a span, stamp extra attrs, and record it."""
        span.end_s = time.time()
        if attrs:
            span.attrs.update(attrs)
        self.finished.append(span)
        return span
