"""A small deterministic discrete-event simulation engine.

The engine keeps a heap of :class:`~repro.sim.events.Event` objects and an
absolute clock ``now`` (microseconds throughout this project, although the
engine itself is unit-agnostic).  Model components schedule callbacks with
:meth:`Simulator.schedule` / :meth:`Simulator.at`; periodic control planes
(power manager, test scheduler) register with :meth:`Simulator.every`.

Determinism guarantees:

* events at equal ``(time, priority)`` fire in scheduling order;
* no wall-clock or global RNG use — randomness comes exclusively from
  :mod:`repro.sim.rng` streams owned by the caller.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.events import Event, PRIORITY_CONTROL, PRIORITY_NORMAL, next_seq

#: Heap entries are ``(time, priority, seq, event)``: the event's ordering
#: key first, so the C heap compares numbers and never calls ``Event.__lt__``.
_HeapEntry = Tuple[float, int, int, Event]


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


class Simulator:
    """Discrete-event simulation kernel with a deterministic event order."""

    #: Compact the heap when cancelled events outnumber live ones and
    #: there are enough of them to matter.  Compaction preserves the pop
    #: order exactly: events are totally ordered by (time, priority, seq),
    #: so re-heapifying the survivors cannot reorder anything.
    COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[_HeapEntry] = []
        self._n_cancelled = 0  # cancelled events still sitting in the heap
        self._running = False
        self._stopped = False
        self.events_fired: int = 0
        self.heap_compactions: int = 0
        #: Bound once: every event in the heap shares this callback.
        self._cancel_cb = self._on_event_cancelled

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        action: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``action(*args)`` at absolute ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        seq = next_seq()
        event = Event(time, priority, seq, action, args, False, self._cancel_cb)
        heappush(self._heap, (time, priority, seq, event))
        return event

    def _on_event_cancelled(self, _event: Event) -> None:
        self._n_cancelled += 1
        if (
            self._n_cancelled > self.COMPACT_MIN_CANCELLED
            and self._n_cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events, in place: :meth:`run` holds the list."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapify(heap)
        self._n_cancelled = 0
        self.heap_compactions += 1

    def schedule(
        self,
        delay: float,
        action: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``action(*args)`` after ``delay`` time units."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # Inlined ``at`` (minus its past-time check, vacuous for delay >= 0):
        # this is the busiest entry point into the kernel.
        time = self.now + delay
        seq = next_seq()
        event = Event(time, priority, seq, action, args, False, self._cancel_cb)
        heappush(self._heap, (time, priority, seq, event))
        return event

    def every(
        self,
        period: float,
        action: Callable[[], Any],
        *,
        phase: float = 0.0,
        priority: int = PRIORITY_CONTROL,
    ) -> None:
        """Run ``action()`` periodically, first at ``now + phase + period``.

        Control-plane ticks default to :data:`PRIORITY_CONTROL` so they see
        the settled model state of their timestamp.
        """
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")

        def tick() -> None:
            action()
            if not self._stopped:
                self.schedule(period, tick, priority=priority)

        self.schedule(phase + period, tick, priority=priority)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the event heap drains or the clock passes ``until``.

        Returns the final simulation time (``until`` when a horizon was
        given, so time integrals cover the full window).
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        self._stopped = False
        heap = self._heap
        horizon = inf if until is None else until
        fired = 0
        try:
            while heap:
                entry = heappop(heap)
                time, _, _, event = entry
                if event.cancelled:
                    self._n_cancelled -= 1
                    continue
                if time > horizon:
                    # Same key, so it goes back where it was in pop order.
                    heappush(heap, entry)
                    break
                event.cancel_cb = None  # popped: no longer tracked
                self.now = time
                # Inlined Event.fire(): a popped event is not cancelled
                # (checked above) and cancellation from inside an action
                # only affects *other* heap entries.
                action = event.action
                if action is not None:
                    action(*event.args)
                fired += 1
                if self._stopped:
                    break
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self.events_fired += fired
            self._running = False
        return self.now

    def stop(self) -> None:
        """Stop the run loop after the current event returns."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        while self._heap and self._heap[0][3].cancelled:
            heappop(self._heap)
            self._n_cancelled -= 1
        if not self._heap:
            return None
        return self._heap[0][0]

    def pending(self) -> int:
        """Number of pending (non-cancelled) events (O(1))."""
        return len(self._heap) - self._n_cancelled
