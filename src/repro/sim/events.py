"""Event primitives for the discrete-event simulation kernel.

The kernel is deliberately small: an event is a callback scheduled at an
absolute simulation time, ordered by ``(time, priority, sequence)``.  The
sequence number makes ordering fully deterministic for events that share a
timestamp and priority, which in turn makes every simulation in this
repository reproducible from its seed alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

#: Default priority for ordinary model events.
PRIORITY_NORMAL = 50
#: Priority for control-plane activities (power manager, test scheduler)
#: which must observe a settled model state, i.e. run *after* model events
#: that share their timestamp.
PRIORITY_CONTROL = 80
#: Priority for bookkeeping that must run before anything else at a time.
PRIORITY_EARLY = 10

#: Draws the next event sequence number from the process-wide counter.
next_seq = itertools.count().__next__


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Events compare by ``(time, priority, seq)`` so that a heap of events pops
    them in deterministic chronological order.
    """

    time: float
    priority: int
    seq: int = field(default_factory=next_seq)
    action: Callable[..., Any] = field(compare=False, default=None)
    args: Tuple[Any, ...] = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)
    #: Set by the owning simulator while the event sits in its heap, and
    #: cleared when the event is popped; lets the engine keep an exact
    #: live-event count without scanning the heap.
    cancel_cb: Optional[Callable[["Event"], None]] = field(
        compare=False, default=None, repr=False
    )

    def cancel(self) -> None:
        """Mark the event as cancelled; the engine will skip it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.cancel_cb is not None:
            self.cancel_cb(self)

    def fire(self) -> None:
        """Invoke the event's action (no-op when cancelled)."""
        if not self.cancelled and self.action is not None:
            self.action(*self.args)
