"""Unit tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import PRIORITY_CONTROL, PRIORITY_EARLY, PRIORITY_NORMAL


def test_events_fire_in_time_order(sim):
    log = []
    sim.at(5.0, log.append, "b")
    sim.at(1.0, log.append, "a")
    sim.at(9.0, log.append, "c")
    sim.run()
    assert log == ["a", "b", "c"]


def test_clock_advances_to_event_times(sim):
    times = []
    sim.at(2.5, lambda: times.append(sim.now))
    sim.at(7.0, lambda: times.append(sim.now))
    sim.run()
    assert times == [2.5, 7.0]


def test_schedule_is_relative_to_now(sim):
    seen = []
    def chain():
        seen.append(sim.now)
        if len(seen) < 3:
            sim.schedule(10.0, chain)
    sim.schedule(10.0, chain)
    sim.run()
    assert seen == [10.0, 20.0, 30.0]


def test_same_time_events_fire_in_scheduling_order(sim):
    log = []
    for tag in ("first", "second", "third"):
        sim.at(4.0, log.append, tag)
    sim.run()
    assert log == ["first", "second", "third"]


def test_priority_overrides_insertion_order_at_same_time(sim):
    log = []
    sim.at(1.0, log.append, "control", priority=PRIORITY_CONTROL)
    sim.at(1.0, log.append, "normal", priority=PRIORITY_NORMAL)
    sim.at(1.0, log.append, "early", priority=PRIORITY_EARLY)
    sim.run()
    assert log == ["early", "normal", "control"]


def test_run_until_stops_the_clock_at_horizon(sim):
    log = []
    sim.at(5.0, log.append, "in")
    sim.at(15.0, log.append, "out")
    end = sim.run(until=10.0)
    assert log == ["in"]
    assert end == 10.0
    assert sim.now == 10.0


def test_run_until_leaves_future_events_pending(sim):
    sim.at(15.0, lambda: None)
    sim.run(until=10.0)
    assert sim.pending() == 1
    assert sim.peek() == 15.0


def test_cancelled_event_does_not_fire(sim):
    log = []
    event = sim.at(1.0, log.append, "x")
    event.cancel()
    sim.run()
    assert log == []


def test_cancel_then_peek_skips_cancelled(sim):
    first = sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    first.cancel()
    assert sim.peek() == 2.0


def test_scheduling_in_the_past_raises(sim):
    sim.at(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(1.0, lambda: None)


def test_negative_delay_raises(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_every_fires_periodically(sim):
    ticks = []
    sim.every(10.0, lambda: ticks.append(sim.now))
    sim.run(until=45.0)
    assert ticks == [10.0, 20.0, 30.0, 40.0]


def test_every_with_phase_shifts_first_tick(sim):
    ticks = []
    sim.every(10.0, lambda: ticks.append(sim.now), phase=3.0)
    sim.run(until=35.0)
    assert ticks == [13.0, 23.0, 33.0]


def test_every_rejects_nonpositive_period(sim):
    with pytest.raises(SimulationError):
        sim.every(0.0, lambda: None)


def test_stop_halts_the_loop(sim):
    log = []
    def stopper():
        log.append(sim.now)
        sim.stop()
    sim.at(1.0, stopper)
    sim.at(2.0, log.append, 2.0)
    sim.run()
    assert log == [1.0]


def test_events_fired_counter(sim):
    for t in (1.0, 2.0, 3.0):
        sim.at(t, lambda: None)
    sim.run()
    assert sim.events_fired == 3


def test_events_scheduled_during_run_execute(sim):
    log = []
    sim.at(1.0, lambda: sim.schedule(1.0, log.append, "child"))
    sim.run()
    assert log == ["child"]


def test_run_is_not_reentrant(sim):
    def nested():
        with pytest.raises(SimulationError):
            sim.run()
    sim.at(1.0, nested)
    sim.run()


def test_run_with_horizon_before_any_event(sim):
    sim.at(100.0, lambda: None)
    assert sim.run(until=50.0) == 50.0


def test_empty_run_returns_current_time(sim):
    assert sim.run() == 0.0


# ----------------------------------------------------------------------
# Oracle: random scripts fire in (time, priority, scheduling index) order
# ----------------------------------------------------------------------
_priorities = st.sampled_from([PRIORITY_EARLY, PRIORITY_NORMAL, PRIORITY_CONTROL])
_delays = st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0, 30.0])
_slices = st.tuples(st.integers(0, 10**6), st.integers(1, 3))
_ops = st.one_of(
    st.tuples(st.just("schedule"), _delays, _priorities, st.none() | _delays),
    st.tuples(st.just("at"), _delays, _priorities, st.none() | _delays),
    # A burst of ``n`` events, so that mass cancellation compacts the heap.
    st.tuples(st.just("burst"), st.integers(1, 120), _priorities, _delays),
    st.tuples(st.just("cancel"), _slices),
    # An event whose action cancels a slice: compaction inside ``run``.
    st.tuples(st.just("canceller"), _delays, _slices),
    st.tuples(st.just("every"), st.sampled_from([1.0, 2.5, 6.0]), _delays, _priorities),
    st.tuples(st.just("run"), _delays),
)


class _Reference:
    """The kernel's contract, kept naively: pending entries ``[time,
    priority, index, label, child_delay, period, on_fire]`` scanned for the
    smallest ``(time, priority, index)``."""

    def __init__(self):
        self.now = 0.0
        self.pending = []
        self.cancelled = set()
        self.index = 0
        self.fired = []

    def add(self, time, priority, label, child=None, period=None, on_fire=None):
        entry = [time, priority, self.index, label, child, period, on_fire]
        self.index += 1
        self.pending.append(entry)
        return entry

    def cancel(self, entry):
        if entry in self.pending:
            self.cancelled.add(entry[2])

    def run(self, until):
        while True:
            live = [e for e in self.pending if e[2] not in self.cancelled]
            if not live:
                break
            entry = min(live, key=lambda e: (e[0], e[1], e[2]))
            if entry[0] > until:
                break
            self.pending.remove(entry)
            time, priority, _, label, child, period, on_fire = entry
            self.now = time
            self.fired.append(label)
            if on_fire is not None:
                on_fire()
            if child is not None:
                self.add(time + child, PRIORITY_NORMAL, label + ("child",))
            if period is not None:
                self.add(time + period, priority, label, period=period)
        if self.now < until:
            self.now = until

    def live(self):
        return sum(1 for e in self.pending if e[2] not in self.cancelled)


@settings(max_examples=80, deadline=None)
@given(
    # Each script opens with a burst mostly in the future and an event
    # that cancels all of it, so the heap compacts inside ``run``.
    head=st.tuples(
        st.tuples(st.just("burst"), st.integers(80, 120), _priorities,
                  st.sampled_from([0.5, 1.0, 2.5])),
        st.tuples(st.just("canceller"), st.sampled_from([0.0, 0.5]), st.just((0, 1))),
    ),
    tail=st.lists(_ops, max_size=25),
)
def test_random_scripts_fire_in_reference_order(head, tail):
    script = [*head, *tail]
    sim = Simulator()
    ref = _Reference()
    fired = []
    handles = []  # (event, reference entry) per one-shot event

    def chosen(start, stride):
        return handles[start % max(1, len(handles)) :: stride]

    def action(label, child):
        fired.append(label)
        if child is not None:
            sim.schedule(child, fired.append, label + ("child",))

    def canceller(label, start, stride):
        fired.append(label)
        for event, _ in chosen(start, stride):
            event.cancel()

    for step, op in enumerate(script):
        kind, label = op[0], (step,)
        if kind in ("schedule", "at"):
            _, delay, priority, child = op
            if kind == "schedule":
                event = sim.schedule(delay, action, label, child, priority=priority)
            else:
                event = sim.at(sim.now + delay, action, label, child, priority=priority)
            handles.append((event, ref.add(sim.now + delay, priority, label, child)))
        elif kind == "burst":
            _, n, priority, spread = op
            for i in range(n):
                delay = spread * (i % 7)
                event = sim.schedule(delay, action, (step, i), None, priority=priority)
                handles.append((event, ref.add(sim.now + delay, priority, (step, i))))
        elif kind == "cancel":
            for event, entry in chosen(*op[1]):
                event.cancel()
                ref.cancel(entry)
        elif kind == "canceller":
            _, delay, (start, stride) = op
            sim.schedule(delay, canceller, label, start, stride)

            def on_fire(start=start, stride=stride):
                for _, entry in chosen(start, stride):
                    ref.cancel(entry)

            ref.add(sim.now + delay, PRIORITY_NORMAL, label, on_fire=on_fire)
        elif kind == "every":
            _, period, phase, priority = op
            sim.every(period, lambda label=label: fired.append(label),
                      phase=phase, priority=priority)
            ref.add(sim.now + (phase + period), priority, label, period=period)
        else:
            until = sim.now + op[1]
            sim.run(until=until)
            ref.run(until)
        assert sim.pending() == ref.live()
        assert fired == ref.fired
    horizon = sim.now + 40.0
    sim.run(until=horizon)
    ref.run(horizon)
    assert fired == ref.fired
    assert sim.now == ref.now
    assert sim.pending() == ref.live()
