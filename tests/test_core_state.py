"""Tests for the per-core state record and busy-window accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.core import BusyWindow, Core, CoreState
from repro.platform.dvfs import build_vf_table
from repro.platform.technology import get_node


@pytest.fixture
def level():
    return build_vf_table(get_node("16nm")).max_level


@pytest.fixture
def core(level):
    return Core(core_id=5, x=1, y=1, level=level)


# ----------------------------------------------------------------------
# BusyWindow
# ----------------------------------------------------------------------
def test_busy_window_accumulates_total():
    w = BusyWindow()
    w.add(0.0, 10.0)
    w.add(20.0, 25.0)
    assert w.total_busy == 15.0


@settings(max_examples=100, deadline=None)
@given(
    pieces=st.lists(
        st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0)), max_size=8
    ),
    bounds=st.tuples(st.floats(0.0, 500.0), st.floats(0.0, 500.0)),
)
def test_busy_in_equals_an_overlap_scan_of_every_interval(pieces, bounds):
    window = BusyWindow()
    intervals = []
    start = 0.0
    for gap, length in pieces:
        start += gap
        window.add(start, start + length)
        if length:
            intervals.append((start, start + length))
        start += length
    t0, t1 = bounds
    want = 0.0
    if t1 > t0:
        for lo, hi in intervals:
            if lo >= t1:
                break
            lo, hi = max(lo, t0), min(hi, t1)
            if hi > lo:
                want += hi - lo
    assert window.busy_in(t0, t1) == want


def test_busy_in_clips_to_query_window():
    w = BusyWindow()
    w.add(0.0, 10.0)
    assert w.busy_in(5.0, 8.0) == pytest.approx(3.0)
    assert w.busy_in(5.0, 20.0) == pytest.approx(5.0)


def test_busy_in_empty_window():
    w = BusyWindow()
    assert w.busy_in(0.0, 10.0) == 0.0
    w.add(0.0, 5.0)
    assert w.busy_in(7.0, 7.0) == 0.0


def test_utilization_fraction():
    w = BusyWindow()
    w.add(0.0, 50.0)
    assert w.utilization(now=100.0, window=100.0) == pytest.approx(0.5)


def test_utilization_clips_window_at_time_zero():
    w = BusyWindow()
    w.add(0.0, 10.0)
    # Window of 100 at now=20 only spans [0, 20].
    assert w.utilization(now=20.0, window=100.0) == pytest.approx(0.5)


def test_utilization_rejects_bad_window():
    with pytest.raises(ValueError):
        BusyWindow().utilization(now=10.0, window=0.0)


def test_zero_length_interval_ignored():
    w = BusyWindow()
    w.add(5.0, 5.0)
    assert w.total_busy == 0.0


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        BusyWindow().add(5.0, 4.0)


def test_overlapping_interval_rejected():
    w = BusyWindow()
    w.add(0.0, 10.0)
    with pytest.raises(ValueError):
        w.add(9.0, 12.0)


def test_prune_drops_old_intervals():
    w = BusyWindow()
    w.add(0.0, 10.0)
    w.add(20.0, 30.0)
    w.prune(horizon=15.0)
    assert w.busy_in(0.0, 30.0) == pytest.approx(10.0)
    # total_busy is lifetime accounting and unaffected by pruning
    assert w.total_busy == 20.0


# ----------------------------------------------------------------------
# Core
# ----------------------------------------------------------------------
def test_core_starts_idle(core):
    assert core.is_idle()
    assert not core.is_busy()
    assert not core.is_testing()
    assert not core.is_faulty()


def test_core_position(core):
    assert core.position == (1, 1)


def test_core_allocatable_rules(core):
    assert core.is_allocatable()
    core.owner_app = 3
    assert not core.is_allocatable()
    core.owner_app = None
    core.state = CoreState.FAULTY
    assert not core.is_allocatable()


def test_core_utilization_counts_closed_intervals(core):
    core.busy_window.add(0.0, 500.0)
    assert core.utilization(now=1000.0, window=1000.0) == pytest.approx(0.5)


def test_core_utilization_counts_open_interval(core):
    core.busy_window.add(0.0, 500.0)
    core.state = CoreState.BUSY
    core.busy_since = 800.0
    core.busy_until = 1200.0
    # closed 500 + open [800, 1000] = 700 over window 1000
    assert core.utilization(now=1000.0, window=1000.0) == pytest.approx(0.7)


def test_core_utilization_never_exceeds_one(core):
    core.busy_window.add(0.0, 1000.0)
    assert core.utilization(now=1000.0, window=1000.0) <= 1.0


def test_core_utilization_zero_at_time_zero(core):
    assert core.utilization(now=0.0, window=100.0) == 0.0


def test_fresh_core_has_no_test_history(core):
    assert core.tests_completed == 0
    assert core.last_test_end == 0.0
    assert core.tested_levels == set()
    assert core.level_last_test == {}
    assert core.stress_since_test == 0.0
