"""Unit and property tests for the step-function trace recorder."""

import pytest
from hypothesis import given, strategies as st

from repro._sum import lsum
from repro.sim.trace import Trace


@pytest.fixture
def trace():
    t = Trace()
    t.record("p", 0.0, 2.0)
    t.record("p", 10.0, 4.0)
    t.record("p", 20.0, 1.0)
    return t


def test_series_roundtrip(trace):
    times, values = trace.series("p")
    assert times == [0.0, 10.0, 20.0]
    assert values == [2.0, 4.0, 1.0]


def test_series_returns_copies(trace):
    times, _ = trace.series("p")
    times.append(99.0)
    assert trace.series("p")[0] == [0.0, 10.0, 20.0]


def test_unknown_series_raises(trace):
    with pytest.raises(KeyError):
        trace.series("missing")


def test_last_value(trace):
    assert trace.last("p") == 1.0
    assert trace.last("missing", default=-1.0) == -1.0


def test_value_at_steps(trace):
    assert trace.value_at("p", 0.0) == 2.0
    assert trace.value_at("p", 9.999) == 2.0
    assert trace.value_at("p", 10.0) == 4.0
    assert trace.value_at("p", 100.0) == 1.0


def test_value_at_before_first_record_uses_default(trace):
    t = Trace()
    t.record("q", 5.0, 3.0)
    assert t.value_at("q", 1.0, default=7.0) == 7.0


def test_same_time_record_overwrites(trace):
    trace.record("p", 20.0, 9.0)
    assert trace.last("p") == 9.0
    assert len(trace.series("p")[0]) == 3


def test_non_monotonic_record_raises(trace):
    with pytest.raises(ValueError):
        trace.record("p", 5.0, 1.0)


def test_integral_full_window(trace):
    # 2*10 + 4*10 + 1*10 over [0, 30]
    assert trace.integral("p", 0.0, 30.0) == pytest.approx(70.0)


def test_integral_partial_window(trace):
    # [5, 15]: 2*5 + 4*5
    assert trace.integral("p", 5.0, 15.0) == pytest.approx(30.0)


def test_integral_of_missing_series_is_zero(trace):
    assert trace.integral("missing", 0.0, 10.0) == 0.0


def test_integral_rejects_reversed_interval(trace):
    with pytest.raises(ValueError):
        trace.integral("p", 10.0, 5.0)


def test_time_average(trace):
    assert trace.time_average("p", 0.0, 30.0) == pytest.approx(70.0 / 30.0)


def test_time_average_rejects_empty_interval(trace):
    with pytest.raises(ValueError):
        trace.time_average("p", 5.0, 5.0)


def test_maximum(trace):
    assert trace.maximum("p") == 4.0
    assert trace.maximum("missing", default=-2.0) == -2.0


def test_increment_builds_counter():
    t = Trace()
    t.increment("n", 1.0, 2.0)
    t.increment("n", 2.0, 3.0)
    assert t.last("n") == 5.0


def test_resample_on_grid(trace):
    assert trace.resample("p", [0.0, 5.0, 10.0, 25.0]) == [2.0, 2.0, 4.0, 1.0]


def test_merge_names_sums_pointwise():
    t = Trace()
    t.record("a", 0.0, 1.0)
    t.record("a", 10.0, 2.0)
    t.record("b", 5.0, 10.0)
    t.merge_names(["a", "b"], "sum")
    assert t.value_at("sum", 0.0) == 1.0
    assert t.value_at("sum", 5.0) == 11.0
    assert t.value_at("sum", 10.0) == 12.0


def test_names_sorted(trace):
    trace.record("a", 0.0, 1.0)
    assert trace.names() == ["a", "p"]


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=-50.0, max_value=50.0),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_integral_splits_additively(points):
    """integral(0, T) == integral(0, m) + integral(m, T) for any midpoint."""
    trace = Trace()
    for t, v in sorted(points, key=lambda p: p[0]):
        trace.record("s", t, v)
    total = trace.integral("s", 0.0, 100.0)
    mid = 37.5
    split = trace.integral("s", 0.0, mid) + trace.integral("s", mid, 100.0)
    assert split == pytest.approx(total, abs=1e-6)


# ----------------------------------------------------------------------
# Equivalence with the pre-optimisation reference implementations
# ----------------------------------------------------------------------
def _integral_reference(trace, name, t0, t1):
    """The original full-scan segment walk, kept as the test oracle."""
    if name not in trace._times:
        return 0.0
    times = trace._times[name]
    values = trace._values[name]
    total = 0.0
    n = len(times)
    for i in range(n):
        start = times[i]
        end = times[i + 1] if i + 1 < n else t1
        lo = max(start, t0)
        hi = min(end, t1)
        if hi > lo:
            total += values[i] * (hi - lo)
    return total


def _merge_reference(trace, names, out):
    """The original value_at-per-grid-point merge, kept as the test oracle."""
    grid = sorted(
        {t for n in names if n in trace._times for t in trace._times[n]}
    )
    merged = []
    for t in grid:
        merged.append((t, lsum(trace.value_at(n, t) for n in names)))
    return merged


_series_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    ),
    min_size=0,
    max_size=25,
)


@given(
    points=_series_strategy,
    t0=st.floats(min_value=-10.0, max_value=110.0),
    width=st.floats(min_value=0.0, max_value=120.0),
)
def test_integral_matches_full_scan_reference(points, t0, width):
    trace = Trace()
    for t, v in sorted(points, key=lambda p: p[0]):
        trace.record("s", t, v)
    t1 = t0 + width
    assert trace.integral("s", t0, t1) == _integral_reference(
        trace, "s", t0, t1
    )


@given(
    series_a=_series_strategy,
    series_b=_series_strategy,
    series_c=_series_strategy,
    include_missing=st.booleans(),
)
def test_merge_names_matches_value_at_reference(
    series_a, series_b, series_c, include_missing
):
    trace = Trace()
    for name, points in (("a", series_a), ("b", series_b), ("c", series_c)):
        for t, v in sorted(points, key=lambda p: p[0]):
            trace.record(name, t, v)
    names = ["a", "b", "c"] + (["absent"] if include_missing else [])
    expected = _merge_reference(trace, names, "sum")
    trace.merge_names(names, "sum")
    if not expected:
        assert "sum" not in trace.names()
        return
    times, values = trace.series("sum")
    # Bit-exact, not approximate: the one-pass merge must add the same
    # floats in the same order as the naive per-point sum.
    assert list(zip(times, values)) == expected


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=0.0, max_value=50.0),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_time_average_bounded_by_extremes(points):
    trace = Trace()
    for t, v in sorted(points, key=lambda p: p[0]):
        trace.record("s", t, v)
    avg = trace.time_average("s", 0.0, 200.0)
    _, values = trace.series("s")
    # Value before the first record contributes 0, so only the upper bound
    # is guaranteed in general.
    assert avg <= max(values) + 1e-9
    assert avg >= 0.0
