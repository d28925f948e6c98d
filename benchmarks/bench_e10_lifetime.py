"""E10: lifetime extension from utilization-oriented mapping (DATE'16).

Wear-levelled mapping slows the aging of the worst-stressed core, which
is what sets the chip's expected time-to-first-failure.
"""

from conftest import run_once


def test_e10_lifetime(benchmark):
    result = run_once(benchmark, "E10", horizon_us=60_000.0)
    rows = {r[0]: r for r in result.rows}
    # The proposed mapper levels wear at least as well as contiguous...
    assert rows["test-aware"][2] <= rows["contiguous"][2] + 0.05
    # ...and extends expected lifetime.
    assert result.scalars["lifetime_gain_pct"] > 0.0
