"""A8: NoC abstraction fidelity — validates the analytic substitution."""

from conftest import run_once


def test_a8_noc_fidelity(benchmark):
    result = run_once(benchmark, "A8", horizon_us=60_000.0)
    # The headline throughput must agree within 2% between NoC models.
    assert result.scalars["throughput_delta_pct"] < 2.0
    assert all(row[5] == 0.0 for row in result.rows)
