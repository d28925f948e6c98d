"""A2: TDP guard-band ablation — safety margin vs. throughput."""

from conftest import run_once


def test_a2_guard_band(benchmark):
    result = run_once(benchmark, "A2", horizon_us=60_000.0)
    rows = result.rows
    # The default 2% guard keeps the hard cap clean.
    assert result.scalars["violations_at_default_guard"] == 0.0
    # Throughput degrades gracefully as the guard grows.
    assert rows[-1][1] <= rows[0][1] + 1e-6
