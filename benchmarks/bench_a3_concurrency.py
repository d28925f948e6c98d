"""A3: concurrent-test-cap ablation — campaign speed vs. intrusiveness."""

from conftest import run_once


def test_a3_test_concurrency(benchmark):
    result = run_once(benchmark, "A3", horizon_us=60_000.0)
    rows = {r[0]: r for r in result.rows}
    assert rows[16][1] >= rows[1][1]          # more slots, more tests
    assert all(row[3] < 1.0 for row in result.rows)  # penalty stays < 1%
    assert all(row[5] == 0.0 for row in result.rows)  # cap never violated
