"""A5: thermal-guard ablation with the RC thermal model enabled."""

from conftest import run_once


def test_a5_thermal_guard(benchmark):
    result = run_once(benchmark, "A5", horizon_us=60_000.0)
    rows = result.rows
    assert all(row[1] > 45.0 for row in rows)       # the die actually heats
    assert rows[-1][2] <= rows[0][2]                # big margin defers tests
