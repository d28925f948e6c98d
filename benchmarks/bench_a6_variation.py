"""A6: process-variation ablation — claims on a non-uniform die."""

from conftest import run_once


def test_a6_variation(benchmark):
    result = run_once(benchmark, "A6", horizon_us=60_000.0)
    rows = {r[0]: r for r in result.rows}
    assert rows["varied-die"][4] == 0.0       # budget still safe
    assert result.scalars["penalty[varied-die]"] < 1.0  # headline claim holds
