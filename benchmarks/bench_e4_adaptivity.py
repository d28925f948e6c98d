"""E4: test frequency adapts to per-core stress (TC'16 adaptivity claim).

Cores that executed more workload accumulate criticality faster and are
re-tested more often: tests-per-core correlates positively with busy time.
"""

from conftest import run_once


def test_e4_adaptivity(benchmark):
    result = run_once(benchmark, "E4", horizon_us=60_000.0)
    assert result.scalars["pearson_busy_vs_tests"] > 0.4
    rows = {r[0]: r for r in result.rows}
    assert rows["Q4"][2] > rows["Q1"][2]  # busiest quartile tested more
