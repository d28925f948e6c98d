"""A1: criticality-metric composition ablation.

The stress term is what makes testing adaptive (high busy-tests
correlation); the time term is what bounds staleness on idle cores
(more tests overall). The balanced default buys both.
"""

from conftest import run_once


def test_a1_criticality_weights(benchmark):
    result = run_once(benchmark, "A1", horizon_us=60_000.0)
    assert result.scalars["corr[stress-only]"] > result.scalars["corr[time-only]"]
    rows = {r[0]: r for r in result.rows}
    assert rows["time-only"][1] > rows["stress-only"][1]
