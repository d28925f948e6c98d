"""E5: energy share dedicated to online testing (TC'16: ~2%).

Across offered loads the proposed scheduler dedicates only a few percent
of consumed energy to SBST sessions.
"""

from conftest import run_once


def test_e5_test_power_share(benchmark):
    result = run_once(benchmark, "E5", horizon_us=60_000.0)
    assert 0.0 < result.scalars["mean_share"] < 0.05
    assert result.scalars["max_share"] < 0.08
