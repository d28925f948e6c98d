"""E1: chip power vs. time against the TDP budget (16 nm).

Reconstructs the power-trace figure: the proposed scheduler fills budget
valleys with test power without ever puncturing the cap; the power-unaware
baseline violates it.
"""

from conftest import run_once


def test_e1_power_trace(benchmark):
    result = run_once(benchmark, "E1", horizon_us=60_000.0)
    rows = {r[0]: r for r in result.rows}
    # Proposed: peak power at or under the cap, zero violations.
    assert rows["power-aware"][3] == 0.0
    assert rows["power-aware"][2] <= result.scalars["tdp_w"] + 1e-6
    # Test power actually flowed (budget valleys were used).
    assert rows["power-aware"][4] > 0
