"""E2: system-throughput penalty of online testing (headline table).

Paper claim: the proposed power-aware scheduler tests the manycore within
less than 1% penalty on system throughput at the 16 nm node.
"""

from conftest import run_once


def test_e2_throughput_penalty(benchmark):
    result = run_once(benchmark, "E2", horizon_us=60_000.0)
    assert result.scalars["proposed_penalty_pct"] < 1.0
    rows = {r[0]: r for r in result.rows}
    # The power-unaware baseline costs measurably more throughput.
    assert rows["unaware"][2] > rows["power-aware"][2]
    assert rows["power-aware"][3] > 0  # and tests actually ran
