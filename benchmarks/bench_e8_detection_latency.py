"""E8: permanent-fault detection latency per scheduler.

Online testing exists to catch runtime faults: schedulers that test detect
injected faults with bounded latency; the no-test baseline never does.
"""

import math

from conftest import run_once


def test_e8_detection_latency(benchmark):
    result = run_once(benchmark, "E8", horizon_us=60_000.0)
    rows = {r[0]: r for r in result.rows}
    assert rows["none"][2] == 0              # no tests, no detections
    assert rows["power-aware"][2] > 0        # proposed detects faults
    assert not math.isnan(rows["power-aware"][4])
