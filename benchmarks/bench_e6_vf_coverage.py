"""E6: test coverage across voltage/frequency levels (TC'16 extension).

The rotating level policy covers every DVFS level of the ladder during
the campaign; the nominal-only policy leaves low-voltage corners dark.
"""

from conftest import run_once


def test_e6_vf_coverage(benchmark):
    result = run_once(benchmark, "E6", horizon_us=60_000.0)
    assert result.scalars["levels_covered_rotate"] == 8.0
    assert (
        result.scalars["levels_covered_rotate"]
        > result.scalars["levels_covered_nominal"]
    )
