"""A4: test-preemption ablation — where the non-intrusiveness comes from."""

from conftest import run_once


def test_a4_preemption(benchmark):
    result = run_once(benchmark, "A4", horizon_us=60_000.0)
    assert result.scalars["abort_penalty_pct"] < 0.5
    assert (
        result.scalars["reserve_penalty_pct"]
        > result.scalars["abort_penalty_pct"]
    )
