"""A7: mixed-criticality priorities (hard/soft/no real-time, ICCD'14)."""

from conftest import run_once


def test_a7_rt_priorities(benchmark):
    result = run_once(benchmark, "A7", horizon_us=60_000.0)
    rows = {(r[0], r[1]): r for r in result.rows}
    fifo_hard = rows[("fifo", "hard-rt")][2]
    prio_hard = rows[("priorities", "hard-rt")][2]
    # Hard real-time waiting collapses by orders of magnitude.
    assert prio_hard < fifo_hard / 10.0
    # Soft-RT also improves; best-effort pays, but the budget stays safe.
    assert rows[("priorities", "soft-rt")][2] < rows[("fifo", "soft-rt")][2]
    assert all(r[4] == 0.0 for r in result.rows)
