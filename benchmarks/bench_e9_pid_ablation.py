"""E9: PID dynamic power budgeting vs. naive TDP scheduling (ICCD'14).

The substrate validation: fine-grained DVFS under a PID budget beats the
worst-case "naive TDP" core-count policy by well over the paper's 43%.
"""

from conftest import run_once


def test_e9_pid_ablation(benchmark):
    result = run_once(benchmark, "E9", horizon_us=60_000.0)
    assert result.scalars["pid_boost_over_worst_case_pct"] > 43.0
    rows = {r[0]: r for r in result.rows}
    assert rows["pid"][3] == 0.0   # PID honours the cap
