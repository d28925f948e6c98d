"""Tests for the extension experiment (E10) and ablations (A1..A8).

Runs at default parameters come from the session's shared 12 ms runs
(``tests.conftest.experiment_12ms``), which the experiment goldens read
too.
"""

from repro.experiments import run_experiment

from tests.conftest import experiment_12ms

H = 12_000.0


def test_dispatch_reaches_ablations():
    result = experiment_12ms("A4")
    assert result.experiment_id == "A4"


def test_e10_lifetime_structure():
    result = experiment_12ms("E10")
    mappers = [row[0] for row in result.rows]
    assert mappers == ["contiguous", "scatter", "test-aware"]
    for row in result.rows:
        assert row[1] > 0          # max stress accrued
        assert row[2] >= 1.0       # imbalance is max/mean
        assert 0.0 < row[3] <= 1.0  # reliability is a probability
        assert row[4] > 0          # finite expected lifetime
    assert "lifetime_gain_pct" in result.scalars


def test_e10_scatter_wears_worst():
    result = experiment_12ms("E10")
    rows = {r[0]: r for r in result.rows}
    # Scatter concentrates stress (low-id cores always chosen first).
    assert rows["scatter"][2] > rows["test-aware"][2]


def test_a1_variants_present_and_gating_orders_test_counts():
    result = experiment_12ms("A1")
    rows = {r[0]: r for r in result.rows}
    assert set(rows) == {"stress-only", "balanced", "time-only"}
    # Stress gating admits the fewest tests, time-only the most; the
    # adaptivity-correlation ordering needs the full horizon and is
    # asserted by the A1 benchmark instead.
    assert rows["stress-only"][1] <= rows["balanced"][1] <= rows["time-only"][1]
    for name in rows:
        assert f"corr[{name}]" in result.scalars


def test_a2_guard_band_monotone_tendencies():
    result = experiment_12ms("A2")
    rows = result.rows
    assert [row[0] for row in rows] == [0.0, 0.02, 0.05, 0.10]
    # A bigger guard band cannot raise average power.
    assert rows[-1][2] <= rows[0][2] + 1e-6


def test_a3_more_slots_more_tests():
    result = experiment_12ms("A3")
    rows = {r[0]: r for r in result.rows}
    assert rows[8][1] >= rows[1][1]


def test_a4_abort_cheaper_than_reserve():
    result = experiment_12ms("A4")
    assert (
        result.scalars["abort_penalty_pct"]
        <= result.scalars["reserve_penalty_pct"] + 1e-9
    )
    rows = {r[0]: r for r in result.rows}
    assert rows["reserve"][3] == 0   # reserved sessions are never aborted
    assert rows["abort"][3] >= 0


def test_a5_thermal_guard_defers_tests():
    result = run_experiment("A5", horizon_us=H, margins=(0.0, 40.0))
    rows = result.rows
    # A huge margin (40 C of 50 C headroom) must suppress some tests.
    assert rows[1][2] <= rows[0][2]
    assert all(row[1] > 0 for row in rows)  # peak temperature recorded


def test_a6_variation_claims_hold():
    result = experiment_12ms("A6")
    rows = {r[0]: r for r in result.rows}
    assert set(rows) == {"uniform-die", "varied-die"}
    # Headline safety claim survives variation.
    assert rows["varied-die"][4] == 0.0
    assert result.scalars["penalty[varied-die]"] < 2.0


def test_ablations_render():
    for experiment_id in ("A2", "A3"):
        result = experiment_12ms(experiment_id)
        text = result.render()
        assert result.experiment_id in text


def test_a7_priorities_cut_hard_rt_waiting():
    result = run_experiment("A7", horizon_us=20_000.0)
    rows = {(r[0], r[1]): r for r in result.rows}
    assert set(r[0] for r in result.rows) == {"fifo", "priorities"}
    assert (
        rows[("priorities", "hard-rt")][2] <= rows[("fifo", "hard-rt")][2]
    )
    assert result.scalars["hard_rt_wait_speedup"] >= 1.0


def test_a8_noc_models_agree():
    result = experiment_12ms("A8")
    assert result.scalars["throughput_delta_pct"] < 5.0
    assert {r[0] for r in result.rows} == {"analytic", "queued"}
