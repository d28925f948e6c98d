"""Tests for the experiments E1..E9 at reduced horizons.

Runs at default parameters come from the session's shared 12 ms runs
(``tests.conftest.experiment_12ms``), which the experiment goldens read
too.
"""

import math

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.result import ExperimentResult

from tests.conftest import experiment_12ms


def check_shape(result: ExperimentResult, experiment_id: str):
    assert result.experiment_id == experiment_id
    assert result.rows
    for row in result.rows:
        assert len(row) == len(result.headers)
    rendered = result.render()
    assert experiment_id in rendered
    assert result.title in rendered


def test_registry_contains_all_experiments():
    expected = {f"E{i}" for i in range(1, 12)} | {f"A{i}" for i in range(1, 9)}
    assert set(EXPERIMENTS) == expected


def test_run_experiment_dispatch():
    result = experiment_12ms("E2")
    assert result.experiment_id == "E2"
    assert result.provenance["kwargs"] == {"horizon_us": 12_000.0}


def test_factories_pass_their_parameters_to_the_points():
    e3 = EXPERIMENTS["E3"](nodes=("45nm", "16nm")).points()
    assert [p.node_name for p in e3] == ["45nm", "45nm", "16nm", "16nm"]
    e5 = EXPERIMENTS["E5"](rates=(4.0, 8.0)).points()
    assert [p.arrival_rate_per_ms for p in e5] == [4.0, 8.0]
    e7 = EXPERIMENTS["E7"](seeds=(11,)).points()
    assert [p.seed for p in e7] == [11] * 5


def test_run_experiment_unknown():
    with pytest.raises(KeyError, match="E2"):
        run_experiment("E42")


def test_e1_shape_and_budget_honoured():
    result = experiment_12ms("E1")
    check_shape(result, "E1")
    rows = {r[0]: r for r in result.rows}
    # power-aware violation rate must be zero; series present for both.
    assert rows["power-aware"][3] == 0.0
    assert "power.total[power-aware]" in result.series
    assert "power.test[unaware]" in result.series


def test_e2_proposed_penalty_small():
    result = experiment_12ms("E2")
    check_shape(result, "E2")
    assert result.scalars["proposed_penalty_pct"] < 1.0
    rows = {r[0]: r for r in result.rows}
    assert rows["none"][2] == 0.0  # baseline penalty is zero by construction
    # the power-unaware baseline pays more than the proposed scheduler
    assert rows["unaware"][2] > rows["power-aware"][2]


def test_e3_dark_fraction_monotonic():
    result = experiment_12ms("E3")
    check_shape(result, "E3")
    rows = {r[0]: r for r in result.rows}
    assert rows["45nm"][1] > rows["16nm"][1]  # lit fraction shrinks
    assert result.scalars["worst_penalty_pct"] < 3.0


def test_e4_positive_adaptivity():
    result = experiment_12ms("E4")
    check_shape(result, "E4")
    assert result.scalars["pearson_busy_vs_tests"] > 0.2
    # Q4 (busiest quartile) is tested at least as often as Q1.
    rows = {r[0]: r for r in result.rows}
    assert rows["Q4"][2] >= rows["Q1"][2]


def test_e5_share_small():
    result = experiment_12ms("E5")
    check_shape(result, "E5")
    assert 0.0 < result.scalars["max_share"] < 0.10


def test_e6_rotate_covers_more_levels():
    result = experiment_12ms("E6")
    check_shape(result, "E6")
    assert (
        result.scalars["levels_covered_rotate"]
        > result.scalars["levels_covered_nominal"]
    )


def test_e7_mapping_rows():
    result = experiment_12ms("E7")
    check_shape(result, "E7")
    mappers = {r[0] for r in result.rows}
    assert mappers == {"contiguous", "scatter", "random", "mappro", "test-aware"}
    rows = {r[0]: r for r in result.rows}
    # locality: test-aware stays near contiguous hops, well below random
    assert rows["test-aware"][2] < rows["random"][2]


def test_e8_detection_ordering():
    result = run_experiment(
        "E8", horizon_us=30_000.0, seeds=(3, 7), hazard_per_us=5e-6
    )
    check_shape(result, "E8")
    rows = {r[0]: r for r in result.rows}
    # no-test never detects anything
    assert rows["none"][2] == 0
    assert math.isnan(rows["none"][4])
    # schedulers that test do detect something across seeds
    assert rows["power-aware"][2] > 0


def test_e9_pid_beats_worst_case():
    result = experiment_12ms("E9")
    check_shape(result, "E9")
    assert result.scalars["pid_boost_over_worst_case_pct"] > 43.0
    rows = {r[0]: r for r in result.rows}
    assert rows["pid"][3] == 0.0  # no violations


def test_result_row_dicts():
    result = experiment_12ms("E2")
    dicts = result.row_dicts()
    assert len(dicts) == len(result.rows)
    assert all(set(d) == set(result.headers) for d in dicts)


def test_result_to_csv():
    result = experiment_12ms("E2")
    text = result.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("scheduler,")
    assert len(lines) == len(result.rows) + 1


def test_result_series_csv():
    result = experiment_12ms("E1")
    text = result.series_csv()
    assert "power.total[power-aware]" in text.splitlines()[0]


def test_result_series_csv_empty_raises():
    from repro.experiments.result import ExperimentResult

    empty = ExperimentResult("EX", "t", ["a"], [[1]])
    with pytest.raises(ValueError):
        empty.series_csv()
