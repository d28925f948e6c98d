"""Tests for cross-seed replication statistics."""

import math
import statistics

import pytest

from repro.metrics.stats import (
    Estimate,
    binomial_interval,
    clopper_pearson_interval,
    estimate,
    halfwidth_met,
    wilson_interval,
)


# ----------------------------------------------------------------------
# Estimate
# ----------------------------------------------------------------------
def test_estimate_mean():
    e = estimate([1.0, 2.0, 3.0])
    assert e.mean == pytest.approx(2.0)
    assert e.n == 3


def test_estimate_single_sample_infinite_width():
    e = estimate([5.0])
    assert math.isinf(e.half_width)


def test_estimate_zero_variance():
    e = estimate([4.0, 4.0, 4.0])
    assert e.half_width == 0.0


def test_estimate_t_value_two_samples():
    # n=2: hw = t(df=1) * sd / sqrt(2) with sd = |a-b|/sqrt(2)
    e = estimate([0.0, 2.0])
    sd = math.sqrt(2.0)
    assert e.half_width == pytest.approx(12.706 * sd / math.sqrt(2))


def test_estimate_large_n_uses_normal():
    samples = [float(i % 3) for i in range(30)]
    e = estimate(samples)
    assert e.half_width < 1.0  # 1.96 * sd/sqrt(30)


def test_estimate_rejects_empty():
    with pytest.raises(ValueError):
        estimate([])


def test_estimate_bounds_and_str():
    e = estimate([1.0, 3.0, 5.0])
    assert e.low == pytest.approx(e.mean - e.half_width)
    assert e.high == pytest.approx(e.mean + e.half_width)
    assert "±" in str(e)


def test_overlap_logic():
    a = Estimate(mean=1.0, half_width=0.5, n=3)
    b = Estimate(mean=1.8, half_width=0.5, n=3)
    c = Estimate(mean=3.0, half_width=0.5, n=3)
    assert a.overlaps(b)
    assert not a.overlaps(c)


# ----------------------------------------------------------------------
# Student-t table edges
# ----------------------------------------------------------------------
def test_estimate_t_table_boundary_df10():
    # n=11 -> df=10, the last tabulated row (2.228).
    samples = [float(i) for i in range(11)]
    sd = statistics.stdev(samples)
    e = estimate(samples)
    assert e.half_width == pytest.approx(2.228 * sd / math.sqrt(11))


def test_estimate_t_fallback_beyond_table_uses_normal():
    # n=12 -> df=11, past the table: the normal 1.96 fallback.
    samples = [float(i) for i in range(12)]
    sd = statistics.stdev(samples)
    e = estimate(samples)
    assert e.half_width == pytest.approx(1.96 * sd / math.sqrt(12))


def test_estimate_degenerate_identical_large_sample():
    e = estimate([7.5] * 40)
    assert e.mean == pytest.approx(7.5)
    assert e.half_width == 0.0
    assert e.low == e.high == pytest.approx(7.5)


# ----------------------------------------------------------------------
# Binomial intervals (campaign stopping rules)
# ----------------------------------------------------------------------
def test_wilson_matches_hand_formula():
    est = wilson_interval(8, 10)
    p, n, z = 0.8, 10, 1.96
    denom = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    margin = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    assert est.low == pytest.approx(centre - margin)
    assert est.high == pytest.approx(centre + margin)
    assert est.point == pytest.approx(0.8)
    assert est.method == "wilson"


def test_wilson_boundaries_stay_in_unit_interval():
    for successes, n in [(0, 5), (5, 5), (0, 1), (1, 1)]:
        est = wilson_interval(successes, n)
        assert 0.0 <= est.low <= est.high <= 1.0
        assert est.low <= est.point <= est.high


def test_wilson_zero_trials_is_vacuous():
    est = wilson_interval(0, 0)
    assert (est.low, est.high) == (0.0, 1.0)
    assert est.point == 0.0
    assert math.isinf(est.half_width)


def test_wilson_narrows_with_n():
    small = wilson_interval(8, 10)
    large = wilson_interval(80, 100)
    assert large.half_width < small.half_width


def test_clopper_pearson_zero_successes_closed_form():
    # k=0: interval is [0, 1 - (alpha/2)^(1/n)].
    n = 20
    est = clopper_pearson_interval(0, n)
    assert est.low == 0.0
    assert est.high == pytest.approx(1.0 - 0.025 ** (1.0 / n), abs=1e-9)


def test_clopper_pearson_all_successes_closed_form():
    # k=n: interval is [(alpha/2)^(1/n), 1].
    n = 20
    est = clopper_pearson_interval(n, n)
    assert est.high == 1.0
    assert est.low == pytest.approx(0.025 ** (1.0 / n), abs=1e-9)


def test_clopper_pearson_covers_and_contains_point():
    est = clopper_pearson_interval(8, 10)
    assert est.low < 0.8 < est.high
    # Exact interval is at least as wide as Wilson's approximation.
    assert est.half_width >= wilson_interval(8, 10).half_width


def test_clopper_pearson_symmetry():
    a = clopper_pearson_interval(3, 10)
    b = clopper_pearson_interval(7, 10)
    assert a.low == pytest.approx(1.0 - b.high, abs=1e-9)
    assert a.high == pytest.approx(1.0 - b.low, abs=1e-9)


def test_clopper_pearson_rejects_bad_alpha():
    with pytest.raises(ValueError):
        clopper_pearson_interval(1, 2, alpha=0.0)
    with pytest.raises(ValueError):
        clopper_pearson_interval(1, 2, alpha=1.0)


def test_binomial_interval_dispatch_and_unknown_method():
    assert binomial_interval(3, 4, "wilson").method == "wilson"
    assert (
        binomial_interval(3, 4, "clopper-pearson").method == "clopper-pearson"
    )
    with pytest.raises(ValueError):
        binomial_interval(3, 4, "jeffreys")


def test_binomial_input_validation():
    with pytest.raises(ValueError):
        wilson_interval(-1, 5)
    with pytest.raises(ValueError):
        wilson_interval(6, 5)
    with pytest.raises(ValueError):
        clopper_pearson_interval(3, -1)


def test_halfwidth_met_semantics():
    # No evidence yet: never satisfied, however loose the target.
    assert not halfwidth_met(0, 0, 0.49)
    # 490/500 detections: half-width ~0.013, comfortably under 0.05.
    assert halfwidth_met(490, 500, 0.05)
    assert not halfwidth_met(5, 10, 0.05)
    with pytest.raises(ValueError):
        halfwidth_met(1, 2, 0.0)
    with pytest.raises(ValueError):
        halfwidth_met(1, 2, -0.1)
