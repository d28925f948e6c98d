"""Tests for the lumped RC thermal model."""

import pytest

from repro.platform.thermal import (
    ThermalModel,
    ThermalParameters,
    thermal_safe_power,
)


@pytest.fixture
def model(chip44):
    return ThermalModel(chip44)


def test_starts_at_ambient(model):
    assert model.hottest() == model.params.ambient_c
    assert model.headroom_c() == pytest.approx(
        model.params.limit_c - model.params.ambient_c
    )


def test_powered_core_heats_up(model):
    model.step({0: 3.0}, dt_us=1000.0)
    assert model.temperature(0) > model.params.ambient_c


def test_unpowered_cores_warm_only_via_neighbours(model):
    model.step({5: 3.0}, dt_us=50_000.0)
    # Direct neighbour of core 5 is warmer than a far corner.
    assert model.temperature(4) > model.temperature(15)


def test_cooling_back_to_ambient(model):
    model.step({0: 3.0}, dt_us=50_000.0)
    hot = model.temperature(0)
    model.step({}, dt_us=10 * model.params.tau_us)
    assert model.temperature(0) < hot
    assert model.temperature(0) == pytest.approx(model.params.ambient_c, abs=0.5)


def test_uniform_steady_state_closed_form(model):
    power = 2.0
    target = model.steady_state_uniform(power)
    model.step({i: power for i in range(16)}, dt_us=20 * model.params.tau_us)
    for i in range(16):
        assert model.temperature(i) == pytest.approx(target, rel=0.02)


def test_steady_state_independent_of_step_size(chip44):
    a = ThermalModel(chip44)
    from repro.platform.chip import Chip

    b = ThermalModel(Chip.build(4, 4))
    powers = {0: 3.0, 5: 2.0}
    total = 30_000.0
    a.step(powers, dt_us=total)
    for _ in range(30):
        b.step(powers, dt_us=total / 30)
    for i in range(16):
        assert a.temperature(i) == pytest.approx(b.temperature(i), rel=0.02)


def test_hottest_core_is_the_powered_one(model):
    model.step({7: 4.0}, dt_us=10_000.0)
    assert model.hottest_core_id() == 7


def test_peak_seen_is_monotone(model):
    model.step({0: 5.0}, dt_us=20_000.0)
    peak = model.peak_seen_c
    model.step({}, dt_us=100_000.0)  # cooling cannot lower the recorded peak
    assert model.peak_seen_c == peak


def test_over_limit_detection(model):
    # (limit - ambient) / r_self = 50/12 ≈ 4.2 W steady; 8 W must exceed it.
    model.step({i: 8.0 for i in range(16)}, dt_us=50 * model.params.tau_us)
    assert model.over_limit()


def test_reset(model):
    model.step({0: 5.0}, dt_us=10_000.0)
    model.reset()
    assert model.hottest() == model.params.ambient_c
    model.reset(60.0)
    assert model.hottest() == 60.0


def test_step_rejects_bad_dt(model):
    with pytest.raises(ValueError):
        model.step({}, dt_us=0.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ThermalParameters(r_self_c_per_w=0.0)
    with pytest.raises(ValueError):
        ThermalParameters(c_j_per_c=-1.0)
    with pytest.raises(ValueError):
        ThermalParameters(limit_c=40.0, ambient_c=45.0)


def test_tau_formula():
    p = ThermalParameters(r_self_c_per_w=10.0, c_j_per_c=0.002)
    assert p.tau_us == pytest.approx(10.0 * 0.002 * 1e6)


# ----------------------------------------------------------------------
# Thermal Safe Power
# ----------------------------------------------------------------------
def test_tsp_decreases_with_more_active_cores(chip44):
    p = ThermalParameters()
    sparse = thermal_safe_power(chip44, p, active_cores=1)
    dense = thermal_safe_power(chip44, p, active_cores=16)
    assert sparse > dense


def test_tsp_dense_limit_is_self_path(chip44):
    p = ThermalParameters()
    dense = thermal_safe_power(chip44, p, active_cores=16)
    assert dense == pytest.approx((p.limit_c - p.ambient_c) / p.r_self_c_per_w)


def test_tsp_rejects_zero_cores(chip44):
    with pytest.raises(ValueError):
        thermal_safe_power(chip44, ThermalParameters(), active_cores=0)


# ----------------------------------------------------------------------
# Oracle: step == the docstring's forward-Euler recurrence
# ----------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.chip import Chip


def mesh_neighbours(width, height):
    """Each node's neighbours, east, west, south, north (the chip's order)."""
    out = []
    for y in range(height):
        for x in range(width):
            around = []
            for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if 0 <= nx < width and 0 <= ny < height:
                    around.append(ny * width + nx)
            out.append(around)
    return out


def reference_step(temps, neighbours, powers, dt_us, p):
    """Forward Euler, node by node, in substeps of at most 0.1 tau_min."""
    degree = max(len(around) for around in neighbours)
    conductance = 1.0 / p.r_self_c_per_w + degree / p.r_lateral_c_per_w
    max_step = 0.1 * (p.c_j_per_c / conductance) * 1e6
    remaining = dt_us
    while remaining > 0:
        dt = min(remaining, max_step)
        remaining -= dt
        new = []
        for i, temp in enumerate(temps):
            flow = powers.get(i, 0.0) - (temp - p.ambient_c) / p.r_self_c_per_w
            for j in neighbours[i]:
                flow -= (temp - temps[j]) / p.r_lateral_c_per_w
            new.append(temp + flow * (dt * 1e-6) / p.c_j_per_c)
        temps = new
    return temps


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_step_equals_the_euler_recurrence(data):
    width, height = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    n = width * height
    params = ThermalParameters(
        r_self_c_per_w=data.draw(st.sampled_from([6.0, 12.0, 20.0])),
        r_lateral_c_per_w=data.draw(st.sampled_from([3.0, 8.0])),
        c_j_per_c=data.draw(st.sampled_from([0.0002, 0.0005, 0.002])),
    )
    model = ThermalModel(Chip.build(width, height), params)
    temps = [params.ambient_c] * n
    peak = params.ambient_c
    watts = st.floats(0.0, 12.0, allow_nan=False)
    for _ in range(data.draw(st.integers(1, 3))):
        # Sparse, empty or full power maps.
        ids = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        powers = {i: data.draw(watts) for i in ids}
        dt_us = data.draw(st.sampled_from([1.0, 37.5, 100.0, 250.0, 1000.0]))
        model.step(powers, dt_us)
        temps = reference_step(temps, mesh_neighbours(width, height), powers, dt_us, params)
        peak = max(peak, max(temps))
        assert model.temperatures() == temps
        assert model.peak_seen_c == peak
