"""Tests for technology-node models and dark-silicon arithmetic."""

from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from repro.core.system import run_system
from repro.experiments.runners import EXPERIMENTS
from repro.platform.chip import Chip
from repro.platform.coretypes import (
    CORE_TYPES,
    CoreType,
    get_core_type,
    register_core_type,
)
from repro.platform.technology import (
    DEFAULT_TDP_W,
    TECHNOLOGY_MODELS,
    TECHNOLOGY_NODES,
    TechnologyNode,
    get_node,
    get_tech_model,
    node_names,
)
from repro.power.meter import PowerMeter

CMOS = get_tech_model("cmos")
STD = get_core_type("std")


def test_all_four_nodes_present():
    assert set(TECHNOLOGY_NODES) == {"45nm", "32nm", "22nm", "16nm"}


def test_node_names_ordered_old_to_new():
    assert node_names() == ["45nm", "32nm", "22nm", "16nm"]


def test_get_node_unknown_raises_with_candidates():
    with pytest.raises(KeyError, match="16nm"):
        get_node("7nm")


def test_frequency_at_nominal_matches(node16):
    assert node16.frequency_at(node16.vdd_nominal) == pytest.approx(
        node16.f_nominal_mhz
    )


def test_frequency_below_threshold_is_zero(node16):
    assert node16.frequency_at(node16.vth - 0.01) == 0.0


def test_frequency_monotonic_in_voltage(node16):
    volts = [node16.vdd_min + i * 0.05 for i in range(8)]
    freqs = [node16.frequency_at(v) for v in volts]
    assert freqs == sorted(freqs)
    assert freqs[0] < freqs[-1]


def test_dynamic_power_scales_with_square_of_voltage(node16):
    f = 1000.0
    p_low = node16.dynamic_power(0.5, f)
    p_high = node16.dynamic_power(1.0, f)
    assert p_high == pytest.approx(4.0 * p_low)


def test_dynamic_power_scales_linearly_with_frequency(node16):
    v = 0.8
    assert node16.dynamic_power(v, 2000.0) == pytest.approx(
        2.0 * node16.dynamic_power(v, 1000.0)
    )


def test_dynamic_power_scales_with_activity(node16):
    assert node16.dynamic_power(0.8, 1000.0, activity=0.5) == pytest.approx(
        0.5 * node16.dynamic_power(0.8, 1000.0)
    )


def test_negative_activity_rejected(node16):
    with pytest.raises(ValueError):
        node16.dynamic_power(0.8, 1000.0, activity=-0.1)


def test_leakage_power_decreases_at_lower_voltage(node16):
    assert node16.leakage_power(node16.vdd_min) < node16.leakage_power(
        node16.vdd_nominal
    )


def test_leakage_power_zero_when_unpowered(node16):
    assert node16.leakage_power(0.0) == 0.0


def test_leakage_at_nominal_matches_parameter(node16):
    assert node16.leakage_power(node16.vdd_nominal) == pytest.approx(
        node16.leak_w_nominal
    )


def test_peak_core_power_is_dyn_plus_leak(node16):
    expected = node16.dynamic_power(
        node16.vdd_nominal, node16.f_nominal_mhz
    ) + node16.leakage_power(node16.vdd_nominal)
    assert CMOS.peak_core_power(node16, STD) == pytest.approx(expected)


def test_dark_silicon_fraction_grows_with_scaling():
    """The utilization-wall trend: lit fraction shrinks every generation."""
    lits = [
        CMOS.lit_fraction(get_node(name), {STD: 64}, DEFAULT_TDP_W)
        for name in node_names()
    ]
    assert lits == sorted(lits, reverse=True)
    assert lits[0] > 0.85      # 45 nm almost fully lit
    assert lits[-1] < 0.45     # 16 nm under half lit


def test_lit_fraction_clipped_at_one(node45):
    assert CMOS.lit_fraction(node45, {STD: 1}, 1000.0) == 1.0


def test_dark_fraction_is_complement(node16):
    assert CMOS.dark_fraction(node16, {STD: 64}, 80.0) == pytest.approx(
        1.0 - CMOS.lit_fraction(node16, {STD: 64}, 80.0)
    )


def test_lit_fraction_rejects_bad_core_count(node16):
    with pytest.raises(ValueError):
        CMOS.lit_fraction(node16, {STD: 0}, 80.0)


def test_invalid_voltage_ordering_rejected():
    with pytest.raises(ValueError):
        TechnologyNode(
            name="bad", feature_nm=10, vdd_nominal=0.5, vdd_min=0.6,
            vth=0.3, f_nominal_mhz=1000.0, ceff_nf=0.5, leak_w_nominal=0.1,
        )


def test_invalid_frequency_rejected():
    with pytest.raises(ValueError):
        TechnologyNode(
            name="bad", feature_nm=10, vdd_nominal=1.0, vdd_min=0.5,
            vth=0.3, f_nominal_mhz=0.0, ceff_nf=0.5, leak_w_nominal=0.1,
        )


@given(st.floats(min_value=0.46, max_value=0.9))
def test_frequency_never_negative_in_operating_range(vdd):
    node = get_node("16nm")
    assert node.frequency_at(vdd) >= 0.0


@given(
    st.floats(min_value=0.45, max_value=0.9),
    st.floats(min_value=100.0, max_value=3500.0),
)
def test_power_positive_in_operating_range(vdd, f):
    node = get_node("16nm")
    assert node.dynamic_power(vdd, f) > 0.0
    assert node.leakage_power(vdd) > 0.0


# ----------------------------------------------------------------------
# The shared catalogs are read-only: no power memo hangs off them
# ----------------------------------------------------------------------
def test_overwritten_core_type_changes_its_watts():
    """A chip built after a type is overwritten draws the new type's power."""
    probe = CoreType("probe", "regression probe")

    def busy_power():
        chip = Chip.build(2, 2, type_grid=("probe",))
        meter = PowerMeter(chip)
        return meter.added_power_if_busy(
            chip.core(0), chip.vf_table.max_level, 1.0
        )

    register_core_type(probe)
    try:
        before = busy_power()
        register_core_type(replace(probe, dyn_scale=2.0), overwrite=True)
        after = busy_power()
    finally:
        CORE_TYPES.pop("probe", None)
    node = get_node("16nm")
    dyn = node.dynamic_power(node.vdd_nominal, node.f_nominal_mhz)
    assert after == pytest.approx(before + dyn)


def test_run_leaves_shared_catalogs_untouched():
    config = replace(
        EXPERIMENTS["E11"](horizon_us=4_000.0).certified_configs(11)[0],
        tech_model="ntv",
    )
    models = dict(TECHNOLOGY_MODELS)
    types = dict(CORE_TYPES)
    run_system(config)
    node_fields = {f.name for f in fields(TechnologyNode)}
    for node in TECHNOLOGY_NODES.values():
        assert set(vars(node)) == node_fields
    assert TECHNOLOGY_MODELS == models
    assert all(TECHNOLOGY_MODELS[n] is model for n, model in models.items())
    assert CORE_TYPES == types
    assert all(CORE_TYPES[n] is ctype for n, ctype in types.items())
