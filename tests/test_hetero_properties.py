"""Property tests for the heterogeneity layer (hypothesis).

Analytic laws every :class:`CoreType` x :class:`TechnologyModel`
combination must satisfy, checked over randomized voltages,
frequencies, tile mixes and budgets:

* dynamic power is monotone in V and f (and leakage in V) for every
  type under both registered models;
* the dark-silicon fraction is a valid fraction in [0, 1], monotone
  non-increasing in the TDP budget, and zero when the budget covers
  the whole catalog's peak demand;
* an SBST library's detection profile is a CDF: within [0, 1] and
  non-decreasing in routine count, for any valid type scaling;
* ``type_grid`` / ``tech_model`` survive the config JSON round trip
  with their config digest intact.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._sum import lsum
from repro.core.config_io import config_from_json, config_to_json
from repro.core.system import SystemConfig
from repro.obs.provenance import config_digest
from repro.platform.coretypes import CORE_TYPES, CoreType, get_core_type
from repro.platform.technology import (
    TECHNOLOGY_MODELS,
    TECHNOLOGY_NODES,
    get_node,
    get_tech_model,
)

TYPE_NAMES = sorted(n for n in ("std", "io", "o3", "accel"))
MODEL_NAMES = sorted(TECHNOLOGY_MODELS)
NODE_NAMES = sorted(TECHNOLOGY_NODES)

type_names = st.sampled_from(TYPE_NAMES)
model_names = st.sampled_from(MODEL_NAMES)
node_names = st.sampled_from(NODE_NAMES)
# Voltages span near-threshold to above-nominal across all nodes.
vdds = st.floats(min_value=0.45, max_value=1.3)
freqs = st.floats(min_value=50.0, max_value=4_000.0)
activities = st.floats(min_value=0.05, max_value=1.0)


# ----------------------------------------------------------------------
# Per-type power monotonicity under every model
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(model_names, node_names, type_names, vdds, vdds, freqs, activities)
def test_dynamic_power_monotone_in_vdd(model, node, tname, v1, v2, f, act):
    m = get_tech_model(model)
    n = get_node(node)
    t = get_core_type(tname)
    lo, hi = sorted((v1, v2))
    assert m.dynamic_power(n, t, lo, f, act) <= m.dynamic_power(
        n, t, hi, f, act
    )


@settings(max_examples=150, deadline=None)
@given(model_names, node_names, type_names, vdds, freqs, freqs, activities)
def test_dynamic_power_monotone_in_frequency(model, node, tname, v, f1, f2, act):
    m = get_tech_model(model)
    n = get_node(node)
    t = get_core_type(tname)
    lo, hi = sorted((f1, f2))
    assert m.dynamic_power(n, t, v, lo, act) <= m.dynamic_power(
        n, t, v, hi, act
    )


@settings(max_examples=150, deadline=None)
@given(model_names, node_names, type_names, vdds, vdds)
def test_leakage_power_monotone_in_vdd(model, node, tname, v1, v2):
    m = get_tech_model(model)
    n = get_node(node)
    t = get_core_type(tname)
    lo, hi = sorted((v1, v2))
    assert 0.0 <= m.leakage_power(n, t, lo) <= m.leakage_power(n, t, hi)


# ----------------------------------------------------------------------
# Dark fraction: valid, monotone in TDP, vanishes with enough budget
# ----------------------------------------------------------------------
tile_mixes = st.lists(
    st.tuples(type_names, st.integers(min_value=1, max_value=32)),
    min_size=1,
    max_size=4,
    unique_by=lambda pair: pair[0],
)
budgets = st.floats(min_value=0.5, max_value=500.0)


@settings(max_examples=150, deadline=None)
@given(model_names, node_names, tile_mixes, budgets, budgets)
def test_dark_fraction_valid_and_monotone_in_tdp(
    model, node, mix, tdp1, tdp2
):
    m = get_tech_model(model)
    n = get_node(node)
    counts = {get_core_type(name): count for name, count in mix}
    lo, hi = sorted((tdp1, tdp2))
    dark_lo = m.dark_fraction(n, counts, lo)
    dark_hi = m.dark_fraction(n, counts, hi)
    assert 0.0 <= dark_hi <= dark_lo <= 1.0
    # A budget covering the whole catalog's peak demand lights the chip.
    demand = lsum(
        count * m.peak_core_power(n, ctype)
        for ctype, count in counts.items()
    )
    assert m.dark_fraction(n, counts, demand) == 0.0


# ----------------------------------------------------------------------
# SBST detection profile is a CDF under any valid type scaling
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_detection_profile_is_a_cdf(cycles_scale, detection_scale):
    from repro.testing.sbst import default_library

    ctype = CoreType(
        name="prop",
        description="hypothesis-generated scaling",
        sbst_cycles_scale=cycles_scale,
        detection_scale=detection_scale,
    )
    profile = default_library().scaled_for(ctype).detection_profile()
    assert profile, "profile must cover at least one routine"
    previous = 0.0
    for value in profile:
        assert 0.0 <= value <= 1.0
        assert value >= previous
        previous = value


# ----------------------------------------------------------------------
# Config round trip: type_grid / tech_model survive JSON and digests
# ----------------------------------------------------------------------
grids = st.one_of(
    st.just(()),
    st.lists(type_names, min_size=1, max_size=1).map(tuple),
    st.lists(type_names, min_size=4, max_size=4).map(tuple),
)


@settings(max_examples=100, deadline=None)
@given(grids, model_names, st.integers(min_value=0, max_value=10_000))
def test_type_grid_round_trips_through_json(grid, model, seed):
    config = SystemConfig(
        width=2, height=2, type_grid=grid, tech_model=model, seed=seed
    )
    restored = config_from_json(config_to_json(config))
    assert restored == config
    assert restored.type_grid == grid
    assert restored.tech_model == model
    assert config_digest(restored) == config_digest(config)


def test_distinct_grids_have_distinct_digests():
    base = SystemConfig(width=2, height=2)
    a = replace(base, type_grid=("io", "o3", "accel", "std"))
    b = replace(base, type_grid=("o3", "io", "accel", "std"))
    assert config_digest(a) != config_digest(b)
    assert config_digest(base) != config_digest(a)
    assert config_digest(base) != config_digest(
        replace(base, tech_model="ntv")
    )
