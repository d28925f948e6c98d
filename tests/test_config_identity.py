"""Config identity: the field walk, frozen identity goldens, work counts.

Every checkpoint record, cache key and served point is keyed by
:func:`repro.obs.provenance.config_digest`.  Three things are pinned
here:

* **the walk is asdict** — :func:`~repro.obs.provenance.field_dict`
  (behind ``config_to_dict``, ``config_digest`` and the run manifest)
  gives the same dict as ``dataclasses.asdict``, which stays in this
  file as the reference oracle;
* **identities are frozen** — ``tests/goldens/identity_goldens.json``
  was computed with the ``dataclasses.asdict`` implementation, before
  the walk existed, and is never regenerated.  A mismatch means
  checkpoint directories and caches written earlier no longer resume
  or hit.  ``tdp_w=80`` and ``tdp_w=80.0`` compare equal and hash
  alike yet have different digests, so a memo keyed by config
  equality fails here;
* **identities are derived once per cell** — a warm fixed-mode
  campaign resolves and walks each cell's config once and derives all
  its points' digests from that walk
  (:func:`~repro.obs.provenance.seed_digests`, which must equal
  ``config_digest`` of each seeded config), counted by patching the
  module-level names every ``repro`` module binds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aging.model import AgingParameters
from repro.cache import RunCache, run_key
from repro.campaign import CampaignPoint, CampaignSpec, run_campaign
from repro.core import config_io
from repro.core.config_io import config_to_dict
from repro.core.criticality import CriticalityParameters
from repro.core.system import SystemConfig, run_system
from repro.experiments.runners import DEFAULT_CONFIG, EXPERIMENTS
from repro.obs import provenance
from repro.obs.provenance import (
    config_digest,
    digest_of,
    field_dict,
    seed_digests,
)
from repro.platform.technology import TECHNOLOGY_MODELS, TECHNOLOGY_NODES
from repro.platform.thermal import ThermalParameters
from repro.platform.variation import VariationParameters

GOLDENS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "goldens",
    "identity_goldens.json",
)

with open(GOLDENS_PATH, encoding="utf-8") as _handle:
    GOLDENS = json.load(_handle)


# ----------------------------------------------------------------------
# Reference oracle: the field walk against dataclasses.asdict
# ----------------------------------------------------------------------
def numbers(low, high):
    """An int or a float in ``[low, high]``: digests keep them apart."""
    return st.one_of(
        st.integers(min_value=low, max_value=high),
        st.floats(min_value=low, max_value=high),
    )


fractions = st.one_of(st.sampled_from([0, 1]), st.floats(0.0, 1.0))

nested_blocks = st.fixed_dictionaries(
    {},
    optional={
        "criticality": st.builds(
            CriticalityParameters,
            stress_weight=numbers(1, 3),
            time_weight=numbers(0, 3),
            time_reference_us=numbers(100, 5000),
        ),
        "aging": st.builds(
            AgingParameters,
            voltage_acceleration=numbers(0, 8),
            test_stress_fraction=fractions,
        ),
        "thermal": st.builds(
            ThermalParameters,
            ambient_c=numbers(20, 60),
            limit_c=numbers(80, 110),
        ),
        "variation": st.builds(
            VariationParameters,
            sigma_random=st.one_of(st.just(0), st.floats(0.0, 0.1)),
        ),
    },
)


@st.composite
def system_configs(draw):
    """Small runnable SystemConfig variants over every field type."""
    width = draw(st.integers(min_value=2, max_value=4))
    height = draw(st.integers(min_value=2, max_value=4))
    type_names = st.sampled_from(["std", "io", "o3", "accel"])
    grid_size = draw(st.sampled_from([0, 1, width * height]))
    return SystemConfig(
        width=width,
        height=height,
        node_name=draw(st.sampled_from(sorted(TECHNOLOGY_NODES))),
        tdp_w=draw(numbers(10, 120)),
        type_grid=tuple(
            draw(st.lists(type_names, min_size=grid_size, max_size=grid_size))
        ),
        tech_model=draw(st.sampled_from(sorted(TECHNOLOGY_MODELS))),
        epoch_us=draw(numbers(50, 200)),
        horizon_us=draw(numbers(300, 600)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        arrival_rate_per_ms=draw(numbers(1, 10)),
        fault_hazard_per_us=draw(
            st.one_of(st.sampled_from([0, 0.0]), st.floats(0.0, 1e-3))
        ),
        thermal_enabled=draw(st.booleans()),
        variation_enabled=draw(st.booleans()),
        **draw(nested_blocks),
    )


@settings(max_examples=60, deadline=None)
@given(system_configs())
def test_field_walk_matches_asdict(config):
    reference = dataclasses.asdict(config)
    assert repr(config_to_dict(config)) == repr(reference)
    assert config_digest(config) == digest_of(sorted(reference.items()))
    manifest = run_system(config).manifest
    assert manifest.config == reference
    assert repr(manifest.config) == repr(reference)


@settings(max_examples=60, deadline=None)
@given(
    system_configs(),
    st.lists(st.integers(min_value=0, max_value=2**80), max_size=4),
)
@example(SystemConfig(tdp_w=80), [SystemConfig().seed, 2**63, 10**30])
@example(SystemConfig(tdp_w=80.0), [SystemConfig().seed, 2**63, 10**30])
def test_seed_digests_match_config_digest_of_each_seed(config, seeds):
    assert seed_digests(config, seeds) == [
        config_digest(dataclasses.replace(config, seed=seed))
        for seed in seeds
    ]


def test_field_walk_copies_nested_blocks():
    config = SystemConfig()
    data = config_to_dict(config)
    data["thermal"]["ambient_c"] = -1.0
    assert config.thermal.ambient_c == ThermalParameters().ambient_c
    assert config_to_dict(config)["thermal"] == dataclasses.asdict(
        ThermalParameters()
    )


def test_field_walk_rejects_field_types_systemconfig_lacks():
    with pytest.raises(TypeError, match="type_grid"):
        field_dict(SystemConfig(type_grid=["std"]))
    with pytest.raises(TypeError, match="profile_names"):
        field_dict(SystemConfig(profile_names=(["small"], "medium", "large")))


# ----------------------------------------------------------------------
# Frozen identity goldens
# ----------------------------------------------------------------------
def golden_configs():
    return {
        "SystemConfig()": SystemConfig(),
        "DEFAULT_CONFIG": DEFAULT_CONFIG,
        "E11": EXPERIMENTS["E11"]().certified_configs(11)[0],
        "tdp_w=80": SystemConfig(tdp_w=80),
        "tdp_w=80.0": SystemConfig(tdp_w=80.0),
    }


def test_config_digests_match_goldens():
    digests = {
        name: config_digest(config)
        for name, config in golden_configs().items()
    }
    assert digests == GOLDENS["config_digest"]


def test_equal_configs_with_int_and_float_fields_keep_distinct_digests():
    as_int, as_float = SystemConfig(tdp_w=80), SystemConfig(tdp_w=80.0)
    assert as_int == as_float and hash(as_int) == hash(as_float)
    assert config_digest(as_int) != config_digest(as_float)
    assert config_digest(as_int) == GOLDENS["config_digest"]["tdp_w=80"]


def test_seed_digests_match_goldens():
    default_seed = SystemConfig().seed
    for name in ("tdp_w=80", "tdp_w=80.0"):
        config = golden_configs()[name]
        assert seed_digests(config, [default_seed]) == [
            GOLDENS["config_digest"][name]
        ]


def test_run_key_matches_golden():
    golden = GOLDENS["run_key"]
    config = golden_configs()[golden["config"]]
    assert run_key(config_digest(config), golden["salt"]) == golden["key"]


def test_campaign_identities_match_goldens(tmp_path, closes):
    golden = GOLDENS["campaign"]
    spec = CampaignSpec.from_dict(golden["spec"])
    assert [p.digest for p in spec.fixed_points()] == golden["point_digests"]
    cache = closes(RunCache(cache_dir=str(tmp_path / "cache")))
    cold = run_campaign(
        str(tmp_path / "cold"), spec=spec, cache=cache, telemetry=False
    )
    warm = run_campaign(
        str(tmp_path / "warm"), spec=spec, cache=cache, telemetry=False
    )
    assert cold.aggregate == warm.aggregate == golden["aggregate_digest"]
    assert cache.stats.hits == len(golden["point_digests"])


# ----------------------------------------------------------------------
# Work counts: each cell's identities derived once per warm pass
# ----------------------------------------------------------------------
def count_calls(monkeypatch, functions):
    """Patch every ``repro`` module's binding of each function; count."""
    counts = {name: 0 for name in functions}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, original in functions.items():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    return counts


def test_warm_fixed_campaign_derives_each_identity_once(
    tmp_path, monkeypatch, closes
):
    spec = CampaignSpec.from_dict(
        {
            "name": "work-count",
            "base": {"width": 4, "height": 4, "horizon_us": 1000.0},
            "grid": {"test_policy": ["power-aware", "none"]},
            "seeds": {"start": 1, "count": 3},
        }
    )
    n_points = spec.n_planned_points()
    cache = closes(RunCache(cache_dir=str(tmp_path / "cache")))
    run_campaign(str(tmp_path / "cold"), spec=spec, cache=cache)
    counts = count_calls(
        monkeypatch,
        {
            "config_digest": provenance.config_digest,
            "seed_digests": provenance.seed_digests,
            "config_from_dict": config_io.config_from_dict,
            "config_to_dict": config_io.config_to_dict,
        },
    )
    report = run_campaign(str(tmp_path / "warm"), spec=spec, cache=cache)
    assert report.n_completed == n_points
    assert cache.stats.hits == n_points
    n_cells = len(spec.cells())
    assert counts == {
        "config_digest": 0,
        "seed_digests": n_cells,
        "config_from_dict": n_cells,
        "config_to_dict": n_cells,
    }


def test_a_point_builds_its_config_only_when_it_executes(
    tmp_path, monkeypatch, closes
):
    spec = CampaignSpec.from_dict(
        {
            "name": "point-configs",
            "base": {"width": 4, "height": 4, "horizon_us": 1000.0},
            "grid": {"test_policy": ["power-aware", "none"]},
            "seeds": {"start": 1, "count": 3},
        }
    )
    built = []
    build = CampaignPoint.config.func

    def counting(point):
        built.append(point.digest)
        return build(point)

    monkeypatch.setattr(CampaignPoint.config, "func", counting)
    points = spec.fixed_points()
    assert built == []
    assert [config_digest(p.config) for p in points] == [
        p.digest for p in points
    ]
    assert points[0].config is points[0].config
    assert len(built) == len(points)
    cache = closes(RunCache(cache_dir=str(tmp_path / "cache")))
    built.clear()
    run_campaign(str(tmp_path / "cold"), spec=spec, cache=cache)
    assert sorted(built) == sorted(p.digest for p in points)
    built.clear()
    report = run_campaign(str(tmp_path / "warm"), spec=spec, cache=cache)
    assert report.n_completed == len(points)
    assert built == []
