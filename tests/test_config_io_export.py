"""Tests for config serialisation and CSV/JSON export."""

import json

import pytest

from repro.core.config_io import (
    config_from_dict,
    config_from_json,
    config_to_dict,
    config_to_json,
    load_config,
    save_config,
)
from repro.core.criticality import CriticalityParameters
from repro.core.system import SystemConfig
from repro.metrics.export import (
    rows_to_csv,
    series_to_csv,
    summary_to_json,
    trace_to_csv,
    write_text,
)
from repro.sim.trace import Trace


# ----------------------------------------------------------------------
# Config round-trip
# ----------------------------------------------------------------------
def test_default_config_roundtrip():
    cfg = SystemConfig()
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_customised_config_roundtrip():
    cfg = SystemConfig(
        width=6,
        height=6,
        node_name="22nm",
        tdp_w=55.0,
        seed=99,
        mapper="test-aware",
        profile_names=("small", "large"),
        profile_weights=(0.5, 0.5),
        criticality=CriticalityParameters(stress_weight=0.9, time_weight=0.1),
        thermal_enabled=True,
        variation_enabled=True,
    )
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg
    assert isinstance(again.criticality, CriticalityParameters)
    assert isinstance(again.profile_names, tuple)


def test_json_roundtrip():
    cfg = SystemConfig(seed=7, tdp_w=42.0)
    text = config_to_json(cfg)
    json.loads(text)  # valid JSON
    assert config_from_json(text) == cfg


def test_unknown_key_rejected():
    data = config_to_dict(SystemConfig())
    data["tpd_w"] = 50.0  # typo
    with pytest.raises(ValueError, match="tpd_w"):
        config_from_dict(data)


def test_validation_reruns_on_load():
    data = config_to_dict(SystemConfig())
    data["horizon_us"] = -1.0
    with pytest.raises(ValueError):
        config_from_dict(data)


def test_non_object_json_rejected():
    with pytest.raises(ValueError):
        config_from_json("[1, 2, 3]")


# ----------------------------------------------------------------------
# Field types: one spelling per config, checked for every caller
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "key, value, fragment",
    [
        # Each would run the simulation of seed 4 under a digest of its own.
        ("seed", "4", "'seed' must be int, got '4'"),
        ("seed", 4.0, "'seed' must be int, got 4.0"),
        ("seed", True, "'seed' must be int, got True"),
        # Accepted at load, then a TypeError inside the run.
        ("tdp_w", "80", "'tdp_w' must be float, got '80'"),
        ("tdp_w", False, "'tdp_w' must be float"),
        ("bursty", 1, "'bursty' must be bool"),
        ("node_name", 16, "'node_name' must be str"),
        ("aging", {"base_rate": "1e-6"}, r"'aging\.base_rate' must be float"),
        ("thermal", {"limit_c": None}, r"'thermal\.limit_c' must be float"),
        ("aging", 3, "'aging' must be an object"),
        ("profile_weights", ["0.4", 0.45, 0.15],
         r"'profile_weights\[0\]' must be float"),
        ("profile_names", ["small", 2, "large"],
         r"'profile_names\[1\]' must be str"),
        ("type_grid", [True], r"'type_grid\[0\]' must be str"),
        ("type_grid", "std", "'type_grid' must be an array"),
        # Once a TypeError from AgingParameters(**value).
        ("aging", {"bogus": 1}, r"unknown keys: \['aging\.bogus'\]"),
    ],
)
def test_wrong_value_types_rejected(key, value, fragment):
    data = config_to_dict(SystemConfig())
    data[key] = value
    with pytest.raises(ValueError, match=fragment):
        config_from_dict(data)


def test_int_accepted_where_float_declared():
    from repro.obs.provenance import config_digest

    # 80 and 80.0 are two spellings with two frozen digests
    # (tests/goldens/identity_goldens.json); neither is coerced.
    data = config_to_dict(SystemConfig())
    data["tdp_w"] = 80
    data["profile_weights"] = [2, 2, 1]
    data["aging"] = dict(data["aging"], base_rate=1)
    config = config_from_dict(data)
    assert type(config.tdp_w) is int
    assert config.profile_weights == (2, 2, 1)
    assert config_digest(config) != config_digest(
        config_from_dict(dict(data, tdp_w=80.0))
    )


def test_every_entry_point_rejects_what_serve_rejects():
    from repro.campaign import CampaignSpec
    from repro.serve.protocol import SpecError, SweepRequest

    with pytest.raises(SpecError, match="'tdp_w' must be float"):
        SweepRequest.parse({"points": [{"tdp_w": "80"}]})
    with pytest.raises(ValueError, match="'tdp_w' must be float"):
        config_from_json(json.dumps({"tdp_w": "80"}))
    spec = CampaignSpec.from_dict(
        {"name": "typed", "grid": {"tdp_w": ["80"]}, "seeds": {"count": 1}}
    )
    with pytest.raises(ValueError, match="'tdp_w' must be float"):
        spec.cell_config(spec.cells()[0])


def test_file_roundtrip(tmp_path):
    cfg = SystemConfig(seed=123)
    path = tmp_path / "cfg.json"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
@pytest.fixture
def trace():
    t = Trace()
    t.record("a", 0.0, 1.0)
    t.record("a", 10.0, 2.0)
    t.record("b", 5.0, 7.0)
    return t


def test_trace_to_csv_union_grid(trace):
    csv_text = trace_to_csv(trace)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "time_us,a,b"
    assert len(lines) == 4  # header + t in {0, 5, 10}
    assert lines[2] == "5.0,1.0,7.0"


def test_trace_to_csv_regular_grid(trace):
    csv_text = trace_to_csv(trace, grid_step=5.0, t_end=10.0)
    lines = csv_text.strip().splitlines()
    assert len(lines) == 4


def test_trace_to_csv_selected_names(trace):
    csv_text = trace_to_csv(trace, names=["b"])
    assert csv_text.splitlines()[0] == "time_us,b"


def test_trace_to_csv_unknown_name(trace):
    with pytest.raises(KeyError):
        trace_to_csv(trace, names=["missing"])


def test_trace_to_csv_grid_requires_end(trace):
    with pytest.raises(ValueError):
        trace_to_csv(trace, grid_step=5.0)
    with pytest.raises(ValueError):
        trace_to_csv(trace, grid_step=0.0, t_end=10.0)


def test_series_to_csv():
    text = series_to_csv({"x": [1.0, 2.0], "y": [3.0, 4.0]})
    lines = text.strip().splitlines()
    assert lines[0] == "x,y"
    assert lines[1] == "1.0,3.0"


def test_series_to_csv_validation():
    with pytest.raises(ValueError):
        series_to_csv({})
    with pytest.raises(ValueError):
        series_to_csv({"x": [1.0], "y": [1.0, 2.0]})


def test_rows_to_csv():
    text = rows_to_csv(["name", "v"], [["a", 1], ["b", 2]])
    assert text.strip().splitlines() == ["name,v", "a,1", "b,2"]


def test_rows_to_csv_validation():
    with pytest.raises(ValueError):
        rows_to_csv([], [])
    with pytest.raises(ValueError):
        rows_to_csv(["a"], [[1, 2]])


def test_summary_to_json():
    text = summary_to_json({"b": 2.0, "a": 1.0})
    data = json.loads(text)
    assert data == {"a": 1.0, "b": 2.0}


def test_write_text(tmp_path):
    path = tmp_path / "out.csv"
    write_text(str(path), "hello")
    assert path.read_text() == "hello"
