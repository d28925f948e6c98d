"""Malformed config, campaign-spec and DSE-spec documents end in
``ValueError``.

``config_from_dict``, ``CampaignSpec.from_dict`` and
``DseSpec.from_dict`` read documents from files, the CLI and ``repro
serve``.  Whatever one node of a valid document is replaced with,
loading either raises ``ValueError`` naming the field or accepts a
document that round-trips to the same digest; a ``TypeError`` (or
anything else) is a bug.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aging.model import AgingParameters
from repro.campaign import CampaignSpec
from repro.campaign.spec import SeedPlan, StopRule
from repro.cli import main
from repro.core.config_io import config_from_dict, config_to_dict
from repro.core.system import SystemConfig
from repro.dse.search import DseSpec, EvolutionParams, SurrogateParams
from repro.obs.provenance import config_digest

#: Names a replacement object draws its keys from, besides free text,
#: so that nested replacements often hit declared fields.
_NAMES = sorted(
    {
        fld.name
        for cls in (
            SystemConfig,
            AgingParameters,
            SeedPlan,
            StopRule,
            EvolutionParams,
            SurrogateParams,
        )
        for fld in dataclasses.fields(cls)
    }
    | {"field", "type", "low", "high", "values"}
)

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(_NAMES) | st.text(max_size=6), children, max_size=4
    ),
    max_leaves=10,
)

VALID_CONFIG = config_to_dict(SystemConfig())

VALID_SPECS = [
    {
        "schema": 1,
        "name": "grid",
        "base": {"width": 4, "height": 4, "aging": {"base_rate": 0.125}},
        "grid": {"test_policy": ["power-aware", "none"], "tdp_w": [20, 25.0]},
        "seeds": {"start": 1, "count": 2},
        "stop": {"target_half_width": 0.1, "min_runs": 2, "max_runs": 8,
                 "batch": 2, "method": "wilson"},
    },
    {
        "name": "cells",
        "cells": [{"tdp_w": 40.0}, {"tdp_w": 60.0, "mapper": "nn"}],
        "seeds": {"count": 1},
        "stop": None,
    },
]


#: The DSE smoke search, whose space has int and choice parameters.
VALID_DSE = json.loads(
    (
        Path(__file__).resolve().parents[1] / "benchmarks" / "dse_smoke_spec.json"
    ).read_text(encoding="utf-8")
)


def _paths(node, prefix=()):
    """Every node path of a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, prefix + (index,))


def _replaced(document, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(document))
    parent = copy
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return copy


def _one_node_replaced(document):
    return st.tuples(st.sampled_from(list(_paths(document))), JSON).map(
        lambda pair: _replaced(document, *pair)
    )


def _via_json(data):
    return json.loads(json.dumps(data))


FUZZ = settings(max_examples=200, deadline=None)


@FUZZ
@given(_one_node_replaced(VALID_CONFIG))
def test_config_is_rejected_or_round_trips(document):
    try:
        config = config_from_dict(document)
    except ValueError:
        return
    again = config_from_dict(_via_json(config_to_dict(config)))
    assert config_digest(again) == config_digest(config)


@FUZZ
@given(st.sampled_from(VALID_SPECS).flatmap(_one_node_replaced))
def test_spec_is_rejected_or_round_trips(document):
    try:
        spec = CampaignSpec.from_dict(document)
    except ValueError:
        return
    again = CampaignSpec.from_dict(_via_json(spec.to_dict()))
    assert again.spec_digest() == spec.spec_digest()


@FUZZ
@given(_one_node_replaced(VALID_DSE))
def test_dse_spec_is_rejected_or_round_trips(document):
    try:
        spec = DseSpec.from_dict(document)
    except ValueError:
        return
    again = DseSpec.from_dict(_via_json(spec.to_dict()))
    assert again.spec_digest() == spec.spec_digest()


@pytest.mark.parametrize("document", VALID_SPECS)
def test_fuzzed_specs_start_valid(document):
    spec = CampaignSpec.from_dict(document)
    for cell in spec.cells():
        spec.cell_config(cell)  # raises on an invalid cell


# ----------------------------------------------------------------------
# Shapes that once escaped as TypeError
# ----------------------------------------------------------------------
@pytest.mark.parametrize("document", [None, 5, "x", [1, 2]])
def test_non_object_config_rejected(document):
    with pytest.raises(ValueError, match="must be an object"):
        config_from_dict(document)


@pytest.mark.parametrize(
    "key, value, fragment",
    [
        ("seeds", "abc", "'seeds' must be an object"),
        ("seeds", {"start": 1, "count": "2"}, r"'seeds\.count' must be int"),
        ("grid", {"tdp_w": 40.0}, r"'grid\.tdp_w' must be an array"),
        ("stop", "x", "'stop' must be an object"),
        ("stop", {"target_half_width": "a"},
         r"'stop\.target_half_width' must be float"),
        ("stop", {}, r"'stop\.target_half_width' is required"),
        ("base", {"aging": {"bogus": 1}}, r"aging\.bogus"),
        ("name", 7, "'name' must be str"),
        ("grid", {"aging": [{"base_rate": 0.1}]},
         "grid value of 'aging' must be a scalar"),
    ],
)
def test_malformed_spec_names_the_field(key, value, fragment):
    document = dict(VALID_SPECS[0], **{key: value})
    with pytest.raises(ValueError, match=fragment):
        CampaignSpec.from_dict(document)


def test_cli_reports_a_malformed_config_or_spec(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"aging": {"bogus": 1}}))
    assert main(["run", "--config", str(config)]) == 2
    assert "aging.bogus" in capsys.readouterr().err
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(VALID_SPECS[0], seeds="abc")))
    argv = ["campaign", "run", str(spec), "--dir", str(tmp_path / "c")]
    assert main(argv) == 2
    assert "'seeds' must be an object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document, fragment",
    [
        (dict(VALID_DSE, seeds="abc"), "'seeds' must be an object"),
        (dict(VALID_DSE, stop="x"), "'stop' must be an object"),
        (
            dict(VALID_DSE, evolve={"population": "3"}),
            r"'evolve\.population' must be int",
        ),
        (dict(VALID_DSE, evolve={"bogus": 1}), r"evolve\.bogus"),
        (dict(VALID_DSE, seeds={"bogus": 1}), r"seeds\.bogus"),
        (dict(VALID_DSE, surrogate={"bogus": 1}), r"surrogate\.bogus"),
        (
            dict(VALID_DSE, surrogate={"threshold": "x"}),
            r"'surrogate\.threshold' must be float",
        ),
        (dict(VALID_DSE, objectives=5), "'objectives' must be an array"),
        (dict(VALID_DSE, weights=5), "'weights' must be an array"),
        (
            dict(VALID_DSE, weights=[1, 1, 1, None]),
            "'weights' must be an array of numbers",
        ),
        (dict(VALID_DSE, space={"field": "x"}), "'space' must be an array"),
        (
            dict(
                VALID_DSE,
                space=[dict(VALID_DSE["space"][0], low=None)]
                + VALID_DSE["space"][1:],
            ),
            "max_concurrent_tests: 'low' must be int",
        ),
        (
            dict(
                VALID_DSE,
                space=[{"field": "tdp_w", "type": "float", "low": 10**400,
                        "high": 10**401}],
            ),
            "tdp_w: 'low' must be float",
        ),
        (5, "dse spec must be an object"),
    ],
)
def test_malformed_dse_spec_names_the_field(document, fragment):
    with pytest.raises(ValueError, match=fragment):
        DseSpec.from_dict(document)


def test_dse_threshold_may_be_null():
    spec = DseSpec.from_dict(dict(VALID_DSE, surrogate={"threshold": None}))
    assert spec.surrogate.threshold is None
