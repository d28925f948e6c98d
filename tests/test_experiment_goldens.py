"""Goldens for the experiments: their points, tables and certified configs.

``tests/goldens/experiment_goldens.json`` holds, for each of E1–E11 and
A1–A8:

* ``points``: the ``config_digest`` of every point it runs at its
  default parameters, in run order.  They are recorded where the runs
  are handed to the simulator, without simulating them: every run is
  answered with one stand-in result;
* ``rows_digest`` and ``result_digest`` of its result at 12 ms: the
  rows, and the whole result (title, claim, headers, rows, notes,
  scalars and series);
* ``certified``: for the experiments ``repro verify invariants``
  certifies, the ``config_digest`` of that config at the CI horizon
  (5 ms) and at the defaults (60 ms), both at seed 11.

``rows_2ms`` holds the 2 ms rows digests of E2 and A3, which must come
out the same serially, pooled and from a warm run cache.
"""

from __future__ import annotations

import functools
import json
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments import runners
from repro.obs.provenance import config_digest, digest_of

from tests.conftest import experiment_12ms

GOLDENS = Path(__file__).parent / "goldens" / "experiment_goldens.json"
CERTIFIED_HORIZONS_US = {"ci": 5_000.0, "default": 60_000.0}
POOLED_HORIZON_US = 2_000.0
#: A paper experiment, and an ablation that used to run serially only.
POOLED_IDS = ("E2", "A3")


def goldens():
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


@functools.lru_cache(maxsize=None)
def _stand_in():
    """The one real (2 ms) result every recorded run is answered with."""
    from repro.core.system import run_system

    return run_system(replace(runners.DEFAULT_CONFIG, horizon_us=2_000.0))


def recorded_points(experiment_id):
    """``config_digest`` of each point ``experiment_id`` runs by default.

    Also checks that the points are what the experiment's spec declares,
    handed to the simulator in one ``run_many`` call.
    """
    calls = []

    def many(configs, jobs=None, cache=None, telemetry=None):
        calls.append(list(configs))
        return [_stand_in()] * len(calls[-1])

    with mock.patch.object(runners, "run_many", many):
        run_experiment(experiment_id)
    [points] = calls
    assert points == EXPERIMENTS[experiment_id]().points()
    return [config_digest(config) for config in points]


def whole_result_digest(result):
    """Digest over everything an experiment result reports."""
    return digest_of(
        [
            result.experiment_id,
            result.title,
            result.claim,
            list(result.headers),
            result.rows,
            result.notes,
            sorted(result.scalars.items()),
            sorted(result.series.items()),
        ]
    )


def certified_digests(horizon_us):
    """Experiment id -> ``config_digest`` of its certified config."""
    digests = {}
    for experiment_id, factory in EXPERIMENTS.items():
        configs = factory(horizon_us=horizon_us).certified_configs(11)
        if configs:
            [config] = configs
            digests[experiment_id] = config_digest(config)
    return digests


def test_goldens_cover_every_experiment():
    frozen = goldens()
    assert set(frozen["experiments"]) == set(EXPERIMENTS)
    assert set(frozen["rows_2ms"]) == set(POOLED_IDS)


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_points_match_golden(experiment_id):
    want = goldens()["experiments"][experiment_id]["points"]
    assert recorded_points(experiment_id) == want


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_result_matches_golden(experiment_id):
    want = goldens()["experiments"][experiment_id]
    result = experiment_12ms(experiment_id)
    assert result.provenance["rows_digest"] == want["rows_digest"]
    assert whole_result_digest(result) == want["result_digest"]


@pytest.mark.parametrize("horizon", sorted(CERTIFIED_HORIZONS_US))
def test_certified_configs_match_golden(horizon):
    frozen = goldens()["experiments"]
    want = {
        key: entry["certified"][horizon]
        for key, entry in frozen.items()
        if "certified" in entry
    }
    assert certified_digests(CERTIFIED_HORIZONS_US[horizon]) == want


@pytest.mark.parametrize("experiment_id", POOLED_IDS)
def test_serial_rows_at_2ms_match_golden(experiment_id):
    result = run_experiment(experiment_id, horizon_us=POOLED_HORIZON_US)
    want = goldens()["rows_2ms"][experiment_id]
    assert result.provenance["rows_digest"] == want


@pytest.mark.parametrize("experiment_id", POOLED_IDS)
def test_pooled_and_cached_rows_match_golden(experiment_id, tmp_path, closes):
    from repro.cache import RunCache

    want = goldens()["rows_2ms"][experiment_id]
    pooled = run_experiment(
        experiment_id, horizon_us=POOLED_HORIZON_US, jobs=2
    )
    assert pooled.provenance["rows_digest"] == want
    cache = closes(RunCache(str(tmp_path / "cache")))
    run_experiment(experiment_id, horizon_us=POOLED_HORIZON_US, cache=cache)
    misses = cache.stats.misses
    warm = run_experiment(
        experiment_id, horizon_us=POOLED_HORIZON_US, cache=cache
    )
    assert warm.provenance["rows_digest"] == want
    assert misses > 0 and cache.stats.misses == misses
