"""A run cache written by an older layout of the code still serves.

The run cache stores pickled :class:`~repro.core.system.SimulationResult`
objects, and a pickle names each class by the module that defined it
when it was written.  ``tests/goldens/pickle_goldens.json`` holds one
small cached result pickled then (4x4, hetero type grid, faults,
thermal and variation on, so every class a result holds appears), its
``result_digest`` and summary, and the ``(module, qualname)`` globals
that pickles of it and of an :class:`Outcome` carrying it referenced.

That pickle is in the eager layout: every attribute in one pickle.  A
result now pickles its ``metrics``, ``manifest`` and ``config`` as one
nested blob that is decoded on the first read of any of them.
``tests/goldens/lazy_pickle_goldens.json`` holds the same run pickled
in that layout (protocol 4, as the cache writes it), its
``result_digest``, summary and a digest over its decoded trace series.
Both layouts load and serve.
"""

from __future__ import annotations

import base64
import dataclasses
import importlib
import io
import json
import pickle
import sys
import threading
from pathlib import Path

import pytest

from repro.cache import RunCache
from repro.campaign import CampaignSpec, record_from_result
from repro.core.config_io import config_from_dict, config_to_dict
from repro.core.system import run_system
from repro.experiments.parallel import Outcome
from repro.metrics.collectors import SimulationResult
from repro.obs.provenance import config_digest, digest_of, result_digest
from repro.serve import PointPayload

GOLDENS = Path(__file__).parent / "goldens" / "pickle_goldens.json"
LAZY_GOLDENS = Path(__file__).parent / "goldens" / "lazy_pickle_goldens.json"

#: The attributes a result keeps in its nested blob.
DETAIL = ("metrics", "manifest", "config")


def goldens():
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def frozen_bytes():
    return base64.b64decode(goldens()["pickle_b64"])


def lazy_goldens():
    return json.loads(LAZY_GOLDENS.read_text(encoding="utf-8"))


def lazy_bytes():
    return base64.b64decode(lazy_goldens()["pickle_b64"])


def pickled_globals(data):
    """``{(module, qualname): class}`` of every global ``data`` loads,
    the globals of a loaded result's nested detail blob included."""
    found = {}

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            found[(module, name)] = super().find_class(module, name)
            return found[(module, name)]

    value = Recorder(io.BytesIO(data)).load()
    result = value.result if isinstance(value, Outcome) else value
    if isinstance(result, SimulationResult) and "_detail" in vars(result):
        found.update(pickled_globals(vars(result)["_detail"]))
    return found


def trace_digest(result):
    """Digest over every series of a result's decoded trace."""
    trace = result.metrics.trace
    return digest_of((name, trace.series(name)) for name in trace.names())


def undecoded(result):
    """Is the result's detail still the stored, undecoded blob?"""
    state = vars(result)
    return "_detail" in state and not any(name in state for name in DETAIL)


def test_frozen_result_serves_from_the_cache(tmp_path, closes):
    doc = goldens()
    config = config_from_dict(doc["config"])
    cache = closes(RunCache(cache_dir=str(tmp_path)))
    digest = config_digest(config)
    cache.store.put(cache.key_for(digest), frozen_bytes())
    result = cache.get_result(digest)
    assert result is not None
    assert result.config == config
    assert result_digest(result) == doc["result_digest"]
    assert result.summary() == doc["summary"]


@pytest.mark.parametrize("kind", ["result", "outcome"])
def test_frozen_globals_resolve_to_the_classes_pickled_now(kind):
    result = pickle.loads(frozen_bytes())
    value = result if kind == "result" else Outcome(result=result, pid=7)
    now = {
        qualname: cls
        for (_module, qualname), cls in pickled_globals(
            pickle.dumps(value, protocol=4)
        ).items()
    }
    frozen = goldens()[f"{kind}_globals"]
    assert sorted(qualname for _module, qualname in frozen) == sorted(now)
    for module, qualname in frozen:
        assert getattr(importlib.import_module(module), qualname) is now[qualname]


def test_lazy_result_serves_from_the_cache(tmp_path, closes):
    doc = lazy_goldens()
    config = config_from_dict(doc["config"])
    cache = closes(RunCache(cache_dir=str(tmp_path)))
    digest = config_digest(config)
    cache.store.put(cache.key_for(digest), lazy_bytes())
    result = cache.get_result(digest)
    assert result is not None and undecoded(result)
    assert result_digest(result) == doc["result_digest"]
    assert result.summary() == doc["summary"]
    assert undecoded(result)
    assert trace_digest(result) == doc["trace_digest"]
    assert result.config == config
    assert result.manifest.summary_digest == digest_of(
        sorted(doc["summary"].items())
    )


def test_both_layouts_hold_the_same_run():
    eager = pickle.loads(frozen_bytes())
    lazy = pickle.loads(lazy_bytes())
    assert "_detail" not in vars(eager) and undecoded(lazy)
    assert result_digest(eager) == result_digest(lazy)
    assert trace_digest(eager) == trace_digest(lazy)
    assert eager.manifest == lazy.manifest
    assert eager.config == lazy.config


def test_hit_readers_leave_the_detail_undecoded():
    doc = lazy_goldens()
    result = pickle.loads(lazy_bytes())
    config = config_from_dict(doc["config"])
    spec = CampaignSpec.from_dict(
        {
            "name": "lazy-readers",
            "base": {
                k: v for k, v in doc["config"].items() if k != "seed"
            },
            "seeds": {"start": config.seed, "count": 1},
        }
    )
    (point,) = spec.fixed_points()
    assert point.digest == config_digest(config)
    record = record_from_result(point, result)
    payload = PointPayload.of(point.digest, result)
    assert undecoded(result)
    assert record["summary"] == doc["summary"]
    assert record["n_levels"] == config.n_vf_levels
    assert payload.result_digest == doc["result_digest"]
    assert payload.summary == doc["summary"]
    # The record is the one the eager layout gives.
    assert record == record_from_result(point, pickle.loads(frozen_bytes()))


def test_repickling_an_undecoded_result_reuses_its_detail_bytes():
    data = lazy_bytes()
    result = pickle.loads(data)
    blob = vars(result)["_detail"]
    assert pickle.dumps(result, protocol=4) == data
    assert undecoded(result)
    again = pickle.loads(pickle.dumps(Outcome(result=result, pid=7)))
    assert vars(again.result)["_detail"] == blob
    assert undecoded(again.result)


def test_decoded_detail_equals_the_original():
    doc = lazy_goldens()
    original = run_system(config_from_dict(doc["config"]))
    assert result_digest(original) == doc["result_digest"]
    assert trace_digest(original) == doc["trace_digest"]
    loaded = pickle.loads(pickle.dumps(original, protocol=4))
    assert undecoded(loaded)
    got, want = loaded.metrics, original.metrics
    assert got.trace.names() == want.trace.names()
    for name in want.trace.names():
        assert got.trace.series(name) == want.trace.series(name)
    assert dataclasses.asdict(got.audit) == dataclasses.asdict(want.audit)
    assert got.app_records == want.app_records
    for counter in (
        "apps_arrived",
        "apps_admitted",
        "apps_completed",
        "apps_aborted",
        "tasks_completed",
        "ops_completed",
    ):
        assert getattr(got, counter) == getattr(want, counter)
    assert loaded.manifest == original.manifest
    assert loaded.manifest.to_dict() == original.manifest.to_dict()
    assert loaded.config == original.config
    assert config_to_dict(loaded.config) == config_to_dict(original.config)


def test_threads_reading_first_see_the_same_objects():
    """More reading threads than cores, each starting from another
    detail attribute, with a short switch interval: none fails and all
    see the same objects."""
    data = lazy_bytes()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            result = pickle.loads(data)
            barrier = threading.Barrier(8)
            seen = [None] * 8
            errors = []

            def read(slot):
                try:
                    barrier.wait(timeout=10)
                    getattr(result, DETAIL[slot % len(DETAIL)])
                    seen[slot] = [getattr(result, name) for name in DETAIL]
                except BaseException as exc:  # noqa: BLE001 (asserted below)
                    errors.append(exc)

            threads = [
                threading.Thread(target=read, args=(slot,)) for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert errors == []
            for objects in seen[1:]:
                assert all(a is b for a, b in zip(objects, seen[0]))
            assert "_detail" not in vars(result)
    finally:
        sys.setswitchinterval(switch)


def test_an_assigned_detail_wins_over_the_stored_blob():
    doc = lazy_goldens()
    config = config_from_dict(doc["config"])
    decoded = pickle.loads(lazy_bytes())
    decoded.manifest = None
    assert trace_digest(decoded) == doc["trace_digest"]  # decodes the rest
    assert decoded.manifest is None and decoded.config == config
    pickled = pickle.loads(lazy_bytes())
    pickled.manifest = None  # pickled without a read of the rest
    for result in (decoded, pickled):
        again = pickle.loads(pickle.dumps(result, protocol=4))
        assert undecoded(again)
        assert again.manifest is None and again.config == config
        assert trace_digest(again) == doc["trace_digest"]


def test_a_detail_that_fails_to_decode_raises_at_first_read():
    result = pickle.loads(lazy_bytes())
    vars(result)["_detail"] = b"not a pickle"
    assert result.summary() == lazy_goldens()["summary"]
    for name in DETAIL:
        with pytest.raises(pickle.UnpicklingError):
            getattr(result, name)
