"""A run cache written by an older layout of the code still serves.

The run cache stores pickled :class:`~repro.core.system.SimulationResult`
objects, and a pickle names each class by the module that defined it
when it was written.  ``tests/goldens/pickle_goldens.json`` holds one
small cached result pickled then (4x4, hetero type grid, faults,
thermal and variation on, so every class a result holds appears), its
``result_digest`` and summary, and the ``(module, qualname)`` globals
that pickles of it and of an :class:`Outcome` carrying it referenced.
"""

from __future__ import annotations

import base64
import importlib
import io
import json
import pickle
from pathlib import Path

import pytest

from repro.cache import RunCache
from repro.core.config_io import config_from_dict
from repro.experiments.parallel import Outcome
from repro.obs.provenance import config_digest, result_digest

GOLDENS = Path(__file__).parent / "goldens" / "pickle_goldens.json"


def goldens():
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def frozen_bytes():
    return base64.b64decode(goldens()["pickle_b64"])


def pickled_globals(data):
    """``{(module, qualname): class}`` of every global ``data`` loads."""
    found = {}

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            found[(module, name)] = super().find_class(module, name)
            return found[(module, name)]

    Recorder(io.BytesIO(data)).load()
    return found


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
