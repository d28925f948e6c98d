"""Differential pinning of the heterogeneity layer's degenerate path.

The contract (``docs/heterogeneity.md``): a config where every tile is
the ``std`` type under the baseline ``cmos`` model — in any spelling —
must produce ``result_digest``\\ s byte-identical to the engine from
*before* core types and technology models existed.  The digests in
``tests/goldens/hetero_goldens.json`` were frozen from that pre-layer
engine and are never regenerated casually, so these tests compare
today's engine against history, across every execution path:

* scalar ``run_system`` (all degenerate spellings),
* a pooled ``run_many(jobs=2)`` sweep,
* a cold+warm ``RunCache`` round trip,
* a served sweep through :class:`repro.serve.ServeEngine`.

A genuinely heterogeneous grid must *move* the digest (negative
control), and the journal stays byte-compatible: hetero platform keys
appear only for heterogeneous chips.

The outputs the degenerate contract does not reach — E11's three
configs, ``g44_base`` under ``ntv``, and the E11 / E3 ``rows_digest``\\ s —
are pinned against ``tests/goldens/nondegenerate_goldens.json``, frozen
from the engine before the technology layer became one module.
"""

from __future__ import annotations

import asyncio
import importlib.util
import os
from dataclasses import replace

import pytest

from repro.cache import RunCache
from repro.core.system import run_system
from repro.experiments.parallel import run_many
from repro.obs.journal import Journal
from repro.obs.provenance import result_digest
from repro.serve import ServeEngine, SweepRequest
from repro.verify import replay_journal, verify_config

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_script(name):
    """Import a benchmarks/ script by path (they are not a package)."""
    path = os.path.join(REPO_ROOT, "benchmarks", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


smoke = _load_script("hetero_smoke")
GOLDENS = smoke.load_goldens()
NONDEGENERATE = smoke.load_nondegenerate_goldens()


def _golden(name, seed):
    return GOLDENS[f"{name}@{seed}"]


# ----------------------------------------------------------------------
# Scalar path: every degenerate spelling of every golden workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(smoke.GOLDEN_BASES))
def test_scalar_degenerate_spellings_match_frozen_goldens(name):
    config = smoke.golden_configs()[name]
    want = _golden(name, config.seed)
    for variant in smoke.degenerate_spellings(config):
        assert result_digest(run_system(variant)) == want, (
            f"type_grid={variant.type_grid!r} tech_model="
            f"{variant.tech_model!r} moved the {name} digest"
        )


# ----------------------------------------------------------------------
# Scalar path: heterogeneous and ntv outputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(smoke.nondegenerate_configs()))
def test_nondegenerate_configs_match_frozen_goldens(name):
    config = smoke.nondegenerate_configs()[name]
    want = NONDEGENERATE["result_digest"][f"{name}@{config.seed}"]
    assert result_digest(run_system(config)) == want


@pytest.mark.parametrize("experiment_id", sorted(smoke.ROWS_CELLS))
def test_experiment_rows_match_frozen_goldens(experiment_id):
    want = NONDEGENERATE["rows_digest"][experiment_id]
    assert smoke.experiment_rows_digest(experiment_id) == want


# ----------------------------------------------------------------------
# Pooled, cached and served paths (hetero-spelled degenerate)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def degenerate_base():
    """g44_base with the heterogeneity layer explicitly engaged."""
    return replace(
        smoke.golden_configs()["g44_base"],
        type_grid=("std",),
        tech_model="cmos",
    )


def test_pooled_run_many_matches_frozen_goldens(degenerate_base):
    sweep = [replace(degenerate_base, seed=s) for s in smoke.SWEEP_SEEDS]
    for seed, result in zip(smoke.SWEEP_SEEDS, run_many(sweep, jobs=2)):
        assert result_digest(result) == _golden("g44_base", seed)


def test_warm_cache_matches_frozen_goldens(degenerate_base, tmp_path, closes):
    sweep = [replace(degenerate_base, seed=s) for s in smoke.SWEEP_SEEDS]
    cache = closes(RunCache(cache_dir=str(tmp_path / "cache")))
    run_many(sweep, None, cache=cache)
    warm = run_many(sweep, None, cache=cache)
    assert cache.stats.hits >= len(sweep)
    for seed, result in zip(smoke.SWEEP_SEEDS, warm):
        assert result_digest(result) == _golden("g44_base", seed)


def test_served_sweep_matches_frozen_goldens():
    base = dict(smoke.GOLDEN_BASES["g44_base"])
    del base["seed"]
    base["type_grid"] = ["std"]
    base["tech_model"] = "cmos"

    async def body():
        engine = ServeEngine(jobs=0)
        await engine.start()
        try:
            request = SweepRequest.parse(
                {
                    "points": [{"seed": s} for s in smoke.SWEEP_SEEDS],
                    "base": base,
                }
            )
            tickets = engine.submit(request)
            return await asyncio.gather(*[t.future for t in tickets])
        finally:
            await engine.drain(30.0)
            await engine.stop()

    payloads = asyncio.run(body())
    for seed, payload in zip(smoke.SWEEP_SEEDS, payloads):
        assert payload.result_digest == _golden("g44_base", seed)


# ----------------------------------------------------------------------
# Negative control + journal compatibility
# ----------------------------------------------------------------------
def test_heterogeneous_grid_moves_the_digest(degenerate_base):
    hetero = replace(
        degenerate_base, type_grid=("io", "o3", "accel", "std") * 4
    )
    assert result_digest(run_system(hetero)) != _golden(
        "g44_base", hetero.seed
    )


def test_ntv_model_moves_the_digest(degenerate_base):
    ntv = replace(degenerate_base, tech_model="ntv")
    assert result_digest(run_system(ntv)) != _golden("g44_base", ntv.seed)


def test_journal_platform_keys_are_hetero_gated(degenerate_base):
    """Degenerate journals carry no hetero keys; hetero journals do —
    and both replay bit-exactly."""
    journal = Journal(level="info")
    _, checker = verify_config(degenerate_base, journal=journal)
    assert checker.ok
    (platform,) = [
        e for e in journal.events if e.type == "verify.platform"
    ]
    assert "tech_model" not in platform.data
    assert "core_types" not in platform.data
    assert replay_journal(list(journal.events)).ok

    hetero = replace(
        degenerate_base, type_grid=("io", "o3", "accel", "std") * 4
    )
    journal = Journal(level="info")
    _, checker = verify_config(hetero, journal=journal)
    assert checker.ok
    (platform,) = [
        e for e in journal.events if e.type == "verify.platform"
    ]
    assert platform.data["tech_model"] == "cmos"
    assert platform.data["core_types"] == list(hetero.type_grid)
    assert replay_journal(list(journal.events)).ok
