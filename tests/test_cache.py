"""Tests for the content-addressed run cache (``repro.cache``).

Contract-level properties pinned here:

* **identity** — a cache hit is byte-identical to a recompute: summary
  digests match across cache-off, cold-cache and warm-cache runs, for
  ``run_many`` (serial and pooled) and for campaigns (including a warm
  re-run grid served without executing a single point);
* **integrity** — a corrupt blob (bit rot, truncation, unpicklable
  payload) is quarantined and transparently recomputed, never served;
* **durability** — the index survives torn final lines, self-heals
  mid-file corruption, and is never torn by pooled sweeps (the
  supervisor is the only index writer);
* **boundedness** — a size cap evicts in LRU order, refreshed by hits.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import threading
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    CacheStats,
    ContentStore,
    RunCache,
    active_cache,
    default_salt,
    run_key,
    set_default_cache,
    write_blob,
)
from repro.cache.store import INDEX_FILE, QUARANTINE_DIR, blob_path
from repro.campaign import CampaignSpec, run_campaign
from repro.cli import main
from repro.core.system import SystemConfig, run_system
from repro.experiments.parallel import execute, run_many
from repro.obs import Journal, configure
from repro.obs.provenance import config_digest, rows_digest
from repro.telemetry import MetricsRegistry

#: Small fast config: one run is ~50 ms.
BASE = SystemConfig(width=4, height=4, horizon_us=2000.0, seed=5)
BASE_DIGEST = config_digest(BASE)


def summaries_digest(results) -> str:
    return rows_digest([r.summary() for r in results])


@pytest.fixture
def cache(tmp_path):
    return RunCache(cache_dir=str(tmp_path / "cache"))


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def test_key_is_stable_and_config_sensitive():
    salt = default_salt()
    assert run_key(BASE_DIGEST, salt) == run_key(config_digest(BASE), salt)
    other = dataclasses.replace(BASE, seed=6)
    assert run_key(config_digest(other), salt) != run_key(BASE_DIGEST, salt)


def test_key_is_salt_sensitive():
    assert run_key(BASE_DIGEST, "v1/s1") != run_key(BASE_DIGEST, "v2/s1")
    assert default_salt("e2") != default_salt()


# ----------------------------------------------------------------------
# ContentStore
# ----------------------------------------------------------------------
def test_store_round_trip_and_persistence(tmp_path):
    root = str(tmp_path)
    store = ContentStore(root)
    store.put("k1", b"hello")
    assert store.get("k1") == ("hit", b"hello")
    assert store.get("nope") == ("miss", None)
    # a fresh instance replays the index
    again = ContentStore(root)
    assert again.get("k1") == ("hit", b"hello")
    assert len(again) == 1 and again.total_bytes() == 5


def test_store_deduplicates_identical_blobs(tmp_path):
    store = ContentStore(str(tmp_path))
    d1, _ = store.put("k1", b"same-bytes")
    d2, _ = store.put("k2", b"same-bytes")
    assert d1 == d2
    # deleting one key keeps the shared blob alive for the other
    store.delete("k1")
    assert store.get("k2") == ("hit", b"same-bytes")
    store.delete("k2")
    assert not os.path.exists(blob_path(str(tmp_path), d1))


def test_corrupt_blob_is_quarantined_and_missed(tmp_path):
    root = str(tmp_path)
    store = ContentStore(root)
    digest, _ = store.put("k1", b"payload")
    with open(blob_path(root, digest), "r+b") as handle:
        handle.write(b"XX")
    status, data = store.get("k1")
    assert status == "corrupt" and data is None
    assert "k1" not in store
    assert os.path.exists(os.path.join(root, QUARANTINE_DIR, digest))
    assert store.counters["corrupt"] == 1
    # the deletion is durable: a reload agrees
    assert ContentStore(root).get("k1") == ("miss", None)


def test_vanished_blob_counts_as_corrupt(tmp_path):
    root = str(tmp_path)
    store = ContentStore(root)
    digest, _ = store.put("k1", b"payload")
    os.remove(blob_path(root, digest))
    assert store.get("k1") == ("corrupt", None)


def test_verify_quarantines_and_reports(tmp_path):
    root = str(tmp_path)
    store = ContentStore(root)
    d1, _ = store.put("good", b"aaa")
    d2, _ = store.put("bad", b"bbb")
    with open(blob_path(root, d2), "wb") as handle:
        handle.write(b"tampered")
    report = store.verify()
    assert report["checked"] == 2
    assert report["ok"] == 1
    assert report["corrupt"] == ["bad"]
    assert store.get("good")[0] == "hit"


def test_lru_eviction_order_under_tiny_cap(tmp_path):
    # Cap fits two 3-byte blobs; entries are evicted oldest-use first.
    store = ContentStore(str(tmp_path), max_bytes=6)
    store.put("a", b"aa1")
    store.put("b", b"bb1")
    store.get("a")  # refresh a: b is now the LRU entry
    evicted = store.put("c", b"cc1")[1]
    assert evicted == ["b"]
    assert store.keys() == ["a", "c"]
    assert store.counters["evictions"] == 1
    # the sole remaining entry is never evicted on behalf of itself
    solo = ContentStore(str(tmp_path / "solo"), max_bytes=1)
    solo.put("big", b"way-too-big")
    assert solo.keys() == ["big"]


def test_eviction_order_survives_reload(tmp_path):
    root = str(tmp_path)
    store = ContentStore(root, max_bytes=100)
    store.put("a", b"a" * 30)
    store.put("b", b"b" * 30)
    store.get("a")
    reloaded = ContentStore(root, max_bytes=100)
    evicted = reloaded.put("c", b"c" * 60)[1]
    assert evicted == ["b"]


def test_torn_final_index_line_is_tolerated(tmp_path):
    root = str(tmp_path)
    store = ContentStore(root)
    store.put("k1", b"data")
    store.close()
    with open(os.path.join(root, INDEX_FILE), "a", encoding="utf-8") as f:
        f.write('{"op": "put", "key": "torn')
    again = ContentStore(root)
    assert again.get("k1") == ("hit", b"data")


def test_mid_file_index_corruption_self_heals(tmp_path):
    root = str(tmp_path)
    store = ContentStore(root)
    store.put("k1", b"one")
    store.put("k2", b"two")
    store.close()
    index = os.path.join(root, INDEX_FILE)
    lines = open(index, encoding="utf-8").read().splitlines()
    lines.insert(1, "GARBAGE-NOT-JSON")
    with open(index, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    healed = ContentStore(root)
    assert healed.get("k1")[0] == "hit"
    assert healed.get("k2")[0] == "hit"
    # the log was compacted: every surviving line parses
    for line in open(index, encoding="utf-8").read().splitlines():
        json.loads(line)


def test_gc_collects_orphans_and_compacts(tmp_path):
    root = str(tmp_path)
    store = ContentStore(root)
    store.put("k1", b"keep")
    write_blob(root, b"orphan-blob")  # written but never indexed
    outcome = store.gc()
    assert outcome["orphan_blobs_removed"] == 1
    assert outcome["entries"] == 1
    assert store.get("k1") == ("hit", b"keep")


# ----------------------------------------------------------------------
# RunCache
# ----------------------------------------------------------------------
def test_run_cache_round_trip(cache):
    result, hit = cache.get_or_run(BASE)
    assert not hit
    again, hit2 = cache.get_or_run(BASE)
    assert hit2
    assert summaries_digest([result]) == summaries_digest([again])
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert cache.stats.hit_rate() == 0.5


def test_run_cache_unpicklable_blob_is_corrupt(cache):
    key = cache.put_result(BASE_DIGEST, run_system(BASE))
    entry = cache.store._entries[key]
    # digest-valid bytes that are not a pickle
    cache.store.put(key, b"not a pickle at all")
    assert cache.get_result(BASE_DIGEST) is None
    assert cache.stats.corrupt == 1
    del entry


def test_run_cache_emits_journal_events(tmp_path):
    journal = Journal()
    cache = RunCache(cache_dir=str(tmp_path), journal=journal)
    cache.get_or_run(BASE)
    cache.get_or_run(BASE)
    cache.note_bypass(2, reason="test")
    counts = journal.counts()
    assert counts["cache.miss"] == 1
    assert counts["cache.put"] == 1
    assert counts["cache.hit"] == 1
    assert counts["cache.bypass"] == 1


def test_cache_stats_empty_hit_rate():
    assert CacheStats().hit_rate() is None


def test_default_cache_install_and_reset(cache):
    assert active_cache() is None
    set_default_cache(cache)
    try:
        assert active_cache() is cache
        run_many([BASE])
        assert cache.stats.misses == 1
        run_many([BASE])
        assert cache.stats.hits == 1
    finally:
        set_default_cache(None)
    assert active_cache() is None


# ----------------------------------------------------------------------
# run_many threading
# ----------------------------------------------------------------------
def sweep_configs(n=4):
    return [
        dataclasses.replace(BASE, tdp_w=30.0 + 10.0 * i) for i in range(n)
    ]


def test_run_many_cache_identity_serial(cache):
    configs = sweep_configs()
    plain = run_many(configs)
    cold = run_many(configs, cache=cache)
    warm = run_many(configs, cache=cache)
    assert (
        summaries_digest(plain)
        == summaries_digest(cold)
        == summaries_digest(warm)
    )
    assert cache.stats.misses == 4 and cache.stats.hits == 4


def test_run_many_cache_identity_pooled_no_torn_index(tmp_path):
    configs = sweep_configs(6)
    root = str(tmp_path / "cache")
    cold = run_many(configs, 2, cache=RunCache(cache_dir=root))
    # every index line written during the pooled sweep parses cleanly
    index = os.path.join(root, INDEX_FILE)
    lines = [
        line
        for line in open(index, encoding="utf-8").read().splitlines()
        if line.strip()
    ]
    assert len(lines) >= 6
    for line in lines:
        assert json.loads(line)["op"] in ("put", "touch", "del")
    warm_cache = RunCache(cache_dir=root)
    warm = run_many(configs, 2, cache=warm_cache)
    assert warm_cache.stats.hits == 6 and warm_cache.stats.misses == 0
    assert summaries_digest(cold) == summaries_digest(warm)


def test_run_many_partial_warm(cache):
    configs = sweep_configs(4)
    run_many(configs[:2], cache=cache)
    cache.stats = CacheStats()
    results = run_many(configs, cache=cache)
    assert cache.stats.hits == 2 and cache.stats.misses == 2
    assert summaries_digest(results) == summaries_digest(run_many(configs))


def test_run_many_bypasses_under_observability(cache):
    configure(journal=Journal())
    try:
        results = run_many([BASE], cache=cache)
    finally:
        configure()
    assert cache.stats.bypasses == 1
    assert cache.stats.hits == 0 and cache.stats.misses == 0
    assert len(cache.store) == 0
    assert summaries_digest(results) == summaries_digest([run_system(BASE)])


@settings(max_examples=6, deadline=None)
@given(
    tdp_w=st.floats(min_value=15.0, max_value=120.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    rate=st.floats(min_value=1.0, max_value=20.0, allow_nan=False),
)
def test_property_cache_on_equals_cache_off(tmp_path_factory, tdp_w, seed, rate):
    """Cache-on and cache-off ``run_many`` agree for arbitrary configs."""
    config = dataclasses.replace(
        BASE,
        horizon_us=1200.0,
        tdp_w=tdp_w,
        seed=seed,
        arrival_rate_per_ms=rate,
    )
    cache = RunCache(
        cache_dir=str(tmp_path_factory.mktemp("prop-cache"))
    )
    off = run_many([config])
    cold = run_many([config], cache=cache)
    warm = run_many([config], cache=cache)
    assert (
        summaries_digest(off)
        == summaries_digest(cold)
        == summaries_digest(warm)
    )
    assert cache.stats.hits == 1 and cache.stats.misses == 1


# ----------------------------------------------------------------------
# Campaign threading
# ----------------------------------------------------------------------
CAMPAIGN_BASE = {
    "width": 4,
    "height": 4,
    "horizon_us": 2000.0,
    "arrival_rate_per_ms": 8.0,
    "fault_hazard_per_us": 2e-4,
}


def small_spec() -> CampaignSpec:
    return CampaignSpec.from_dict(
        {
            "name": "cache-test",
            "base": CAMPAIGN_BASE,
            "grid": {"test_policy": ["power-aware", "none"]},
            "seeds": {"start": 1, "count": 2},
        }
    )


def _exploding_worker(config, timeout_s=None, span=None):
    raise AssertionError("cache should have served every point")


def test_campaign_warm_grid_served_without_running(tmp_path):
    spec = small_spec()
    cache_dir = str(tmp_path / "cache")
    cold = run_campaign(
        str(tmp_path / "c1"), spec=spec, cache=RunCache(cache_dir=cache_dir)
    )
    # identical grid, new campaign dir, a worker that would fail loudly:
    # every point must be served from the cache.
    warm_cache = RunCache(cache_dir=cache_dir)
    warm = run_campaign(
        str(tmp_path / "c2"),
        spec=spec,
        cache=warm_cache,
        worker=_exploding_worker,
    )
    assert warm.aggregate == cold.aggregate
    assert warm_cache.stats.hits == 4 and warm_cache.stats.misses == 0
    # and both equal an uncached cold campaign
    plain = run_campaign(str(tmp_path / "c3"), spec=spec)
    assert plain.aggregate == cold.aggregate


def test_campaign_overlapping_grid_partially_served(tmp_path):
    spec = small_spec()
    cache_dir = str(tmp_path / "cache")
    run_campaign(
        str(tmp_path / "c1"), spec=spec, cache=RunCache(cache_dir=cache_dir)
    )
    bigger = CampaignSpec.from_dict(
        {
            "name": "cache-test-wide",
            "base": CAMPAIGN_BASE,
            "grid": {"test_policy": ["power-aware", "none", "unaware"]},
            "seeds": {"start": 1, "count": 2},
        }
    )
    overlap_cache = RunCache(cache_dir=cache_dir)
    report = run_campaign(
        str(tmp_path / "c2"), spec=bigger, cache=overlap_cache
    )
    # 4 of 6 points overlap the first grid
    assert overlap_cache.stats.hits == 4
    assert overlap_cache.stats.misses == 2
    plain = run_campaign(str(tmp_path / "c3"), spec=bigger)
    assert report.aggregate == plain.aggregate


def test_campaign_pooled_cache_index_owned_by_supervisor(tmp_path):
    spec = small_spec()
    cache_dir = str(tmp_path / "cache")
    run_campaign(
        str(tmp_path / "c1"),
        spec=spec,
        jobs=2,
        cache=RunCache(cache_dir=cache_dir),
    )
    store = ContentStore(cache_dir)
    assert len(store) == 4
    for line in open(
        os.path.join(cache_dir, INDEX_FILE), encoding="utf-8"
    ).read().splitlines():
        json.loads(line)


def test_overlapping_campaigns_count_their_own_cache_traffic(tmp_path):
    """Two campaigns share one cache; the first-started finishes first.

    Each campaign's telemetry snapshot counts only its own cache
    traffic, and a lookup made afterwards — here a served sweep, whose
    engine registry ``/metrics`` exports — counts in its caller's
    registry, not in one a finished campaign left behind.
    """
    import asyncio

    from repro.serve import ServeEngine, SweepRequest

    cache = RunCache(cache_dir=str(tmp_path / "cache"))
    a_running = threading.Event()
    b_running = threading.Event()
    a_finished = threading.Event()

    def worker_a(config, timeout_s=None, span=None):
        a_running.set()
        b_running.wait(60)
        return execute(config, timeout_s, span)

    def worker_b(config, timeout_s=None, span=None):
        b_running.set()
        a_finished.wait(60)
        return execute(config, timeout_s, span)

    def campaign(name, start, count, worker):
        spec = CampaignSpec.from_dict(
            {
                "name": name,
                "base": CAMPAIGN_BASE,
                "grid": {},
                "seeds": {"start": start, "count": count},
            }
        )
        run_campaign(
            str(tmp_path / name), spec=spec, cache=cache, worker=worker
        )

    a = threading.Thread(target=campaign, args=("a", 1, 2, worker_a))
    b = threading.Thread(target=campaign, args=("b", 3, 3, worker_b))
    a.start()
    assert a_running.wait(60)
    b.start()
    a.join(120)
    assert not a.is_alive()
    a_finished.set()
    b.join(120)
    assert not b.is_alive()

    def counters(name):
        path = tmp_path / name / "telemetry.json"
        return json.loads(path.read_text())["metrics"]["counters"]

    for name, n in (("a", 2), ("b", 3)):
        cache_counters = {
            key: value
            for key, value in counters(name).items()
            if key.startswith("cache.")
        }
        assert cache_counters == {"cache.misses": n, "cache.puts": n}

    async def served_sweep(registry):
        engine = ServeEngine(jobs=0, cache=cache, registry=registry)
        await engine.start()
        try:
            tickets = engine.submit(
                SweepRequest.parse(
                    {
                        "points": [{"seed": s} for s in (1, 3, 5)],
                        "base": CAMPAIGN_BASE,
                    }
                )
            )
            await asyncio.gather(*[t.future for t in tickets])
            return [t.source for t in tickets]
        finally:
            await engine.drain(30.0)
            await engine.stop()

    registry = MetricsRegistry()
    assert asyncio.run(served_sweep(registry)) == ["cached"] * 3
    snapshot = registry.snapshot()["counters"]
    assert snapshot["serve.cache_hits"] == 3
    assert snapshot["cache.hits"] == 3


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--horizon-ms", "2"],
        ["sweep", "tdp_w", "40,80", "--horizon-ms", "2"],
    ],
    ids=["run", "sweep"],
)
def test_cli_closes_the_caches_it_opens(tmp_path, capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(argv + ["--cache-dir", str(tmp_path / "cache")]) == 0
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == []


def test_cli_sweep_warm_and_cache_commands(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    args = [
        "sweep", "tdp_w", "40,60", "--horizon-ms", "2",
        "--cache-dir", cache_dir,
    ]
    assert main(args) == 0
    cold_out = capsys.readouterr().out
    assert "2 miss(es)" in cold_out
    assert main(args) == 0
    warm_out = capsys.readouterr().out
    assert "2 hit(s)" in warm_out and "100% hit rate" in warm_out
    # the tables themselves are identical
    table = lambda text: text.split("cache:")[0]
    assert table(cold_out) == table(warm_out)

    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "entries" in capsys.readouterr().out
    assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0
    assert "2 ok" in capsys.readouterr().out
    assert main(["cache", "gc", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "cleared 2" in capsys.readouterr().out


def test_cli_cache_verify_flags_corruption(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    cache = RunCache(cache_dir=cache_dir)
    key = cache.put_result(BASE_DIGEST, run_system(BASE))
    blob = cache.store._entries[key].blob
    with open(blob_path(cache_dir, blob), "r+b") as handle:
        handle.write(b"XX")
    cache.store.close()
    assert main(["cache", "verify", "--cache-dir", cache_dir]) == 1
    assert "1 corrupt" in capsys.readouterr().out


def test_cli_run_journal_bypasses_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    journal_path = str(tmp_path / "run.jsonl")
    assert main([
        "run", "--horizon-ms", "2", "--cache-dir", cache_dir,
        "--journal", journal_path,
    ]) == 0
    out = capsys.readouterr().out
    assert "journal written" in out
    assert "cache:" not in out  # bypassed: no hit/miss line
    assert not os.path.exists(os.path.join(cache_dir, INDEX_FILE))


def test_cli_run_profile_serves_from_cache(tmp_path, capsys):
    # The profiler observes from outside, so it does not bypass the
    # cache: the second run is a hit, and its profile shows the cache.
    args = ["run", "--horizon-ms", "3", "--profile",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "cache: miss (stored)" in first
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "cache: hit" in second
    rows = [line.split() for line in second.splitlines()]
    assert any(row[:1] == ["repro.cache"] for row in rows)
    coverage = float(second.rsplit("(coverage ", 1)[1].split(")")[0])
    assert coverage >= 0.95


def test_cli_cache_and_no_cache_conflict(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "tdp_w", "40", "--cache", "--no-cache"])


def test_cli_missing_cache_dir_is_friendly(tmp_path, capsys):
    missing = str(tmp_path / "nope")
    assert main(["cache", "verify", "--cache-dir", missing]) == 2
    assert "no cache at" in capsys.readouterr().err
