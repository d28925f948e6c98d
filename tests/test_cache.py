"""Tests for the content-addressed run cache (``repro.cache``).

Contract-level properties pinned here:

* **identity** — a cache hit is byte-identical to a recompute: summary
  digests match across cache-off, cold-cache and warm-cache runs, for
  ``run_many`` (serial and pooled) and for campaigns (including a warm
  re-run grid served without executing a single point);
* **integrity** — a corrupt blob (bit rot, truncation, unpicklable
  payload) is deleted and transparently recomputed, never served;
* **durability** — the pack survives a torn final record cut at any
  byte, self-heals mid-file corruption, and is never torn by pooled
  sweeps or threads sharing one store (the supervisor is the only
  writer, and one lock serializes its threads);
* **boundedness** — a size cap evicts in LRU order, refreshed by hits.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import sys
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    CACHE_SCHEMA,
    CacheStats,
    ContentStore,
    RunCache,
    code_version,
    default_salt,
    run_key,
)
from repro.cache.store import LEGACY_DIRS, LEGACY_INDEX, PACK_FILE
from repro.campaign import CampaignSpec, run_campaign
from repro.cli import main
from repro.core.system import SystemConfig, run_system
from repro.experiments.parallel import execute, run_many
from repro.obs.provenance import config_digest, rows_digest
from repro.telemetry import MetricsRegistry

#: Small fast config: one run is ~50 ms.
BASE = SystemConfig(width=4, height=4, horizon_us=2000.0, seed=5)
BASE_DIGEST = config_digest(BASE)


def summaries_digest(results) -> str:
    return rows_digest([r.summary() for r in results])


def pack_ops(root):
    """Every op in the pack under ``root``, in order, each put with its
    blob; fails on a torn or damaged record."""
    data = Path(root, PACK_FILE).read_bytes()
    ops, pos = [], 0
    while pos < len(data):
        end = data.index(b"\n", pos) + 1
        op = json.loads(data[pos:end])
        pos = end
        if op["op"] == "put":
            op["data"] = data[pos:pos + op["size"]]
            assert data[pos + op["size"]:pos + op["size"] + 1] == b"\n"
            pos += op["size"] + 1
        ops.append(op)
    return ops


def tamper(store, key, data=b"XX"):
    """Overwrite the start of ``key``'s bytes in the pack."""
    with open(store.path, "r+b") as handle:
        handle.seek(store._entries[key].offset)
        handle.write(data)


@pytest.fixture
def cache(tmp_path):
    cache = RunCache(cache_dir=str(tmp_path / "cache"))
    yield cache
    cache.close()


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


def test_a_schema_1_entry_reads_as_a_miss(tmp_path, closes):
    """Schema 2 (the lazy result layout) never reads what schema 1
    wrote: the entry misses cleanly, without counting as corrupt."""
    assert CACHE_SCHEMA == 2
    assert default_salt().endswith("/s2")
    cache_dir = str(tmp_path / "cache")
    old = closes(RunCache(cache_dir=cache_dir, salt=f"{code_version()}/s1"))
    old.put_result(BASE_DIGEST, run_system(BASE))
    old.close()
    cache = closes(RunCache(cache_dir=cache_dir))
    assert cache.get_result(BASE_DIGEST) is None
    assert cache.stats.misses == 1 and cache.stats.corrupt == 0


# ----------------------------------------------------------------------
# ContentStore
# ----------------------------------------------------------------------
def test_store_round_trip_and_persistence(tmp_path, closes):
    root = str(tmp_path)
    store = closes(ContentStore(root))
    store.put("k1", b"hello")
    assert store.get("k1") == ("hit", b"hello")
    assert store.get("nope") == ("miss", None)
    # a fresh instance replays the index
    again = closes(ContentStore(root))
    assert again.get("k1") == ("hit", b"hello")
    assert len(again) == 1 and again.total_bytes() == 5


def test_store_deduplicates_identical_blobs(tmp_path, closes):
    """Two keys with equal bytes are two records: deleting one keeps
    the other, and gc reclaims the deleted key's bytes."""
    root = str(tmp_path)
    store = closes(ContentStore(root))
    d1, _ = store.put("k1", b"same-bytes")
    d2, _ = store.put("k2", b"same-bytes")
    assert d1 == d2
    store.delete("k1")
    assert store.get("k2") == ("hit", b"same-bytes")
    outcome = store.gc()
    assert outcome["reclaimed_bytes"] > len(b"same-bytes")
    assert [(op["key"], op["data"]) for op in pack_ops(root)] == [
        ("k2", b"same-bytes")
    ]


def test_corrupt_blob_is_quarantined_and_missed(tmp_path, closes):
    """Bytes that fail their digest are deleted, counted and missed."""
    root = str(tmp_path)
    store = closes(ContentStore(root))
    store.put("k1", b"payload")
    tamper(store, "k1")
    status, data = store.get("k1")
    assert status == "corrupt" and data is None
    assert "k1" not in store
    assert store.counters["corrupt"] == 1
    # the deletion is durable: a reload agrees
    assert closes(ContentStore(root)).get("k1") == ("miss", None)


def test_vanished_blob_counts_as_corrupt(tmp_path, closes):
    """A pack truncated under an entry yields a short read: corrupt."""
    root = str(tmp_path)
    store = closes(ContentStore(root))
    store.put("k0", b"kept")
    store.put("k1", b"payload")
    os.truncate(store.path, store._entries["k1"].offset + 3)
    assert store.get("k1") == ("corrupt", None)
    assert store.get("k0") == ("hit", b"kept")


def test_verify_quarantines_and_reports(tmp_path, closes):
    root = str(tmp_path)
    store = closes(ContentStore(root))
    store.put("good", b"aaa")
    store.put("bad", b"bbb")
    tamper(store, "bad", b"x")
    report = store.verify()
    assert report["checked"] == 2
    assert report["ok"] == 1
    assert report["corrupt"] == ["bad"]
    assert "bad" not in store
    assert store.get("good")[0] == "hit"


def test_lru_eviction_order_under_tiny_cap(tmp_path, closes):
    # Cap fits two 3-byte blobs; entries are evicted oldest-use first.
    store = closes(ContentStore(str(tmp_path), max_bytes=6))
    store.put("a", b"aa1")
    store.put("b", b"bb1")
    store.get("a")  # refresh a: b is now the LRU entry
    evicted = store.put("c", b"cc1")[1]
    assert evicted == ["b"]
    assert store.keys() == ["a", "c"]
    assert store.counters["evictions"] == 1
    # the sole remaining entry is never evicted on behalf of itself
    solo = closes(ContentStore(str(tmp_path / "solo"), max_bytes=1))
    solo.put("big", b"way-too-big")
    assert solo.keys() == ["big"]


def test_eviction_order_survives_reload(tmp_path, closes):
    root = str(tmp_path)
    store = closes(ContentStore(root, max_bytes=100))
    store.put("a", b"a" * 30)
    store.put("b", b"b" * 30)
    store.get("a")
    reloaded = closes(ContentStore(root, max_bytes=100))
    evicted = reloaded.put("c", b"c" * 60)[1]
    assert evicted == ["b"]


def test_torn_final_index_line_is_tolerated(tmp_path, closes):
    root = str(tmp_path)
    store = ContentStore(root)
    store.put("k1", b"data")
    store.close()
    with open(os.path.join(root, PACK_FILE), "ab") as f:
        f.write(b'{"op": "put", "key": "torn')
    again = closes(ContentStore(root))
    assert again.get("k1") == ("hit", b"data")


def test_pack_cut_at_every_byte_of_its_last_put(tmp_path, closes):
    """A crash inside the last put leaves a torn record, whichever byte
    it stopped at: header, blob or newline.  A reader serves exactly the
    earlier entries and leaves the bytes alone; a writer cuts the tail
    off, and its put lands whole and reloads with them."""
    root = str(tmp_path / "whole")
    store = closes(ContentStore(root))
    earlier = {"k1": b"one\nwith newlines\n", "k2": b"two"}
    for key, data in earlier.items():
        store.put(key, data)
    last = os.path.getsize(store.path)
    store.put("k3", b"three\n3")
    store.close()
    data = Path(root, PACK_FILE).read_bytes()
    for cut in range(last, len(data)):
        cdir = str(tmp_path / f"cut-{cut}")
        os.makedirs(cdir)
        Path(cdir, PACK_FILE).write_bytes(data[:cut])
        reader = ContentStore(cdir)
        assert sorted(reader.keys()) == ["k1", "k2"], cut
        assert reader.verify()["corrupt"] == [], cut
        reader.close()
        assert Path(cdir, PACK_FILE).read_bytes() == data[:cut], cut
        writer = closes(ContentStore(cdir))
        assert all(writer.get(k) == ("hit", v) for k, v in earlier.items())
        writer.put("k4", b"four")
        writer.close()
        assert [op["op"] for op in pack_ops(cdir)] == [
            "put", "put", "touch", "touch", "put"
        ], cut
        again = closes(ContentStore(cdir))
        assert sorted(again.keys()) == ["k1", "k2", "k4"], cut
        assert again.get("k4") == ("hit", b"four"), cut


def test_mid_file_index_corruption_self_heals(tmp_path, closes):
    """A garbage line between two records costs neither entry; a reader
    leaves it be, and the next writer compacts it away."""
    root = str(tmp_path)
    store = ContentStore(root)
    store.put("k1", b"one")
    boundary = os.path.getsize(store.path)
    store.put("k2", b"two")
    store.close()
    data = Path(root, PACK_FILE).read_bytes()
    damaged = data[:boundary] + b"GARBAGE-NOT-JSON\n" + data[boundary:]
    Path(root, PACK_FILE).write_bytes(damaged)
    reader = closes(ContentStore(root))
    assert sorted(reader.keys()) == ["k1", "k2"]
    reader.close()
    assert Path(root, PACK_FILE).read_bytes() == damaged
    healed = closes(ContentStore(root))
    assert healed.get("k1") == ("hit", b"one")
    assert healed.get("k2") == ("hit", b"two")
    # the pack was compacted: every record parses
    assert [op["key"] for op in pack_ops(root)] == ["k1", "k2", "k1", "k2"]


def test_gc_collects_orphans_and_compacts(tmp_path, closes):
    """gc shrinks the pack to its live records and reports the bytes."""
    root = str(tmp_path)
    store = closes(ContentStore(root))
    store.put("k1", b"keep")
    store.put("k2", b"drop")
    store.delete("k2")
    store.get("k1")
    before = os.path.getsize(store.path)
    outcome = store.gc()
    assert outcome["entries"] == 1
    assert outcome["reclaimed_bytes"] == before - os.path.getsize(store.path)
    assert [(op["op"], op["key"]) for op in pack_ops(root)] == [
        ("put", "k1")
    ]
    assert store.get("k1") == ("hit", b"keep")


def test_threads_share_one_store(tmp_path, closes):
    """Eight threads put (and read back) distinct keys into one store:
    every entry reloads whole and none fails its digest."""
    root = str(tmp_path)
    store = closes(ContentStore(root))
    errors = []

    def writer(t):
        try:
            for i in range(12):
                key = f"t{t}-{i}"
                store.put(key, key.encode() * (i + 1))
                assert store.get(key) == ("hit", key.encode() * (i + 1))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    store.close()
    again = closes(ContentStore(root))
    assert len(again) == 96
    for t in range(8):
        for i in range(12):
            key = f"t{t}-{i}"
            assert again.get(key) == ("hit", key.encode() * (i + 1))
    assert again.verify()["corrupt"] == []


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


def test_storing_an_undecoded_hit_writes_its_bytes_unchanged(tmp_path, closes):
    first = closes(RunCache(cache_dir=str(tmp_path / "a")))
    key = first.put_result(BASE_DIGEST, run_system(BASE))
    _status, stored = first.store.get(key)
    hit = first.get_result(BASE_DIGEST)
    second = closes(RunCache(cache_dir=str(tmp_path / "b")))
    second.put_result(BASE_DIGEST, hit)
    assert second.store.get(key)[1] == stored
    assert "_detail" in vars(hit)


def test_run_cache_unpicklable_blob_is_corrupt(cache):
    key = cache.put_result(BASE_DIGEST, run_system(BASE))
    entry = cache.store._entries[key]
    # digest-valid bytes that are not a pickle
    cache.store.put(key, b"not a pickle at all")
    assert cache.get_result(BASE_DIGEST) is None
    assert cache.stats.corrupt == 1
    del entry


def test_cache_stats_empty_hit_rate():
    assert CacheStats().hit_rate() is None


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


def test_run_many_cache_identity_pooled_no_torn_index(tmp_path, closes):
    configs = sweep_configs(6)
    root = str(tmp_path / "cache")
    cold = run_many(configs, 2, cache=closes(RunCache(cache_dir=root)))
    # every record written during the pooled sweep is whole
    ops = pack_ops(root)
    assert len(ops) >= 6
    assert {op["op"] for op in ops} <= {"put", "touch", "del"}
    warm_cache = closes(RunCache(cache_dir=root))
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
    try:
        cold = run_many([config], cache=cache)
        warm = run_many([config], cache=cache)
    finally:
        cache.close()
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


def _exploding_worker(config, timeout_s=None):
    raise AssertionError("cache should have served every point")


def test_campaign_warm_grid_served_without_running(tmp_path, closes):
    spec = small_spec()
    cache_dir = str(tmp_path / "cache")
    cold = run_campaign(
        str(tmp_path / "c1"),
        spec=spec,
        cache=closes(RunCache(cache_dir=cache_dir)),
    )
    # identical grid, new campaign dir, a worker that would fail loudly:
    # every point must be served from the cache.
    warm_cache = closes(RunCache(cache_dir=cache_dir))
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


def test_campaign_overlapping_grid_partially_served(tmp_path, closes):
    spec = small_spec()
    cache_dir = str(tmp_path / "cache")
    run_campaign(
        str(tmp_path / "c1"),
        spec=spec,
        cache=closes(RunCache(cache_dir=cache_dir)),
    )
    bigger = CampaignSpec.from_dict(
        {
            "name": "cache-test-wide",
            "base": CAMPAIGN_BASE,
            "grid": {"test_policy": ["power-aware", "none", "unaware"]},
            "seeds": {"start": 1, "count": 2},
        }
    )
    overlap_cache = closes(RunCache(cache_dir=cache_dir))
    report = run_campaign(
        str(tmp_path / "c2"), spec=bigger, cache=overlap_cache
    )
    # 4 of 6 points overlap the first grid
    assert overlap_cache.stats.hits == 4
    assert overlap_cache.stats.misses == 2
    plain = run_campaign(str(tmp_path / "c3"), spec=bigger)
    assert report.aggregate == plain.aggregate


def test_campaign_pooled_cache_index_owned_by_supervisor(tmp_path, closes):
    spec = small_spec()
    cache_dir = str(tmp_path / "cache")
    run_campaign(
        str(tmp_path / "c1"),
        spec=spec,
        jobs=2,
        cache=closes(RunCache(cache_dir=cache_dir)),
    )
    assert len(closes(ContentStore(cache_dir))) == 4
    assert len(pack_ops(cache_dir)) == 4


def test_overlapping_campaigns_count_their_own_cache_traffic(tmp_path, closes):
    """Two campaigns share one cache; the first-started finishes first.

    Each campaign's telemetry snapshot counts only its own cache
    traffic, and a lookup made afterwards — here a served sweep, whose
    engine registry ``/metrics`` exports — counts in its caller's
    registry, not in one a finished campaign left behind.
    """
    import asyncio

    from repro.serve import ServeEngine, SweepRequest

    cache = closes(RunCache(cache_dir=str(tmp_path / "cache")))
    a_running = threading.Event()
    b_running = threading.Event()
    a_finished = threading.Event()

    def worker_a(config, timeout_s=None):
        a_running.set()
        b_running.wait(60)
        return execute(config, timeout_s)

    def worker_b(config, timeout_s=None):
        b_running.set()
        a_finished.wait(60)
        return execute(config, timeout_s)

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


def test_cli_experiment_served_from_cache(tmp_path, capsys):
    """``repro experiment`` hands its cache to every experiment: a warm
    E2 serves all four points and renders the cold table."""
    cache_dir = str(tmp_path / "cache")
    args = ["experiment", "E2", "--horizon-us", "2000"]
    assert main(args + ["--cache-dir", cache_dir]) == 0
    cold = capsys.readouterr().out
    assert "0 hit(s), 4 miss(es)" in cold
    assert main(args + ["--cache-dir", cache_dir]) == 0
    warm = capsys.readouterr().out
    assert "4 hit(s), 0 miss(es)" in warm
    assert main(args + ["--no-cache"]) == 0
    plain = capsys.readouterr().out
    table = lambda text: text.split("cache:")[0]
    assert table(cold) == table(warm) == plain
    # An ablation shares the cache: A4's no-test baseline is E2's "none"
    # point; its abort and reserve points are new.
    assert main(
        ["experiment", "A4", "--horizon-us", "2000", "--cache-dir", cache_dir]
    ) == 0
    assert "1 hit(s), 2 miss(es)" in capsys.readouterr().out


def test_cli_experiment_pools_and_caches_every_id(tmp_path, capsys):
    """``--jobs`` and the cache reach ablations too: a warm A3 + E2 run
    serves all ten points and renders the cold tables."""
    args = [
        "experiment", "A3", "E2", "--horizon-us", "2000", "--jobs", "2",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "10 hit(s), 0 miss(es)" in warm
    table = lambda text: text.split("cache:")[0]
    assert table(cold) == table(warm)


def test_cli_cache_verify_flags_corruption(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    cache = RunCache(cache_dir=cache_dir)
    key = cache.put_result(BASE_DIGEST, run_system(BASE))
    tamper(cache.store, key)
    cache.close()
    assert main(["cache", "verify", "--cache-dir", cache_dir]) == 1
    out = capsys.readouterr().out
    assert "1 corrupt" in out and f"corrupt {key}" in out
    assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0


@pytest.mark.parametrize("command", ["gc", "clear"])
def test_cli_cache_deletes_the_old_layout(tmp_path, capsys, closes, command):
    """A directory of the blob-per-file layout reads as an empty cache,
    and ``cache gc``/``clear`` delete what that layout left."""
    cache_dir = tmp_path / "cache"
    blob = b"an old blob"
    digest = hashlib.sha256(blob).hexdigest()
    (cache_dir / "blobs" / digest[:2]).mkdir(parents=True)
    (cache_dir / "blobs" / digest[:2] / digest).write_bytes(blob)
    (cache_dir / "tmp").mkdir()
    (cache_dir / "tmp" / "index.123").write_text("staged")
    (cache_dir / "quarantine").mkdir()
    (cache_dir / "quarantine" / "bad").write_bytes(b"rot")
    (cache_dir / LEGACY_INDEX).write_text(json.dumps(
        {"op": "put", "key": "k", "blob": digest, "size": len(blob),
         "seq": 1}
    ) + "\n")
    legacy = sum(p.stat().st_size for p in cache_dir.rglob("*")
                 if p.is_file())
    assert len(closes(RunCache(cache_dir=str(cache_dir))).store) == 0
    assert main(["cache", command, "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    if command == "gc":
        assert f"reclaimed {legacy} byte(s)" in out
    for name in (LEGACY_INDEX, *LEGACY_DIRS):
        assert not (cache_dir / name).exists(), name
    assert sorted(os.listdir(cache_dir)) == [PACK_FILE]


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
    assert not os.path.exists(os.path.join(cache_dir, PACK_FILE))


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
