"""Content-addressed run cache: memoized simulation results.

Every run is a pure function of its
:class:`~repro.core.system.SystemConfig`, and PR 2/3 gave every run a
stable content digest — so re-simulating an identical (config, seed)
point is pure waste.  :class:`RunCache` turns that repeated cost into a
lookup: results are pickled into a content-addressed blob store
(:class:`~repro.cache.store.ContentStore`) keyed by the salted config
digest (:mod:`repro.cache.keys`), with durable index appends, integrity
rechecks on read (corrupt blobs are quarantined and transparently
recomputed) and LRU eviction under an optional size cap.

Integration points:

* :func:`repro.experiments.run_many` accepts ``cache=``, and so do the
  experiment runners that call it — in pooled sweeps the workers return
  results and the *supervisor* owns the cache, so there are no
  concurrent writers;
* :func:`repro.campaign.run_campaign` accepts ``cache=`` — planned
  points found in the cache are checkpointed without running, and the
  supervisor stores completed runs for the next overlapping grid;
* :class:`repro.serve.ServeEngine` serves cached points at admission
  and stores the ones it computes;
* the CLI exposes ``--cache/--no-cache/--cache-dir`` on
  ``run``/``sweep``/``experiment``/``campaign`` plus a ``repro cache
  stats|verify|gc|clear`` maintenance command.

Workers never touch the cache on any path.  Every call that counts
traffic takes the caller's :class:`~repro.telemetry.MetricsRegistry`
(``telemetry=``), so concurrent callers sharing one cache — overlapping
campaigns under ``repro serve`` — each count their own ``cache.*``
lookups.

Correctness contract: a cache hit is byte-identical to a recompute
(pickle round-trips preserve float bit patterns), so cold-vs-warm
aggregate digests match exactly — pinned by ``tests/test_cache.py``
and the ``benchmarks/bench_cache.py`` CI gate.  ``repro run`` bypasses
the cache for a journaled or verified run (counted, never served or
stored): a cached result cannot carry the events of the run it skipped.
A :class:`repro.obs.Profile` observes from outside and bypasses
nothing, so profiling a cache hit shows the cache layer's own cost.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cache.keys import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA,
    code_version,
    default_cache_dir,
    default_salt,
    run_key,
)
from repro.cache.store import ContentStore, blob_digest, write_blob
from repro.obs.provenance import config_digest
from repro.telemetry.registry import NULL_TELEMETRY, MetricsRegistry, count_run

#: Pickle protocol pinned for blob stability within one schema version.
_PICKLE_PROTOCOL = 4


@dataclass
class CacheStats:
    """Process-local counters of one :class:`RunCache` instance.

    ``hits``/``misses``/``bypasses`` describe lookups; ``puts`` counts
    stored results, ``evictions`` LRU victims and ``corrupt`` blobs
    that failed their integrity recheck (each of which also counts as a
    miss, because the caller recomputes).
    """

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt: int = 0

    def lookups(self) -> int:
        """Served lookups (hits + misses, bypasses excluded)."""
        return self.hits + self.misses

    def hit_rate(self) -> Optional[float]:
        """Fraction of served lookups that hit (None before any lookup)."""
        total = self.lookups()
        return self.hits / total if total else None

    def as_dict(self) -> Dict[str, object]:
        """Flat dict form (for JSON artifacts and the CLI)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "puts": self.puts,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "hit_rate": self.hit_rate(),
        }


class RunCache:
    """Memoized ``run_system``: config in, cached ``SimulationResult`` out.

    Lookups and stores take the config's
    :func:`~repro.obs.provenance.config_digest`, which callers derive
    once per point and reuse for the probe and the store alike.

    ``cache_dir`` defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``;
    ``max_bytes`` bounds the store with LRU eviction (``None`` =
    unbounded, collect with :meth:`gc`); ``salt`` defaults to the
    code-version salt (:func:`repro.cache.keys.default_salt`).
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_bytes: Optional[int] = None,
        salt: Optional[str] = None,
    ) -> None:
        self.cache_dir = cache_dir or default_cache_dir()
        self.salt = salt if salt is not None else default_salt()
        self.store = ContentStore(self.cache_dir, max_bytes=max_bytes)
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def key_for(self, digest: str) -> str:
        """The cache key of a config digest under this cache's salt."""
        return run_key(digest, self.salt)

    def get_result(
        self, digest: str, telemetry: Optional[MetricsRegistry] = None
    ):
        """Cached :class:`SimulationResult` under a config digest, or ``None``.

        ``digest`` is the config's
        :func:`~repro.obs.provenance.config_digest`; the lookup counts as
        ``cache.*`` counters in ``telemetry`` (the caller's registry).
        Integrity failures (blob digest mismatch, unreadable blob,
        unpicklable payload) quarantine the entry and report a miss so
        the caller transparently recomputes.
        """
        tm = NULL_TELEMETRY if telemetry is None else telemetry
        key = self.key_for(digest)
        status, data = self.store.get(key)
        if status == "corrupt":
            self.stats.corrupt += 1
            tm.counter("cache.corrupt").inc()
        if data is None:
            self.stats.misses += 1
            tm.counter("cache.misses").inc()
            return None
        try:
            result = pickle.loads(data)
        except Exception:
            # Digest-valid bytes that do not unpickle: written by an
            # incompatible writer.  Quarantine exactly like bit rot.
            self.store.delete(key, reason="corrupt")
            self.stats.corrupt += 1
            self.stats.misses += 1
            tm.counter("cache.corrupt").inc()
            tm.counter("cache.misses").inc()
            return None
        self.stats.hits += 1
        tm.counter("cache.hits").inc()
        return result

    def put_result(
        self,
        digest: str,
        result: object,
        telemetry: Optional[MetricsRegistry] = None,
    ) -> str:
        """Store the result of the config with ``digest``; returns its key.

        Counts ``cache.puts`` (and any evictions) in ``telemetry``.
        """
        tm = NULL_TELEMETRY if telemetry is None else telemetry
        key = self.key_for(digest)
        data = pickle.dumps(result, protocol=_PICKLE_PROTOCOL)
        _digest, evicted = self.store.put(key, data)
        self.stats.puts += 1
        tm.counter("cache.puts").inc()
        for victim in evicted:
            self.stats.evictions += 1
            tm.counter("cache.evictions").inc()
        return key

    def note_bypass(
        self, telemetry: Optional[MetricsRegistry] = None
    ) -> None:
        """Count one lookup that was deliberately not served."""
        tm = NULL_TELEMETRY if telemetry is None else telemetry
        self.stats.bypasses += 1
        tm.counter("cache.bypasses").inc()

    def get_or_run(
        self, config: object, telemetry: Optional[MetricsRegistry] = None
    ) -> Tuple[object, bool]:
        """Serve ``config`` from cache or run it; returns (result, hit).

        ``telemetry`` receives the cache counters and, on a miss, the
        run's counts (:func:`repro.telemetry.count_run`).
        """
        from repro.core.system import run_system

        digest = config_digest(config)
        cached = self.get_result(digest, telemetry)
        if cached is not None:
            return cached, True
        result = run_system(config)
        count_run(telemetry, result)
        self.put_result(digest, result, telemetry)
        return result, False

    def close(self) -> None:
        """Close the index handle (the cache stays usable; it reopens)."""
        self.store.close()

    # ------------------------------------------------------------------
    # Maintenance passthrough
    # ------------------------------------------------------------------
    def verify(self) -> Dict[str, object]:
        """Re-hash every blob, quarantining failures (see store)."""
        return self.store.verify()

    def gc(self, max_bytes: Optional[int] = None) -> Dict[str, object]:
        """Evict to a cap, drop orphans, compact the index (see store)."""
        return self.store.gc(max_bytes=max_bytes)

    def clear(self) -> int:
        """Delete every cached result; returns how many entries died."""
        return self.store.clear()

    def stats_dict(self) -> Dict[str, object]:
        """Merged process-local and on-disk stats (for the CLI/bench)."""
        return {
            "cache_dir": self.cache_dir,
            "salt": self.salt,
            **self.store.stats(),
            "session": self.stats.as_dict(),
        }


__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA",
    "CacheStats",
    "ContentStore",
    "RunCache",
    "blob_digest",
    "code_version",
    "default_cache_dir",
    "default_salt",
    "run_key",
    "write_blob",
]
