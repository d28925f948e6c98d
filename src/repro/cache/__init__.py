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

* :func:`repro.experiments.run_many` accepts ``cache=`` (and falls back
  to the process default installed by :func:`set_default_cache`) — in
  pooled sweeps the workers return results and the *supervisor* owns
  the index, so there are no concurrent index writers;
* :func:`repro.campaign.run_campaign` accepts ``cache=`` — planned
  points found in the cache are checkpointed without running, and
  completed runs deposit blobs for the next overlapping grid;
* the CLI exposes ``--cache/--no-cache/--cache-dir`` on
  ``run``/``sweep``/``experiment``/``campaign`` plus a ``repro cache
  stats|verify|gc|clear`` maintenance command.

Correctness contract: a cache hit is byte-identical to a recompute
(pickle round-trips preserve float bit patterns), so cold-vs-warm
aggregate digests match exactly — pinned by ``tests/test_cache.py``
and the ``benchmarks/bench_cache.py`` CI gate.  Runs under an enabled
journal or invariant checker are *bypassed* (counted, never served or
stored): a cached result cannot carry the events of the run it skipped.
A :class:`repro.obs.Profile` observes from outside and bypasses
nothing, so profiling a cache hit shows the cache layer's own cost.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.cache.keys import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA,
    code_version,
    default_cache_dir,
    default_salt,
    run_key,
)
from repro.cache.store import ContentStore, blob_digest, write_blob
from repro.obs.journal import NULL_JOURNAL, Journal
from repro.obs.provenance import config_digest
from repro.telemetry.registry import NULL_TELEMETRY, MetricsRegistry

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


@dataclass(frozen=True)
class CachePlan:
    """Picklable recipe for depositing blobs from worker processes.

    Workers must not touch the index (single-writer invariant), but
    they *can* safely deposit content-addressed blob files.  A plan is
    just (directory, salt); the supervisor adopts the resulting entries
    into the index via :meth:`RunCache.adopt`.
    """

    cache_dir: str
    salt: str


def store_result_blob(
    plan: CachePlan, digest: str, result: object
) -> Dict[str, object]:
    """Deposit one run result as a blob per ``plan`` (worker-side).

    ``digest`` is the run's config digest.  Returns the pending index
    entry ``{"key", "blob", "size"}`` for the supervisor to adopt.
    Touches only the blob area — never the index.
    """
    data = pickle.dumps(result, protocol=_PICKLE_PROTOCOL)
    blob, size = write_blob(plan.cache_dir, data)
    return {
        "key": run_key(digest, plan.salt),
        "blob": blob,
        "size": size,
    }


class RunCache:
    """Memoized ``run_system``: config in, cached ``SimulationResult`` out.

    Lookups and stores take the config's
    :func:`~repro.obs.provenance.config_digest`, which callers derive
    once per point and reuse for the probe and the store alike.

    ``cache_dir`` defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``;
    ``max_bytes`` bounds the store with LRU eviction (``None`` =
    unbounded, collect with :meth:`gc`); ``salt`` defaults to the
    code-version salt (:func:`repro.cache.keys.default_salt`);
    ``journal`` receives ``cache.*`` events (hit/miss/bypass/put/evict/
    corrupt, at ``t=0`` — cache traffic has no simulation time).
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_bytes: Optional[int] = None,
        salt: Optional[str] = None,
        journal: Optional[Journal] = None,
    ) -> None:
        self.cache_dir = cache_dir or default_cache_dir()
        self.salt = salt if salt is not None else default_salt()
        self.store = ContentStore(self.cache_dir, max_bytes=max_bytes)
        self.stats = CacheStats()
        self.journal = journal if journal is not None else NULL_JOURNAL
        self.telemetry = NULL_TELEMETRY

    # ------------------------------------------------------------------
    def bind_telemetry(self, registry: MetricsRegistry) -> None:
        """Mirror cache traffic into ``cache.*`` counters of ``registry``.

        Campaign/sweep supervisors bind their local registry here; the
        default stays the null sink so plain cache use costs nothing.
        """
        self.telemetry = registry

    def _emit(self, kind: str, **data: object) -> None:
        if self.journal.enabled:
            self.journal.emit(f"cache.{kind}", 0.0, **data)

    def _count(self, kind: str, n: int = 1) -> None:
        self.telemetry.counter(f"cache.{kind}").inc(n)

    def key_for(self, digest: str) -> str:
        """The cache key of a config digest under this cache's salt."""
        return run_key(digest, self.salt)

    def get_result(self, digest: str):
        """Cached :class:`SimulationResult` under a config digest, or ``None``.

        ``digest`` is the config's
        :func:`~repro.obs.provenance.config_digest`.  Integrity failures
        (blob digest mismatch, unreadable blob, unpicklable payload)
        quarantine the entry and report a miss so the caller
        transparently recomputes.
        """
        key = self.key_for(digest)
        status, data = self.store.get(key)
        if status == "corrupt":
            self.stats.corrupt += 1
            self._emit("corrupt", key=key)
            self._count("corrupt")
        if data is None:
            self.stats.misses += 1
            self._emit("miss", key=key)
            self._count("misses")
            return None
        try:
            result = pickle.loads(data)
        except Exception:
            # Digest-valid bytes that do not unpickle: written by an
            # incompatible writer.  Quarantine exactly like bit rot.
            self.store.delete(key, reason="corrupt")
            self.stats.corrupt += 1
            self.stats.misses += 1
            self._emit("corrupt", key=key)
            self._count("corrupt")
            self._count("misses")
            return None
        self.stats.hits += 1
        self._emit("hit", key=key)
        self._count("hits")
        return result

    def put_result(self, digest: str, result: object) -> str:
        """Store the result of the config with ``digest``; returns its key."""
        key = self.key_for(digest)
        data = pickle.dumps(result, protocol=_PICKLE_PROTOCOL)
        _digest, evicted = self.store.put(key, data)
        self.stats.puts += 1
        self._note_evicted(evicted)
        self._emit("put", key=key, size=len(data))
        self._count("puts")
        return key

    def adopt(self, key: str, blob: str, size: int) -> None:
        """Index a worker-deposited blob (see :class:`CachePlan`)."""
        evicted = self.store.adopt(key, blob, size)
        self.stats.puts += 1
        self._note_evicted(evicted)
        self._emit("put", key=key, size=size)
        self._count("puts")

    def _note_evicted(self, evicted) -> None:
        for key in evicted:
            self.stats.evictions += 1
            self._emit("evict", key=key)
            self._count("evictions")

    def note_bypass(self, n: int = 1, reason: str = "") -> None:
        """Count ``n`` lookups that were deliberately not served."""
        self.stats.bypasses += n
        self._emit("bypass", n=n, reason=reason)
        self._count("bypasses", n)

    def get_or_run(
        self, config: object, runner: Optional[Callable] = None
    ) -> Tuple[object, bool]:
        """Serve ``config`` from cache or run it; returns (result, hit)."""
        digest = config_digest(config)
        cached = self.get_result(digest)
        if cached is not None:
            return cached, True
        if runner is None:
            from repro.core.system import run_system as runner
        result = runner(config)
        self.put_result(digest, result)
        return result, False

    # ------------------------------------------------------------------
    # Maintenance passthrough
    # ------------------------------------------------------------------
    def plan(self) -> CachePlan:
        """The picklable :class:`CachePlan` for this cache's workers."""
        return CachePlan(cache_dir=self.cache_dir, salt=self.salt)

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


# ----------------------------------------------------------------------
# Process-wide default (mirrors repro.obs.configure): lets the CLI turn
# caching on for experiment runners without threading a parameter
# through every runner signature.
# ----------------------------------------------------------------------
_active_cache: Optional[RunCache] = None


def set_default_cache(cache: Optional[RunCache]) -> None:
    """Install (or with ``None`` remove) the process-wide default cache.

    ``repro.experiments.run_many`` consults it when no explicit
    ``cache=`` is passed.  The default does **not** propagate into pool
    worker processes — workers always compute; only the supervisor
    consults and owns the cache.
    """
    global _active_cache
    _active_cache = cache


def active_cache() -> Optional[RunCache]:
    """The process-wide default cache (``None`` unless installed)."""
    return _active_cache


__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA",
    "CachePlan",
    "CacheStats",
    "ContentStore",
    "RunCache",
    "active_cache",
    "blob_digest",
    "code_version",
    "default_cache_dir",
    "default_salt",
    "run_key",
    "set_default_cache",
    "store_result_blob",
    "write_blob",
]
