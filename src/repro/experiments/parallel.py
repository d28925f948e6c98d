"""Parallel execution of independent simulation runs.

Experiment runners and the statistics harness evaluate many independent
(configuration × seed) points: every run is a pure function of its
:class:`~repro.core.system.SystemConfig` (all randomness flows from the
config's seed through per-run RNG streams).  That makes the sweep
embarrassingly parallel *and* order-independent: executing the same
configs serially or across a process pool must — and does — produce
byte-identical :class:`~repro.core.system.SimulationResult` data.

:func:`run_many` is the single entry point.  ``jobs=None``/``0``/``1``
falls back to the plain serial loop (no pool, no pickling), so callers
can thread a ``--jobs`` flag straight through without special-casing.
Results always come back in input order regardless of completion order.
``batch_size=`` additionally routes seed-replica groups through the
lockstep batch engine (``repro.batch``), one whole seed-chunk per
worker dispatch — the batched results are digest-identical to scalar
runs, so the choice is purely a throughput knob.

A failing run raises :class:`RunFailed` carrying the index and config
digest of the offender, in both the serial and the pooled path — a bare
exception out of a pool gives no clue *which* of 64 configs died.
``run_many`` remains all-or-nothing (a sweep with holes is not a
sweep); batch workloads that must survive failures and keep partial
results belong to ``repro.campaign``.

**Memoization.**  ``cache=`` (a :class:`repro.cache.RunCache`, or the
process default installed by :func:`repro.cache.set_default_cache`)
serves previously-computed points without re-running them: the
supervisor probes the cache for every config, dispatches only the
misses (serially or to the pool — workers return results and never
touch the cache), then stores the fresh results itself, so the index
has exactly one writer.  Cached results are pickle round-trips of the
originals, so a warm sweep is byte-identical to a cold one.  When a
process-wide journal/profiler is active the whole call is *bypassed*
(counted per config on the cache's stats): a cached result cannot
carry the observability stream of the run it skipped.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.batch import run_batch
from repro.core.system import SimulationResult, SystemConfig, run_system
from repro.obs.provenance import config_digest
from repro.telemetry import (
    TelemetrySession,
    active_telemetry,
    worker_telemetry,
)
from repro.telemetry.spans import SpanContext


class RunFailed(RuntimeError):
    """One run of a sweep failed; identifies exactly which one."""

    def __init__(self, index: int, digest: str, error: str) -> None:
        super().__init__(
            f"run {index} (config digest {digest[:12]}) failed: {error}"
        )
        self.index = index
        self.digest = digest
        self.error = error


def _run_one(payload):
    """Module-level worker so it is picklable by the process pool.

    Never raises: an exception would poison ``pool.map`` mid-iteration
    and surface with no attribution.  Failures come back as tagged
    tuples and are re-raised, attributed, by the parent.

    ``payload`` is ``(index, config)`` — with a trailing
    :class:`~repro.telemetry.spans.SpanContext` when the sweep collects
    telemetry, in which case an ok-outcome grows a trailing telemetry
    blob for the supervisor to merge.
    """
    index, config = payload[0], payload[1]
    ctx: Optional[SpanContext] = payload[2] if len(payload) > 2 else None
    try:
        with worker_telemetry(ctx, str(index), "sweep.run") as scope:
            result = run_system(config)
        if scope is not None:
            return ("ok", index, result, scope.blob())
        return ("ok", index, result)
    except Exception as exc:
        return (
            "err",
            index,
            config_digest(config),
            f"{type(exc).__name__}: {exc}",
        )


def _run_chunk(payload):
    """Module-level batched worker (picklable); mirrors :func:`_run_one`.

    Runs one seed-chunk through the lockstep batch engine and returns the
    per-seed results together with the original sweep indices, so the
    parent can slot them into place no matter in which order the pool's
    futures complete.
    """
    indices, config, seeds = payload[0], payload[1], payload[2]
    ctx: Optional[SpanContext] = payload[3] if len(payload) > 3 else None
    try:
        with worker_telemetry(ctx, str(indices[0]), "sweep.chunk") as scope:
            results = run_batch(config, seeds)
        if scope is not None:
            return ("ok", indices, results, scope.blob())
        return ("ok", indices, results)
    except Exception as exc:
        return (
            "err",
            indices,
            config_digest(replace(config, seed=seeds[0])),
            f"{type(exc).__name__}: {exc}",
        )


def _seed_chunks(
    config_list: List[SystemConfig],
    indices: List[int],
    batch_size: int,
) -> List[List[int]]:
    """Partition ``indices`` into lockstep-compatible seed chunks.

    Configs are grouped by everything-but-seed (the digest of the config
    with its seed pinned) and each group is chunked, in input order, into
    runs of at most ``batch_size`` — only seed-replicas of the *same*
    config may share a lockstep batch.  Heterogeneous sweeps degrade
    gracefully to one-lane chunks.
    """
    groups: Dict[str, List[int]] = {}
    order: List[str] = []
    for index in indices:
        key = config_digest(replace(config_list[index], seed=0))
        members = groups.get(key)
        if members is None:
            groups[key] = members = []
            order.append(key)
        members.append(index)
    chunks: List[List[int]] = []
    for key in order:
        members = groups[key]
        for start in range(0, len(members), batch_size):
            chunks.append(members[start : start + batch_size])
    return chunks


def _run_batched(
    config_list: List[SystemConfig],
    indices: List[int],
    jobs: Optional[int],
    batch_size: int,
    ctx: Optional[SpanContext] = None,
    on_blob=None,
) -> List[SimulationResult]:
    """Run the configs at ``indices`` as lockstep seed-chunks.

    Results come back in ``indices`` order regardless of pool completion
    order: every chunk carries its original indices, the supervisor slots
    completed chunks into a dense table, and error attribution is
    deterministic too (the failing chunk with the smallest leading index
    wins when several fail at once).
    """
    chunks = _seed_chunks(config_list, indices, batch_size)
    by_index: Dict[int, SimulationResult] = {}
    if not jobs or jobs == 1 or len(chunks) <= 1:
        for chunk in chunks:
            config = config_list[chunk[0]]
            seeds = [config_list[i].seed for i in chunk]
            try:
                with worker_telemetry(
                    ctx, str(chunk[0]), "sweep.chunk"
                ) as scope:
                    chunk_results = run_batch(config, seeds)
            except Exception as exc:
                raise RunFailed(
                    chunk[0],
                    config_digest(config),
                    f"{type(exc).__name__}: {exc}",
                ) from exc
            if scope is not None and on_blob is not None:
                on_blob(scope.blob())
            by_index.update(zip(chunk, chunk_results))
        return [by_index[i] for i in indices]
    payloads = [
        (chunk, config_list[chunk[0]], [config_list[i].seed for i in chunk])
        + ((ctx,) if ctx is not None else ())
        for chunk in chunks
    ]
    workers = min(jobs, len(payloads))
    failures: List[Tuple[int, str, str]] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_chunk, payload) for payload in payloads]
        for future in as_completed(futures):
            outcome = future.result()
            if outcome[0] == "err":
                failures.append((outcome[1][0], outcome[2], outcome[3]))
            else:
                by_index.update(zip(outcome[1], outcome[2]))
                if len(outcome) > 3 and on_blob is not None:
                    on_blob(outcome[3])
    if failures:
        index, digest, error = min(failures)
        raise RunFailed(index, digest, error)
    return [by_index[i] for i in indices]


def _resolve_cache(cache, n_configs: int):
    """Effective cache for one call: explicit arg, else process default.

    Returns ``None`` (and notes a bypass per config) when observability
    is active: serving a memoized result would silently drop the
    journal/profile stream the caller asked for, and storing an
    observed run would be redundant work.
    """
    if cache is None:
        from repro.cache import active_cache

        cache = active_cache()
    if cache is None:
        return None
    from repro.obs import active_journal, active_profiler

    if active_journal().enabled or active_profiler().enabled:
        cache.note_bypass(n_configs, reason="observability enabled")
        return None
    return cache


def _run_indexed(
    config_list: List[SystemConfig],
    indices: List[int],
    jobs: Optional[int],
    batch_size: Optional[int] = None,
    ctx: Optional[SpanContext] = None,
    on_blob=None,
) -> List[SimulationResult]:
    """Run the configs at ``indices``; failures keep original indices.

    With ``ctx`` set, every run (serial or pooled alike) executes under
    a worker telemetry scope and its blob is handed to ``on_blob`` —
    the serial path uses the same collect-then-merge semantics as the
    pool, which is what makes serial and pooled snapshots identical.
    """
    if batch_size is not None:
        return _run_batched(config_list, indices, jobs, batch_size, ctx, on_blob)
    if not jobs or jobs == 1 or len(indices) <= 1:
        results = []
        for index in indices:
            try:
                with worker_telemetry(ctx, str(index), "sweep.run") as scope:
                    results.append(run_system(config_list[index]))
            except Exception as exc:
                raise RunFailed(
                    index,
                    config_digest(config_list[index]),
                    f"{type(exc).__name__}: {exc}",
                ) from exc
            if scope is not None and on_blob is not None:
                on_blob(scope.blob())
        return results
    workers = min(jobs, len(indices))
    payloads = [
        (index, config_list[index]) + ((ctx,) if ctx is not None else ())
        for index in indices
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(_run_one, payloads))
    for outcome in outcomes:
        if outcome[0] == "err":
            raise RunFailed(outcome[1], outcome[2], outcome[3])
        if len(outcome) > 3 and on_blob is not None:
            on_blob(outcome[3])
    return [outcome[2] for outcome in outcomes]


def run_many(
    configs: Iterable[SystemConfig],
    jobs: Optional[int] = None,
    cache=None,
    batch_size: Optional[int] = None,
) -> List[SimulationResult]:
    """Run every config, optionally across ``jobs`` worker processes.

    ``jobs=None`` (or ``0``/``1``) runs serially in-process.  Results are
    returned in the order of ``configs`` and are identical to a serial
    run: each simulation is deterministic given its config, and both
    pooled paths reassemble results by original index.

    ``batch_size`` (``None`` disables) routes the runs through the
    lockstep batch engine (:func:`repro.batch.run_batch`): configs that
    differ only in seed are grouped into chunks of at most
    ``batch_size`` lanes, and with ``jobs`` each worker process advances
    one whole chunk.  Chunk futures complete in whatever order the pool
    likes; ordering stays deterministic because every chunk carries its
    original sweep indices.  Batched results are digest-identical to
    scalar runs (that is the batch engine's contract), so serial, pooled
    and batched sweeps all produce the same rows.

    ``cache`` (a :class:`repro.cache.RunCache`; defaults to the process
    default, if any) memoizes results by salted config digest — hits
    are served without running, misses are computed (pooled/batched if
    asked) and stored by the supervisor.  Results are identical with the
    cache on, off, warm or cold.

    Raises :class:`RunFailed` (with the failing config's index and
    digest) if any run fails; nothing is cached for a failing sweep.
    For a batched sweep the failure is attributed to the failing chunk's
    first config, deterministically (smallest index wins across chunks).
    Nonsensical execution knobs fail fast, before any work starts:
    non-int ``jobs``/``batch_size`` (including bools) raise
    :class:`TypeError`, negative ``jobs`` and ``batch_size < 1`` raise
    :class:`ValueError`.
    """
    config_list = list(configs)
    if jobs is not None:
        if isinstance(jobs, bool) or not isinstance(jobs, int):
            raise TypeError(
                f"jobs must be an int or None, got "
                f"{type(jobs).__name__} ({jobs!r})"
            )
        if jobs < 0:
            raise ValueError(
                f"jobs must be non-negative (0 or 1 means serial), "
                f"got {jobs}"
            )
    if batch_size is not None:
        if isinstance(batch_size, bool) or not isinstance(batch_size, int):
            raise TypeError(
                f"batch_size must be an int or None, got "
                f"{type(batch_size).__name__} ({batch_size!r})"
            )
        if batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1 (None disables batching), "
                f"got {batch_size}"
            )
    cache = _resolve_cache(cache, len(config_list))
    # Telemetry: with a process-active registry, the sweep becomes one
    # session — workers (or serial worker scopes) collect deltas, the
    # supervisor merges them here.  Cache hits are *not* simulated, so
    # they contribute cache.* counters but no sim.* ones.
    tm = active_telemetry()
    session: Optional[TelemetrySession] = None
    ctx: Optional[SpanContext] = None
    on_blob = None
    prev_cache_tm = None
    if tm.enabled:
        session = TelemetrySession(
            "sweep", registry=tm, attrs={"n_configs": len(config_list)}
        )
        ctx = session.ctx
        on_blob = session.merge_blob
        if cache is not None:
            prev_cache_tm = cache.telemetry
            cache.bind_telemetry(tm)
    try:
        if cache is None:
            return _run_indexed(
                config_list,
                list(range(len(config_list))),
                jobs,
                batch_size,
                ctx,
                on_blob,
            )
        results: List[Optional[SimulationResult]] = [None] * len(config_list)
        # One digest per config, shared by the probe and the store.
        digests = [config_digest(config) for config in config_list]
        miss_indices: List[int] = []
        for index, digest in enumerate(digests):
            cached = cache.get_result(digest)
            if cached is not None:
                results[index] = cached
            else:
                miss_indices.append(index)
        if miss_indices:
            fresh = _run_indexed(
                config_list, miss_indices, jobs, batch_size, ctx, on_blob
            )
            for index, result in zip(miss_indices, fresh):
                cache.put_result(digests[index], result)
                results[index] = result
        return results  # type: ignore[return-value]
    finally:
        if prev_cache_tm is not None:
            cache.telemetry = prev_cache_tm
        if session is not None:
            session.finish(n_configs=len(config_list))
