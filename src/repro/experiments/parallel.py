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
process-wide journal is active the whole call is *bypassed* (counted
per config on the cache's stats): a cached result cannot carry the
journal of the run it skipped.  A :class:`repro.obs.Profile` around
the call does not bypass: it observes from outside, so profiling a
cache hit shows the cache's own cost.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, List, Optional

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


def _resolve_cache(cache, n_configs: int):
    """Effective cache for one call: explicit arg, else process default.

    Returns ``None`` (and notes a bypass per config) when a journal is
    active: serving a memoized result would silently drop the journal
    the caller asked for, and storing an observed run would be
    redundant work.
    """
    if cache is None:
        from repro.cache import active_cache

        cache = active_cache()
    if cache is None:
        return None
    from repro.obs import active_journal

    if active_journal().enabled:
        cache.note_bypass(n_configs, reason="observability enabled")
        return None
    return cache


def _run_indexed(
    config_list: List[SystemConfig],
    indices: List[int],
    jobs: Optional[int],
    ctx: Optional[SpanContext] = None,
    on_blob=None,
) -> List[SimulationResult]:
    """Run the configs at ``indices``; failures keep original indices.

    With ``ctx`` set, every run (serial or pooled alike) executes under
    a worker telemetry scope and its blob is handed to ``on_blob`` —
    the serial path uses the same collect-then-merge semantics as the
    pool, which is what makes serial and pooled snapshots identical.
    """
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
) -> List[SimulationResult]:
    """Run every config, optionally across ``jobs`` worker processes.

    ``jobs=None`` (or ``0``/``1``) runs serially in-process.  Results are
    returned in the order of ``configs`` and are identical to a serial
    run: each simulation is deterministic given its config, and the
    pooled path reassembles results by original index.

    ``cache`` (a :class:`repro.cache.RunCache`; defaults to the process
    default, if any) memoizes results by salted config digest — hits
    are served without running, misses are computed (pooled if asked)
    and stored by the supervisor.  Results are identical with the
    cache on, off, warm or cold.

    Raises :class:`RunFailed` (with the failing config's index and
    digest) if any run fails; nothing is cached for a failing sweep.
    A nonsensical ``jobs`` fails fast, before any work starts: a non-int
    (including a bool) raises :class:`TypeError`, a negative one raises
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
            fresh = _run_indexed(config_list, miss_indices, jobs, ctx, on_blob)
            for index, result in zip(miss_indices, fresh):
                cache.put_result(digests[index], result)
                results[index] = result
        return results  # type: ignore[return-value]
    finally:
        if prev_cache_tm is not None:
            cache.telemetry = prev_cache_tm
        if session is not None:
            session.finish(n_configs=len(config_list))
