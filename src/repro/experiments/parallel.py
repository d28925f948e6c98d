"""The point executor: one worker, one outcome type, one process pool.

Sweeps, campaigns, ``repro serve`` and DSE all evaluate independent
(configuration × seed) points: every run is a pure function of its
:class:`~repro.core.system.SystemConfig` (all randomness flows from the
config's seed through per-run RNG streams).  That makes the work
embarrassingly parallel *and* order-independent: executing the same
configs serially or across a process pool must — and does — produce
byte-identical :class:`~repro.core.system.SimulationResult` data.

Every entry path runs its points through the same three pieces:

* :func:`execute` runs one point and never raises;
* :class:`Outcome` carries its result or its error string, plus the
  worker's telemetry blob — the caller knows which point it sent and
  attributes failures itself;
* :class:`WorkerPool` is the only process pool.  Its workers start from
  a forkserver (spawn where there is none) with this module preloaded,
  so a worker inherits none of the caller's threads, sockets or signal
  wake-up fd, and a new pool does not re-import ``repro``.  A broken or
  wedged pool is rebuilt once per generation, however many callers
  report it.

The callers keep their own policies: :func:`run_many` is all-or-nothing
(a sweep with holes is not a sweep; a failing run raises
:class:`RunFailed` naming the index and config digest of the offender),
:class:`repro.campaign.RobustExecutor` retries, times out and
quarantines, and :class:`repro.serve.ServeEngine` admits asynchronously.
``jobs=None``/``0``/``1`` runs in-process without a pool or pickling,
so callers can thread a ``--jobs`` flag straight through.

**Memoization.**  ``run_many(cache=)`` (a :class:`repro.cache.RunCache`,
or the process default installed by :func:`repro.cache.set_default_cache`)
serves previously-computed points without re-running them: the
supervisor probes the cache for every config, dispatches only the
misses, then stores the fresh results itself — workers never touch the
cache, so the index has exactly one writer.  Cached results are pickle
round-trips of the originals, so a warm sweep is byte-identical to a
cold one.  When a process-wide journal is active the whole call is
*bypassed* (counted per config on the cache's stats): a cached result
cannot carry the journal of the run it skipped.  A
:class:`repro.obs.Profile` around the call does not bypass: it observes
from outside, so profiling a cache hit shows the cache's own cost.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing import forkserver
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.system import SimulationResult, SystemConfig, run_system
from repro.obs.provenance import config_digest
from repro.platform.coretypes import CORE_TYPES, registered_core_types
from repro.telemetry import (
    TelemetrySession,
    active_telemetry,
    worker_telemetry,
)
from repro.telemetry.spans import SpanContext

#: What :func:`execute` opens a worker span under: the parent context,
#: the point's slot (unique among its siblings) and the span name.
WorkSpan = Tuple[SpanContext, str, str]


class RunFailed(RuntimeError):
    """One run of a sweep failed; identifies exactly which one."""

    def __init__(self, index: int, digest: str, error: str) -> None:
        super().__init__(
            f"run {index} (config digest {digest[:12]}) failed: {error}"
        )
        self.index = index
        self.digest = digest
        self.error = error


@dataclass(frozen=True)
class Outcome:
    """One executed point: its result or its error, plus telemetry.

    Exactly one of ``result`` and ``error`` is set.  ``telemetry`` is the
    worker's blob (see :func:`repro.telemetry.worker_telemetry`) when a
    point ran to completion under a span, else ``None``.
    """

    result: Optional[SimulationResult] = None
    error: Optional[str] = None
    telemetry: Optional[Dict[str, object]] = None


class _PointTimeout(Exception):
    """Raised inside :func:`execute` when the per-run alarm fires."""


def _alarm_handler(signum, frame):  # pragma: no cover - fires in workers
    raise _PointTimeout()


def _run(config: SystemConfig, timeout_s, telemetry) -> SimulationResult:
    """``run_system``, under a ``SIGALRM`` timeout where one can fire."""
    if (
        not timeout_s
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return run_system(config, telemetry=telemetry)
    old = signal.signal(signal.SIGALRM, _alarm_handler)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return run_system(config, telemetry=telemetry)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def execute(
    config: SystemConfig,
    timeout_s: Optional[float] = None,
    span: Optional[WorkSpan] = None,
) -> Outcome:
    """Run one point; never raises (module-level, so pools can pickle it).

    ``timeout_s`` bounds the run with ``SIGALRM`` where the platform has
    it and the call is on the main thread (always true in a pool
    worker).  With ``span`` the run executes under
    :func:`~repro.telemetry.worker_telemetry`, whose registry is handed
    to ``run_system`` and whose blob comes back in the outcome.
    """
    ctx, slot, name = span if span is not None else (None, "", "")
    try:
        with worker_telemetry(ctx, slot, name) as scope:
            result = _run(
                config, timeout_s, scope.registry if scope else None
            )
    except _PointTimeout:
        return Outcome(error=f"Timeout: run exceeded {timeout_s:g}s")
    except Exception as exc:
        return Outcome(error=f"{type(exc).__name__}: {exc}")
    return Outcome(result=result, telemetry=scope.blob() if scope else None)


def _with_core_types(core_types, fn, *args):
    """``fn(*args)`` in a worker that knows the caller's core types."""
    CORE_TYPES.update(core_types)
    return fn(*args)


class WorkerPool:
    """A process pool of ``jobs`` workers that rebuilds itself when broken.

    Callers read :attr:`generation` before they :meth:`submit`; when a
    future of that generation fails with ``BrokenProcessPool``, or a
    worker wedges, they call :meth:`rebuild` with it.  The first such
    call replaces the pool and the rest are no-ops, so concurrent
    callers reporting one failure cost one rebuild.

    A worker is not a fork of the caller, so it inherits none of the
    caller's run-time state.  The core types added with
    :func:`~repro.platform.coretypes.register_core_type` travel with
    every submitted call; nothing else does (a monkeypatch, a module
    global set after import).
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.generation = 0
        self._lock = threading.Lock()
        self._executor = self._start()

    def _start(self) -> ProcessPoolExecutor:
        """A fresh pool whose workers fork from the preloaded forkserver.

        The forkserver starts once per process (here, on the first
        pool), so it imports this module while the caller sets up.
        """
        try:
            ctx = multiprocessing.get_context("forkserver")
        except ValueError:  # pragma: no cover - platform without forkserver
            ctx = multiprocessing.get_context("spawn")
        else:
            ctx.set_forkserver_preload([__name__])
            forkserver.ensure_running()
        return ProcessPoolExecutor(max_workers=self.jobs, mp_context=ctx)

    def submit(self, fn, *args) -> Future:
        """Run ``fn(*args)`` on a worker (``BrokenProcessPool`` if broken).

        The worker first adds to its catalog the core types the caller
        had registered by the time of this call.
        """
        return self._executor.submit(
            _with_core_types, registered_core_types(), fn, *args
        )

    def rebuild(self, generation: int) -> bool:
        """Replace the pool if it is still at ``generation``.

        Returns True when this call did the replacing.  The old pool's
        queued work is cancelled; its running work is abandoned.
        """
        with self._lock:
            if generation != self.generation:
                return False
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = self._start()
            self.generation += 1
            return True

    def shutdown(
        self, wait: bool = True, *, cancel_futures: bool = False
    ) -> None:
        """Stop the pool, as :meth:`concurrent.futures.Executor.shutdown`.

        ``wait=True`` joins the workers, which hangs on a wedged one.
        """
        self._executor.shutdown(wait=wait, cancel_futures=cancel_futures)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Wait for the workers only after a clean exit: all work is done.
        self.shutdown(wait=exc_type is None, cancel_futures=True)


def _resolve_cache(cache, n_configs: int, telemetry):
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
        cache.note_bypass(
            n_configs, reason="observability enabled", telemetry=telemetry
        )
        return None
    return cache


def _run_indexed(
    config_list: List[SystemConfig],
    indices: List[int],
    jobs: Optional[int],
    session: Optional[TelemetrySession],
) -> List[SimulationResult]:
    """Run the configs at ``indices``; failures keep original indices.

    With a ``session``, every run (serial or pooled alike) executes
    under a worker span and its blob is merged into the session — the
    serial path uses the same collect-then-merge semantics as the pool,
    which is what makes serial and pooled snapshots identical.
    """
    ctx = session.ctx if session is not None else None
    work = [
        (
            config_list[index],
            None,
            (ctx, str(index), "sweep.run") if ctx is not None else None,
        )
        for index in indices
    ]
    if not jobs or jobs == 1 or len(indices) <= 1:
        # Lazy: a failing run stops the sweep before the next one runs.
        outcomes: Iterable[Outcome] = (execute(*args) for args in work)
    else:
        with WorkerPool(min(jobs, len(indices))) as pool:
            futures = [pool.submit(execute, *args) for args in work]
            outcomes = [future.result() for future in futures]
    results = []
    for index, outcome in zip(indices, outcomes):
        if outcome.error is not None:
            raise RunFailed(
                index, config_digest(config_list[index]), outcome.error
            )
        if session is not None:
            session.merge_blob(outcome.telemetry)
        results.append(outcome.result)
    return results


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
    # Telemetry: with a process-active registry, the sweep becomes one
    # session — every run collects a delta under a worker span, the
    # supervisor merges them here.  Cache hits are *not* simulated, so
    # they contribute cache.* counters but no sim.* ones.
    tm = active_telemetry()
    cache = _resolve_cache(cache, len(config_list), tm)
    session: Optional[TelemetrySession] = None
    if tm.enabled:
        session = TelemetrySession(
            "sweep", registry=tm, attrs={"n_configs": len(config_list)}
        )
    try:
        if cache is None:
            return _run_indexed(
                config_list, list(range(len(config_list))), jobs, session
            )
        results: List[Optional[SimulationResult]] = [None] * len(config_list)
        # One digest per config, shared by the probe and the store.
        digests = [config_digest(config) for config in config_list]
        miss_indices: List[int] = []
        for index, digest in enumerate(digests):
            cached = cache.get_result(digest, tm)
            if cached is not None:
                results[index] = cached
            else:
                miss_indices.append(index)
        if miss_indices:
            fresh = _run_indexed(config_list, miss_indices, jobs, session)
            for index, result in zip(miss_indices, fresh):
                cache.put_result(digests[index], result, tm)
                results[index] = result
        return results  # type: ignore[return-value]
    finally:
        if session is not None:
            session.finish(n_configs=len(config_list))
