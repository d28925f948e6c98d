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
* :class:`Outcome` carries its result or its error string, with the
  run's wall time and the worker's pid — the caller knows which point
  it sent, attributes failures itself and counts results into its own
  registry (:func:`repro.telemetry.count_run`);
* :class:`WorkerPool` is the only process pool.  Its workers start from
  a forkserver (spawn where there is none) with this module preloaded,
  so a worker inherits none of the caller's threads, sockets or signal
  wake-up fd, and a new pool does not re-import ``repro``.  A broken or
  wedged pool is rebuilt once per generation, however many callers
  report it.  Its workers exit when their owner does, however it dies,
  and the forkserver and its resource tracker follow them.

The callers keep their own policies: :func:`run_many` is all-or-nothing
(a sweep with holes is not a sweep; a failing run raises
:class:`RunFailed` naming the index and config digest of the offender),
:class:`repro.campaign.RobustExecutor` retries, times out and
quarantines, and :class:`repro.serve.ServeEngine` admits asynchronously.
``jobs=None``/``0``/``1`` runs in-process without a pool or pickling,
so callers can thread a ``--jobs`` flag straight through.

**Memoization.**  ``run_many(cache=)`` (a :class:`repro.cache.RunCache`)
serves previously-computed points without re-running them: the
supervisor probes the cache for every config, dispatches only the
misses, then stores the fresh results itself — workers never touch the
cache, so the index has exactly one writer.  Cached results are pickle
round-trips of the originals, so a warm sweep is byte-identical to a
cold one.  A :class:`repro.obs.Profile` around the call observes from
outside, so profiling a cache hit shows the cache's own cost.  A
journal is not a ``run_many`` argument: a journaled run is one
``run_system(config, journal=)`` call.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing import forkserver
from multiprocessing.connection import Connection
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.core.system import SimulationResult, SystemConfig, run_system
from repro.obs.provenance import config_digest
from repro.platform.coretypes import CORE_TYPES, registered_core_types
from repro.telemetry.registry import MetricsRegistry, count_run


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
    """One executed point: its result or its error.

    Exactly one of ``result`` and ``error`` is set.  :func:`execute`
    also records the run's wall time and the pid of the process that
    ran it (campaign status heartbeats read them); an outcome a caller
    makes up for a point that never ran keeps the zero defaults.
    """

    result: Optional[SimulationResult] = None
    error: Optional[str] = None
    wall_s: float = 0.0
    pid: int = 0


class _PointTimeout(Exception):
    """Raised inside :func:`execute` when the per-run alarm fires."""


def _alarm_handler(signum, frame):  # pragma: no cover - fires in workers
    raise _PointTimeout()


def _run(config: SystemConfig, timeout_s) -> SimulationResult:
    """``run_system``, under a ``SIGALRM`` timeout where one can fire."""
    if (
        not timeout_s
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return run_system(config)
    old = signal.signal(signal.SIGALRM, _alarm_handler)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return run_system(config)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def execute(
    config: SystemConfig, timeout_s: Optional[float] = None
) -> Outcome:
    """Run one point; never raises (module-level, so pools can pickle it).

    ``timeout_s`` bounds the run with ``SIGALRM`` where the platform has
    it and the call is on the main thread (always true in a pool
    worker).
    """
    start = time.perf_counter()
    result = error = None
    try:
        result = _run(config, timeout_s)
    except _PointTimeout:
        error = f"Timeout: run exceeded {timeout_s:g}s"
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    return Outcome(
        result=result,
        error=error,
        wall_s=time.perf_counter() - start,
        pid=os.getpid(),
    )


def _exit_with_owner(owner: Connection) -> None:
    """Pool initializer: end this worker as soon as its owner is gone.

    ``owner`` is the read end of a pipe whose only write end the owning
    :class:`WorkerPool` holds, so it reads EOF once the owner closes it
    or dies, even by ``SIGKILL``.  Without this, an idle worker of a
    killed owner waits forever on its call queue (it holds that queue's
    write end itself), and keeps the forkserver and resource tracker
    alive with it.
    """

    def wait() -> None:
        try:
            owner.recv_bytes()
        except (EOFError, OSError):
            pass
        os._exit(1)

    threading.Thread(target=wait, name="owner-watch", daemon=True).start()


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
        # Every worker, of every generation, watches the read end; only
        # this process holds the write end (see _exit_with_owner).
        self._watched, self._owner = multiprocessing.Pipe(duplex=False)
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
        return ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=ctx,
            initializer=_exit_with_owner,
            initargs=(self._watched,),
        )

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
        Then the owner pipe closes, which ends every worker still
        running (abandoned work, a wedged worker).
        """
        self._executor.shutdown(wait=wait, cancel_futures=cancel_futures)
        self._owner.close()
        self._watched.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Wait for the workers only after a clean exit: all work is done.
        self.shutdown(wait=exc_type is None, cancel_futures=True)


def _run_indexed(
    config_list: List[SystemConfig],
    indices: List[int],
    jobs: Optional[int],
    telemetry: Optional[MetricsRegistry],
) -> List[SimulationResult]:
    """Run the configs at ``indices``; failures keep original indices.

    Every result is counted into ``telemetry`` in index order, serial
    and pooled alike, which is what makes their snapshots identical.
    """
    work = [config_list[index] for index in indices]
    if not jobs or jobs == 1 or len(indices) <= 1:
        # Lazy: a failing run stops the sweep before the next one runs.
        outcomes: Iterable[Outcome] = (execute(config) for config in work)
    else:
        with WorkerPool(min(jobs, len(indices))) as pool:
            futures = [pool.submit(execute, config) for config in work]
            outcomes = [future.result() for future in futures]
    results = []
    for index, outcome in zip(indices, outcomes):
        if outcome.error is not None:
            raise RunFailed(
                index, config_digest(config_list[index]), outcome.error
            )
        count_run(telemetry, outcome.result)
        results.append(outcome.result)
    return results


def run_many(
    configs: Iterable[SystemConfig],
    jobs: Optional[int] = None,
    cache=None,
    telemetry: Optional[MetricsRegistry] = None,
) -> List[SimulationResult]:
    """Run every config, optionally across ``jobs`` worker processes.

    ``jobs=None`` (or ``0``/``1``) runs serially in-process.  Results are
    returned in the order of ``configs`` and are identical to a serial
    run: each simulation is deterministic given its config, and the
    pooled path reassembles results by original index.

    ``cache`` (a :class:`repro.cache.RunCache`) memoizes results by
    salted config digest — hits are served without running, misses are
    computed (pooled if asked) and stored by the supervisor.  Results
    are identical with the cache on, off, warm or cold.

    ``telemetry`` (a :class:`repro.telemetry.MetricsRegistry`) counts
    every computed run (:func:`repro.telemetry.count_run`, in index
    order) and every cache lookup and store.  Cache hits are not
    simulated, so they add ``cache.*`` counters but no ``sim.*`` ones.

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
    if cache is None:
        return _run_indexed(
            config_list, list(range(len(config_list))), jobs, telemetry
        )
    results: List[Optional[SimulationResult]] = [None] * len(config_list)
    # One digest per config, shared by the probe and the store.
    digests = [config_digest(config) for config in config_list]
    miss_indices: List[int] = []
    for index, digest in enumerate(digests):
        cached = cache.get_result(digest, telemetry)
        if cached is not None:
            results[index] = cached
        else:
            miss_indices.append(index)
    if miss_indices:
        fresh = _run_indexed(config_list, miss_indices, jobs, telemetry)
        for index, result in zip(miss_indices, fresh):
            cache.put_result(digests[index], result, telemetry)
            results[index] = result
    return results  # type: ignore[return-value]
