"""The point executor: one worker, one outcome type, one process pool.

Sweeps, campaigns, ``repro serve`` and DSE run each point, a pure
function of its :class:`~repro.core.config_io.SystemConfig` (so serial
and pooled runs agree byte for byte), through the same three pieces:

* :func:`execute` runs one point and never raises;
* :class:`Outcome` carries its result or its error string, with the
  run's wall time and the worker's pid — the caller knows which point
  it sent, attributes failures itself and counts results into its own
  registry (:func:`repro.telemetry.count_run`);
* :class:`WorkerPool` is the only process pool.  Its workers start from
  a forkserver (spawn where there is none) that preloads the model
  (:mod:`repro.experiments.parallel`), so a worker inherits none of the
  caller's threads, sockets or signal wake-up fd, and a new pool does
  not re-import ``repro``.  A broken or wedged pool is rebuilt once per
  generation, however many callers report it.  Its workers exit when
  their owner does, however it dies, and the forkserver and its
  resource tracker follow them.

This module imports no model code (:func:`execute` imports the
simulator when it runs a point), so a process that hands its points to
a pool, such as the ``repro serve --jobs N`` parent, never loads it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import forkserver
from multiprocessing.connection import Connection
from typing import Optional

from repro.core.config_io import SystemConfig
from repro.metrics.collectors import SimulationResult
from repro.platform.coretypes import CORE_TYPES, registered_core_types


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
    from repro.core.system import run_system

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
        pool), so it imports the model while the caller sets up.
        """
        try:
            ctx = multiprocessing.get_context("forkserver")
        except ValueError:  # pragma: no cover - platform without forkserver
            ctx = multiprocessing.get_context("spawn")
        else:
            ctx.set_forkserver_preload(["repro.experiments.parallel"])
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
