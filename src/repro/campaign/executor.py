"""Crash-tolerant execution of campaign points.

``repro.experiments.run_many`` is the right tool for a quick sweep, but
it fails as a batch substrate: one worker exception aborts the whole
map, a hung run hangs the sweep, and a dead worker process kills the
pool.  :class:`RobustExecutor` is the supervisor a thousand-run
campaign needs:

* every point failure is caught, attributed to the point's config
  digest and retried with bounded exponential backoff;
* after ``RetryPolicy.max_attempts`` failures the point is
  **quarantined** — logged and skipped — instead of aborting the
  campaign;
* per-run timeouts are enforced inside the worker with ``SIGALRM``
  (plus a supervisor-side wedge deadline as a backstop), so a
  non-terminating simulation cannot wedge the campaign;
* a hard worker death (``BrokenProcessPool``) rebuilds the pool once
  and requeues the in-flight points — conservatively charging each an
  attempt, so a reproducibly-crashing point still quarantines;
* completed points are delivered to the caller *as they finish* (the
  runner checkpoints each one), so no failure mode loses finished work.

Every attempt runs through :func:`repro.experiments.parallel.execute`,
in-process on the serial path and on a
:class:`~repro.experiments.parallel.WorkerPool` otherwise.  The
executor is deliberately policy-free about results: it hands each
completed point's :class:`~repro.experiments.parallel.Outcome` to
``on_result`` and failure attempts to ``on_failure`` and keeps no
result state of its own.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.campaign.spec import CampaignPoint
from repro.experiments.parallel import Outcome, WorkerPool, execute
from repro.telemetry.registry import NULL_TELEMETRY


class CampaignInterrupted(RuntimeError):
    """Deterministic mid-campaign stop (the crash-simulation hook)."""

    def __init__(self, completed: int) -> None:
        super().__init__(
            f"campaign interrupted after {completed} new result(s); "
            f"checkpoint retained, resume to continue"
        )
        self.completed = completed


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff between attempts of one point."""

    max_attempts: int = 3
    backoff_s: float = 0.5
    backoff_factor: float = 2.0
    max_backoff_s: float = 8.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def delay_s(self, failures: int) -> float:
        """Delay before the retry following the ``failures``-th failure."""
        if self.backoff_s <= 0:
            return 0.0
        return min(
            self.backoff_s * self.backoff_factor ** max(failures - 1, 0),
            self.max_backoff_s,
        )


@dataclass
class PointFailure:
    """A quarantined point and everything known about why it failed."""

    digest: str
    seed: int
    cell: Tuple[Tuple[str, object], ...]
    attempts: int
    errors: List[str] = field(default_factory=list)


@dataclass
class ExecutionStats:
    """What one executor invocation did."""

    completed: int = 0
    retried: int = 0
    quarantined: List[PointFailure] = field(default_factory=list)


#: callback signatures
OnResult = Callable[[CampaignPoint, Outcome], None]
OnFailure = Callable[[CampaignPoint, int, str, bool], None]


@dataclass
class _Pending:
    point: CampaignPoint
    failures: int = 0          # failed attempts so far
    errors: List[str] = field(default_factory=list)
    eligible_at: float = 0.0   # monotonic time the next attempt may start


class RobustExecutor:
    """Supervised, resumable execution of a set of campaign points.

    ``worker`` has :func:`~repro.experiments.parallel.execute`'s
    signature and contract (it is the fault-injection seam of the
    tests); a pooled worker must be picklable.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        timeout_s: Optional[float] = None,
        worker: Callable[..., Outcome] = execute,
        telemetry=None,
    ) -> None:
        if jobs is not None and jobs < 0:
            raise ValueError(f"jobs must be non-negative, got {jobs}")
        self.jobs = jobs or 0
        self.retry = retry or RetryPolicy()
        self.timeout_s = timeout_s
        self.worker = worker
        #: Supervisor-side registry for the executor's own machinery
        #: metrics (``exec.*``: retries, quarantines, queue depth) — a
        #: no-op sink by default.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    # ------------------------------------------------------------------
    def run(
        self,
        points: Sequence[CampaignPoint],
        on_result: OnResult,
        on_failure: Optional[OnFailure] = None,
        interrupt_after: Optional[int] = None,
    ) -> ExecutionStats:
        """Run every point; deliver results/failures through callbacks.

        ``on_result`` receives each completed point with its
        :class:`~repro.experiments.parallel.Outcome` (the result, the
        run's wall time and the worker's pid).

        ``interrupt_after`` raises :class:`CampaignInterrupted` once that
        many *new* results have been delivered — the deterministic
        crash-simulation hook used by the resume-identity tests and the
        CI smoke job.  Results delivered before the interrupt are
        already checkpointed by the callback; nothing is lost.
        """
        stats = ExecutionStats()
        if not points:
            return stats
        if self.jobs <= 1 or len(points) == 1:
            self._run_serial(
                points, stats, on_result, on_failure, interrupt_after
            )
        else:
            self._run_pool(
                points, stats, on_result, on_failure, interrupt_after
            )
        return stats

    # ------------------------------------------------------------------
    # Shared failure/success bookkeeping
    # ------------------------------------------------------------------
    def _complete(
        self,
        entry: _Pending,
        outcome: Outcome,
        stats: ExecutionStats,
        on_result: OnResult,
        interrupt_after: Optional[int],
    ) -> None:
        on_result(entry.point, outcome)
        stats.completed += 1
        self.telemetry.counter("exec.completed").inc()
        if interrupt_after is not None and stats.completed >= interrupt_after:
            raise CampaignInterrupted(stats.completed)

    def _fail(
        self,
        entry: _Pending,
        error: str,
        stats: ExecutionStats,
        on_failure: Optional[OnFailure],
    ) -> bool:
        """Record one failed attempt; True if the point should retry."""
        entry.failures += 1
        entry.errors.append(error)
        quarantine = entry.failures >= self.retry.max_attempts
        if on_failure is not None:
            on_failure(entry.point, entry.failures, error, quarantine)
        if quarantine:
            stats.quarantined.append(
                PointFailure(
                    digest=entry.point.digest,
                    seed=entry.point.seed,
                    cell=entry.point.cell,
                    attempts=entry.failures,
                    errors=list(entry.errors),
                )
            )
            self.telemetry.counter("exec.quarantined").inc()
            return False
        stats.retried += 1
        self.telemetry.counter("exec.retries").inc()
        entry.eligible_at = (
            time.monotonic() + self.retry.delay_s(entry.failures)
        )
        return True

    def _rebuild(self, pool: WorkerPool, generation: int) -> None:
        if pool.rebuild(generation):
            self.telemetry.counter("exec.pool_rebuilds").inc()

    # ------------------------------------------------------------------
    # Serial path
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        points: Sequence[CampaignPoint],
        stats: ExecutionStats,
        on_result: OnResult,
        on_failure: Optional[OnFailure],
        interrupt_after: Optional[int],
    ) -> None:
        queue: Deque[_Pending] = deque(_Pending(p) for p in points)
        while queue:
            entry = queue.popleft()
            delay = entry.eligible_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            outcome = self.worker(entry.point.config, self.timeout_s)
            if outcome.error is None:
                self._complete(
                    entry, outcome, stats, on_result, interrupt_after
                )
            elif self._fail(entry, outcome.error, stats, on_failure):
                queue.append(entry)

    # ------------------------------------------------------------------
    # Pooled path
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        points: Sequence[CampaignPoint],
        stats: ExecutionStats,
        on_result: OnResult,
        on_failure: Optional[OnFailure],
        interrupt_after: Optional[int],
    ) -> None:
        workers = min(self.jobs, len(points))
        pending: List[_Pending] = [_Pending(p) for p in points]
        # future -> (point, submit time, pool generation it runs on)
        inflight: Dict[Future, Tuple[_Pending, float, int]] = {}
        # A worker that survives SIGALRM mis-delivery or runs where
        # SIGALRM is unavailable could wedge forever; give the supervisor
        # a generous hard deadline per attempt as the backstop.
        wedge_after = (
            self.timeout_s * 2.0 + 5.0 if self.timeout_s else None
        )
        with WorkerPool(workers) as pool:
            while pending or inflight:
                now = time.monotonic()
                self.telemetry.gauge("exec.queue_depth").set(
                    float(len(pending) + len(inflight))
                )
                # Submit every eligible point up to pool capacity.
                still_waiting: List[_Pending] = []
                for entry in pending:
                    if len(inflight) >= workers or entry.eligible_at > now:
                        still_waiting.append(entry)
                        continue
                    generation = pool.generation
                    try:
                        future = pool.submit(
                            self.worker, entry.point.config, self.timeout_s
                        )
                    except BrokenProcessPool:
                        self._rebuild(pool, generation)
                        still_waiting.append(entry)
                        continue
                    inflight[future] = (entry, now, generation)
                pending = still_waiting
                if not inflight:
                    # Nothing running: sleep until the earliest retry.
                    wake = min(e.eligible_at for e in pending)
                    time.sleep(max(0.0, min(wake - time.monotonic(), 0.5)))
                    continue
                done, _ = wait(
                    inflight, timeout=0.25, return_when=FIRST_COMPLETED
                )
                for future in done:
                    entry, _started, generation = inflight.pop(future)
                    exc = future.exception()
                    if isinstance(exc, BrokenProcessPool):
                        # Every point in flight on a broken pool fails
                        # here (we cannot know which one crashed it), so
                        # each is charged an attempt; the first report
                        # of the generation rebuilds the pool.
                        self._rebuild(pool, generation)
                        error = "worker process died (pool broken)"
                    elif exc is not None:
                        # The worker contract is "never raise"; anything
                        # arriving here is infrastructure (pickling, OS).
                        error = f"{type(exc).__name__}: {exc}"
                    else:
                        outcome = future.result()
                        if outcome.error is None:
                            self._complete(
                                entry, outcome, stats, on_result,
                                interrupt_after,
                            )
                            continue
                        error = outcome.error
                    if self._fail(entry, error, stats, on_failure):
                        pending.append(entry)
                if wedge_after is None:
                    continue
                now = time.monotonic()
                wedged = {
                    future
                    for future, (_entry, started, _g) in inflight.items()
                    if now - started > wedge_after
                }
                if wedged:
                    # Cannot kill a single task: fail the wedged points,
                    # requeue the innocent ones un-charged, and start a
                    # fresh pool.  (Only the current generation can
                    # wedge: a broken one fails all its work at once.)
                    for future, (entry, _started, _g) in inflight.items():
                        if future not in wedged or self._fail(
                            entry,
                            f"Timeout: worker wedged past "
                            f"{wedge_after:g}s supervisor deadline",
                            stats,
                            on_failure,
                        ):
                            pending.append(entry)
                    inflight.clear()
                    self._rebuild(pool, pool.generation)
