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
* a hard worker death (``BrokenProcessPool``) rebuilds the pool and
  requeues the in-flight points — conservatively charging each an
  attempt, so a reproducibly-crashing point still quarantines;
* completed results are delivered to the caller *as they finish* (the
  runner checkpoints each one), so no failure mode loses finished work.

The executor is deliberately policy-free about results: it hands each
completed record to ``on_record`` and failure attempts to
``on_failure`` and keeps no result state of its own.
"""

from __future__ import annotations

import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.campaign.spec import CampaignPoint
from repro.campaign.store import record_from_result
from repro.core.system import run_system
from repro.telemetry import worker_telemetry
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


class _PointTimeout(Exception):
    """Raised inside a worker when the per-run alarm fires."""


def _alarm_handler(signum, frame):  # pragma: no cover - fires in workers
    raise _PointTimeout()


def _run_point(point: CampaignPoint, timeout_s: Optional[float]):
    """Run one point, enforcing the timeout with ``SIGALRM`` if available."""
    use_alarm = bool(timeout_s) and hasattr(signal, "SIGALRM")
    if not use_alarm:
        return run_system(point.config)
    old = signal.signal(signal.SIGALRM, _alarm_handler)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return run_system(point.config)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def default_worker(payload):
    """Module-level worker (picklable): never raises, always attributes.

    ``payload`` is ``(point, timeout_s)`` or, when result caching is on,
    ``(point, timeout_s, cache_plan)`` — plus a trailing
    :class:`~repro.telemetry.spans.SpanContext` when the campaign
    collects telemetry, in which case the ok-outcome grows to ``("ok",
    digest, record, entry_or_None, telemetry_blob)``.  Without
    telemetry the legacy forms ``("ok", digest, record[, entry])`` and
    ``("err", digest, error)`` are returned unchanged, so custom
    workers and old tests keep working.

    With a :class:`repro.cache.CachePlan` the worker deposits the
    pickled result as a content-addressed blob (atomic, collision-free
    across workers) and hands the pending index entry back for the
    supervisor to adopt — workers never write the cache index.  A
    failed deposit degrades to an uncached success: memoization must
    never fail a run that computed fine.
    """
    point, timeout_s = payload[0], payload[1]
    cache_plan = payload[2] if len(payload) > 2 else None
    ctx = payload[3] if len(payload) > 3 else None
    try:
        with worker_telemetry(
            ctx, point.digest[:12], "campaign.point"
        ) as scope:
            result = _run_point(point, timeout_s)
        record = record_from_result(point, result)
        entry = None
        if cache_plan is not None:
            from repro.cache import store_result_blob

            try:
                entry = store_result_blob(cache_plan, point.digest, result)
            except Exception:
                entry = None
        if scope is not None:
            return ("ok", point.digest, record, entry, scope.blob())
        if cache_plan is not None:
            return ("ok", point.digest, record, entry)
        return ("ok", point.digest, record)
    except _PointTimeout:
        return (
            "err",
            point.digest,
            f"Timeout: run exceeded {timeout_s:g}s",
        )
    except Exception as exc:
        return ("err", point.digest, f"{type(exc).__name__}: {exc}")


#: callback signatures
OnRecord = Callable[[CampaignPoint, Dict[str, object]], None]
OnFailure = Callable[[CampaignPoint, int, str, bool], None]
OnCacheEntry = Callable[[CampaignPoint, Dict[str, object]], None]


@dataclass
class _Pending:
    point: CampaignPoint
    failures: int = 0          # failed attempts so far
    errors: List[str] = field(default_factory=list)
    eligible_at: float = 0.0   # monotonic time the next attempt may start


class RobustExecutor:
    """Supervised, resumable execution of a set of campaign points."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        timeout_s: Optional[float] = None,
        worker: Callable = default_worker,
        cache_plan=None,
        telemetry=None,
        telemetry_ctx=None,
    ) -> None:
        if jobs is not None and jobs < 0:
            raise ValueError(f"jobs must be non-negative, got {jobs}")
        self.jobs = jobs or 0
        self.retry = retry or RetryPolicy()
        self.timeout_s = timeout_s
        self.worker = worker
        #: Optional :class:`repro.cache.CachePlan`.  When set, workers
        #: receive it as a third payload element and deposit result
        #: blobs; custom workers that unpack two elements should only be
        #: combined with ``cache_plan=None`` (the default).
        self.cache_plan = cache_plan
        #: Supervisor-side registry for the executor's own machinery
        #: metrics (``exec.*``: retries, quarantines, queue depth) — a
        #: no-op sink by default.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Optional :class:`~repro.telemetry.spans.SpanContext`.  When
        #: set, payloads grow a fourth element and telemetry-aware
        #: workers return a blob; leave ``None`` for custom workers
        #: that unpack fixed-size payloads.
        self.telemetry_ctx = telemetry_ctx
        self._on_cache_entry: Optional[OnCacheEntry] = None
        self._on_telemetry = None

    def _payload(self, point: CampaignPoint):
        if self.telemetry_ctx is not None:
            return (point, self.timeout_s, self.cache_plan, self.telemetry_ctx)
        if self.cache_plan is None:
            return (point, self.timeout_s)
        return (point, self.timeout_s, self.cache_plan)

    # ------------------------------------------------------------------
    def run(
        self,
        points: Sequence[CampaignPoint],
        on_record: OnRecord,
        on_failure: Optional[OnFailure] = None,
        interrupt_after: Optional[int] = None,
        on_cache_entry: Optional[OnCacheEntry] = None,
        on_telemetry=None,
    ) -> ExecutionStats:
        """Run every point; deliver records/failures through callbacks.

        ``interrupt_after`` raises :class:`CampaignInterrupted` once that
        many *new* results have been delivered — the deterministic
        crash-simulation hook used by the resume-identity tests and the
        CI smoke job.  Results delivered before the interrupt are
        already checkpointed by the callback; nothing is lost.

        ``on_cache_entry`` receives ``(point, entry_dict)`` for every
        completed point whose worker deposited a cache blob (requires
        ``cache_plan``); the supervisor-side callback owns the index.

        ``on_telemetry`` receives the telemetry blob of every completed
        point (requires ``telemetry_ctx``) for the supervisor to merge.
        """
        stats = ExecutionStats()
        if not points:
            return stats
        self._on_cache_entry = on_cache_entry
        self._on_telemetry = on_telemetry
        if self.jobs <= 1 or len(points) == 1:
            self._run_serial(
                points, stats, on_record, on_failure, interrupt_after
            )
        else:
            self._run_pool(
                points, stats, on_record, on_failure, interrupt_after
            )
        return stats

    # ------------------------------------------------------------------
    # Shared failure/success bookkeeping
    # ------------------------------------------------------------------
    def _complete(
        self,
        entry: _Pending,
        outcome: Tuple,
        stats: ExecutionStats,
        on_record: OnRecord,
        interrupt_after: Optional[int],
    ) -> None:
        # Adopt the worker's cache deposit (if any) before checkpointing:
        # an interrupt raised below must not orphan a blob that the next
        # overlapping grid could have been served from.
        if (
            self._on_cache_entry is not None
            and len(outcome) > 3
            and outcome[3] is not None
        ):
            try:
                self._on_cache_entry(entry.point, outcome[3])
            except Exception:
                pass  # memoization must never fail a completed run
        if (
            self._on_telemetry is not None
            and len(outcome) > 4
            and outcome[4] is not None
        ):
            self._on_telemetry(outcome[4])
        on_record(entry.point, outcome[2])
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

    # ------------------------------------------------------------------
    # Serial path
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        points: Sequence[CampaignPoint],
        stats: ExecutionStats,
        on_record: OnRecord,
        on_failure: Optional[OnFailure],
        interrupt_after: Optional[int],
    ) -> None:
        queue: Deque[_Pending] = deque(_Pending(p) for p in points)
        while queue:
            entry = queue.popleft()
            delay = entry.eligible_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            outcome = self.worker(self._payload(entry.point))
            if outcome[0] == "ok":
                self._complete(
                    entry, outcome, stats, on_record, interrupt_after
                )
            elif self._fail(entry, outcome[2], stats, on_failure):
                queue.append(entry)

    # ------------------------------------------------------------------
    # Pooled path
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        points: Sequence[CampaignPoint],
        stats: ExecutionStats,
        on_record: OnRecord,
        on_failure: Optional[OnFailure],
        interrupt_after: Optional[int],
    ) -> None:
        workers = min(self.jobs, len(points))
        pending: List[_Pending] = [_Pending(p) for p in points]
        inflight: Dict[object, Tuple[_Pending, float]] = {}
        pool = ProcessPoolExecutor(max_workers=workers)
        # A worker that survives SIGALRM mis-delivery or runs where
        # SIGALRM is unavailable could wedge forever; give the supervisor
        # a generous hard deadline per attempt as the backstop.
        wedge_after = (
            self.timeout_s * 2.0 + 5.0 if self.timeout_s else None
        )
        try:
            while pending or inflight:
                now = time.monotonic()
                self.telemetry.gauge("exec.queue_depth").set(
                    float(len(pending) + len(inflight))
                )
                # Submit every eligible point up to pool capacity.
                still_waiting: List[_Pending] = []
                for entry in pending:
                    if (
                        len(inflight) < workers
                        and entry.eligible_at <= now
                    ):
                        try:
                            future = pool.submit(
                                self.worker, self._payload(entry.point)
                            )
                        except BrokenProcessPool:
                            pool = self._rebuild_pool(pool, workers)
                            self.telemetry.counter("exec.pool_rebuilds").inc()
                            still_waiting.append(entry)
                            continue
                        inflight[future] = (entry, now)
                    else:
                        still_waiting.append(entry)
                pending = still_waiting
                if not inflight:
                    # Nothing running: sleep until the earliest retry.
                    wake = min(e.eligible_at for e in pending)
                    time.sleep(max(0.0, min(wake - time.monotonic(), 0.5)))
                    continue
                done, _ = wait(
                    inflight, timeout=0.25, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in done:
                    entry, _started = inflight.pop(future)
                    exc = future.exception()
                    if isinstance(exc, BrokenProcessPool):
                        broken = True
                        if self._fail(
                            entry,
                            "worker process died (pool broken)",
                            stats,
                            on_failure,
                        ):
                            pending.append(entry)
                        continue
                    if exc is not None:
                        # The worker contract is "never raise"; anything
                        # arriving here is infrastructure (pickling, OS).
                        if self._fail(
                            entry,
                            f"{type(exc).__name__}: {exc}",
                            stats,
                            on_failure,
                        ):
                            pending.append(entry)
                        continue
                    outcome = future.result()
                    if outcome[0] == "ok":
                        self._complete(
                            entry,
                            outcome,
                            stats,
                            on_record,
                            interrupt_after,
                        )
                    elif self._fail(entry, outcome[2], stats, on_failure):
                        pending.append(entry)
                if broken:
                    # The pool is unusable; charge the remaining in-flight
                    # points an attempt (we cannot know which crashed) and
                    # rebuild.
                    for future, (entry, _started) in list(inflight.items()):
                        if self._fail(
                            entry,
                            "worker process died (pool broken)",
                            stats,
                            on_failure,
                        ):
                            pending.append(entry)
                    inflight.clear()
                    pool = self._rebuild_pool(pool, workers)
                    self.telemetry.counter("exec.pool_rebuilds").inc()
                    continue
                if wedge_after is not None:
                    now = time.monotonic()
                    wedged = [
                        (future, entry)
                        for future, (entry, started) in inflight.items()
                        if now - started > wedge_after
                    ]
                    if wedged:
                        # Cannot kill a single task: fail the wedged
                        # points, requeue the innocent ones un-charged,
                        # and start a fresh pool.
                        wedged_futures = {future for future, _ in wedged}
                        for future, entry in wedged:
                            if self._fail(
                                entry,
                                f"Timeout: worker wedged past "
                                f"{wedge_after:g}s supervisor deadline",
                                stats,
                                on_failure,
                            ):
                                pending.append(entry)
                        for future, (entry, _started) in inflight.items():
                            if future not in wedged_futures:
                                pending.append(entry)
                        inflight.clear()
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = ProcessPoolExecutor(max_workers=workers)
                        self.telemetry.counter("exec.pool_rebuilds").inc()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _rebuild_pool(
        pool: ProcessPoolExecutor, workers: int
    ) -> ProcessPoolExecutor:
        pool.shutdown(wait=False, cancel_futures=True)
        return ProcessPoolExecutor(max_workers=workers)
