"""The serving engine: tenant queues, coalescing, and the worker fleet.

This is the routing/queueing core of ``repro.serve``, kept free of any
HTTP so it can be driven directly by tests.  One engine owns:

* **per-tenant bounded queues** — a submission is admitted atomically
  (the event loop is the lock: :meth:`ServeEngine.submit` never awaits)
  or rejected whole with :class:`QuotaExceeded`, which carries a
  retry-after estimate derived from the observed completion rate;
* **in-flight coalescing** — points are keyed by
  :func:`~repro.obs.provenance.config_digest`; while a digest is queued
  or running, every further request for it attaches to the same future
  and costs nothing, and completed digests are served from the
  :class:`~repro.cache.RunCache` (when configured), so N clients asking
  for the same point pay for one simulation *ever*;
* **fair round-robin draining** — the dispatcher cycles tenants in
  arrival order and takes one item per turn, so a tenant with a
  thousand queued points cannot starve a tenant with one;
* **the worker fleet** — a persistent
  :class:`~repro.experiments.pool.WorkerPool` (``jobs >= 1``) or
  thread pool (``jobs = 0``, handy for tests and tiny deployments),
  both running :func:`~repro.experiments.pool.execute`, the point
  executor sweeps and campaigns use.  A broken process pool is rebuilt
  once and the interrupted work retried, mirroring the campaign
  executor's crash-tolerance.  A process pool keeps the model out of
  this process.

Determinism contract: every result leaving the engine is produced by
``run_system`` on a fully-resolved config, so its
:func:`~repro.obs.provenance.result_digest` is byte-identical to a
direct :func:`~repro.experiments.run_many` call — serial, pooled,
cached or coalesced.  The engine adds routing, never arithmetic.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.core.config_io import SystemConfig
from repro.experiments.pool import Outcome, WorkerPool, execute
from repro.obs.provenance import result_digest
from repro.serve.protocol import SweepRequest
from repro.telemetry.registry import MetricsRegistry, count_run

__all__ = [
    "PointPayload",
    "QuotaExceeded",
    "ServeEngine",
    "ServerDraining",
    "Ticket",
]


class QuotaExceeded(Exception):
    """A submission that would overflow a tenant or server queue bound."""

    def __init__(self, reason: str, retry_after_s: float) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retry_after_s = retry_after_s


class ServerDraining(Exception):
    """The engine is shutting down and accepts no new work (HTTP 503)."""


@dataclass(frozen=True)
class PointPayload:
    """What a completed point resolves to: identity plus the summary row.

    ``result_digest`` is :func:`repro.obs.provenance.result_digest` of
    the full :class:`~repro.metrics.collectors.SimulationResult` — the identity
    the served-equals-direct contract is asserted on; ``summary`` is the
    scalar summary row clients actually consume.
    """

    digest: str
    result_digest: str
    summary: Dict[str, float]

    @classmethod
    def of(cls, digest: str, result) -> "PointPayload":
        """The payload of ``result``, the run of the config ``digest`` names."""
        return cls(digest, result_digest(result), result.summary())


@dataclass(frozen=True)
class Ticket:
    """One requested point's claim on a (possibly shared) outcome.

    ``source`` records how the point was satisfied at submission time:
    ``"queued"`` (fresh work this request paid for), ``"coalesced"``
    (attached to an identical in-flight point) or ``"cached"`` (served
    from the run cache without executing).
    """

    index: int
    digest: str
    future: "asyncio.Future[PointPayload]"
    source: str


class _Work:
    """One queued fresh point: config, identities, owning tenant."""

    __slots__ = ("config", "digest", "tenant")

    def __init__(self, config: SystemConfig, digest: str, tenant: str) -> None:
        self.config = config
        self.digest = digest
        self.tenant = tenant


class _TenantState:
    """Book-keeping for one tenant: queue plus admission counters."""

    __slots__ = ("name", "queue", "in_use", "submitted", "completed", "rejected")

    def __init__(self, name: str) -> None:
        self.name = name
        self.queue: Deque[_Work] = deque()
        #: Fresh points owned by this tenant, queued or running.
        self.in_use = 0
        self.submitted = 0
        self.completed = 0
        self.rejected = 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready tenant stats for the ``/status`` document."""
        return {
            "queued": len(self.queue),
            "in_use": self.in_use,
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
        }


class ServeEngine:
    """Multi-tenant scheduler over a shared simulation worker fleet.

    ``jobs >= 1`` runs points on a persistent process pool of that
    width; ``jobs = 0`` (default) runs them on a small thread pool in
    process — identical results, no pickling, the mode tests use.
    ``tenant_quota`` bounds each tenant's fresh (non-coalesced,
    non-cached) points in flight; ``max_queue`` bounds the total queued
    backlog across tenants.  ``registry`` receives ``serve.*`` counters
    and gauges, the counts of every point the engine computes
    (:func:`repro.telemetry.count_run`: ``sim.*``, ``test.*``,
    ``power.*``) and the ``cache.*`` counters of its own cache traffic.
    """

    def __init__(
        self,
        jobs: int = 0,
        cache=None,
        max_queue: int = 1024,
        tenant_quota: int = 256,
        registry: Optional[MetricsRegistry] = None,
        max_attempts: int = 3,
    ) -> None:
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 0:
            raise ValueError(f"jobs must be a non-negative int, got {jobs!r}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if tenant_quota < 1:
            raise ValueError(f"tenant_quota must be >= 1, got {tenant_quota}")
        self.jobs = jobs
        self.cache = cache
        self.max_queue = max_queue
        self.tenant_quota = tenant_quota
        self.max_attempts = max_attempts
        self.registry = registry if registry is not None else MetricsRegistry()
        self.width = jobs if jobs >= 1 else 2
        self._pool: Optional[Union[WorkerPool, ThreadPoolExecutor]] = None
        self._tenants: Dict[str, _TenantState] = {}
        self._rr: Deque[str] = deque()
        #: digest -> shared future of a point that is queued or running.
        self._inflight: Dict[str, "asyncio.Future[PointPayload]"] = {}
        self._queued_total = 0
        self._running = 0
        self._draining = False
        self._wake = asyncio.Event()
        self._dispatcher: Optional[asyncio.Task] = None
        self._slots: Optional[asyncio.Semaphore] = None
        #: EWMA of per-point wall seconds, for retry-after estimates.
        self._ewma_point_s = 0.5

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Create the worker pool and start the dispatcher task.

        Whatever runs points imports the model here, before the listener
        accepts its first connection: a process pool's forkserver, or
        this process when it runs them on threads.
        """
        if self.jobs >= 1:
            self._pool = WorkerPool(self.jobs)
        else:
            import repro.experiments.parallel  # noqa: F401  (the model)

            self._pool = ThreadPoolExecutor(
                max_workers=self.width, thread_name_prefix="serve-sim"
            )
        self._slots = asyncio.Semaphore(self.width)
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Stop admissions, wait for outstanding work, stop the fleet.

        Returns True if everything finished within ``timeout_s``
        (``None`` = wait forever).  Queued-but-unstarted points are
        still executed — drain means "finish what was admitted", not
        "abandon it"; every admitted future resolves.
        """
        self._draining = True
        self._wake.set()
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        while self._inflight:
            if deadline is not None and time.monotonic() > deadline:
                return False
            await asyncio.sleep(0.02)
        return True

    async def stop(self) -> None:
        """Tear down the dispatcher and the pool (after :meth:`drain`)."""
        self._draining = True
        if self._dispatcher is not None:
            self._wake.set()
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        self.registry.counter(f"serve.{name}").inc(n)

    def _gauge_depths(self) -> None:
        self.registry.gauge("serve.queue_depth").set(float(self._queued_total))
        self.registry.gauge("serve.running").set(float(self._running))

    def _tenant(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = self._tenants[name] = _TenantState(name)
            self._rr.append(name)
        return state

    def retry_after_estimate(self, n_points: int = 1) -> float:
        """Seconds until ``n_points`` of backlog likely clears (clamped)."""
        backlog = self._queued_total + self._running + n_points
        estimate = backlog * self._ewma_point_s / max(self.width, 1)
        return min(max(estimate, 0.25), 60.0)

    def submit(self, request: SweepRequest) -> List[Ticket]:
        """Admit a sweep request atomically; one ticket per point.

        Never awaits, so classification (coalesce / cache / fresh),
        quota checks and enqueueing are a single atomic step under the
        event loop.  Raises :class:`ServerDraining` during shutdown and
        :class:`QuotaExceeded` when the *fresh* work in the request
        (coalesced and cached points are free) would overflow the
        tenant quota or the global queue bound — in which case nothing
        is admitted.
        """
        if self._draining:
            raise ServerDraining("server is draining; retry against a peer")
        loop = asyncio.get_running_loop()
        tenant = self._tenant(request.tenant)
        self._count("requests")
        self._count("points", len(request.points))

        # Pass 1: classify every point without mutating engine state.
        plan: List[Tuple[object, str, object]] = []  # (point, kind, payload)
        fresh_digests: Dict[str, None] = {}
        for point in request.points:
            shared = self._inflight.get(point.digest)
            if shared is not None or point.digest in fresh_digests:
                plan.append((point, "coalesced", shared))
                continue
            if self.cache is not None:
                result = self.cache.get_result(point.digest, self.registry)
                if result is not None:
                    plan.append((point, "cached", result))
                    continue
            fresh_digests[point.digest] = None
            plan.append((point, "fresh", None))

        n_fresh = len(fresh_digests)
        if tenant.in_use + n_fresh > self.tenant_quota:
            tenant.rejected += 1
            self._count("rejected")
            raise QuotaExceeded(
                f"tenant {tenant.name!r} quota exceeded "
                f"({tenant.in_use} in use + {n_fresh} requested > "
                f"{self.tenant_quota})",
                self.retry_after_estimate(n_fresh),
            )
        if self._queued_total + n_fresh > self.max_queue:
            tenant.rejected += 1
            self._count("rejected")
            raise QuotaExceeded(
                f"server queue full ({self._queued_total} queued + "
                f"{n_fresh} requested > {self.max_queue})",
                self.retry_after_estimate(n_fresh),
            )

        # Pass 2: commit.  No awaits above or below — all or nothing.
        tenant.submitted += 1
        tickets: List[Ticket] = []
        for point, kind, payload in plan:
            if kind == "coalesced":
                future = (
                    payload
                    if payload is not None
                    else self._inflight[point.digest]
                )
                self._count("coalesced")
            elif kind == "cached":
                future = loop.create_future()
                future.set_result(PointPayload.of(point.digest, payload))
                self._count("cache_hits")
            else:
                future = loop.create_future()
                self._inflight[point.digest] = future
                tenant.queue.append(
                    _Work(point.config, point.digest, tenant.name)
                )
                tenant.in_use += 1
                self._queued_total += 1
                self._count("queued")
            tickets.append(
                Ticket(
                    index=point.index,
                    digest=point.digest,
                    future=future,
                    source="queued" if kind == "fresh" else kind,
                )
            )
        self._gauge_depths()
        self._wake.set()
        return tickets

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _next_work(self) -> Optional[_Work]:
        """Pop the next fair-share work item, or None if all queues idle.

        Round-robin: tenants are cycled in first-seen order and each
        turn takes the item at the front of that tenant's queue.
        """
        for _ in range(len(self._rr)):
            name = self._rr[0]
            self._rr.rotate(-1)
            queue = self._tenants[name].queue
            if not queue:
                continue
            self._queued_total -= 1
            self._gauge_depths()
            return queue.popleft()
        return None

    async def _dispatch_loop(self) -> None:
        assert self._slots is not None
        while True:
            work = self._next_work()
            if work is None:
                self._wake.clear()
                if self._draining and not self._inflight:
                    return
                await self._wake.wait()
                continue
            await self._slots.acquire()
            self._running += 1
            self._gauge_depths()
            asyncio.get_running_loop().create_task(self._execute(work))

    async def _run(self, config: SystemConfig) -> Outcome:
        """:func:`execute` one point on the fleet; never raises.

        A pool that dies under the point (e.g. a worker was OOM-killed)
        is rebuilt once per generation and the point retried, up to
        ``max_attempts`` times, like the campaign executor does.  Any
        other failure to hand the point over or to bring its outcome
        back (pickling, a fleet already stopped) fails the point.
        """
        pool = self._pool
        try:
            if not isinstance(pool, WorkerPool):
                return await asyncio.wrap_future(pool.submit(execute, config))
            for _attempt in range(max(self.max_attempts, 1)):
                generation = pool.generation
                try:
                    return await asyncio.wrap_future(
                        pool.submit(execute, config)
                    )
                except BrokenExecutor as exc:
                    error = f"worker pool died: {exc}"
                    if pool.rebuild(generation):
                        self._count("pool_rebuilds")
            return Outcome(error=error)
        except Exception as exc:
            return Outcome(error=f"{type(exc).__name__}: {exc}")

    async def _execute(self, work: _Work) -> None:
        """Run one point; resolve its future."""
        assert self._slots is not None
        started = time.perf_counter()
        try:
            outcome = await self._run(work.config)
            if outcome.error is not None:
                self._fail(work, outcome.error)
                return
            result = outcome.result
            put_s = 0.0
            if self.cache is not None:
                # Before anything reads the result: a pooled worker's
                # result is still undecoded, so the put stores the bytes
                # the worker sent.  The put is not part of the point's
                # time.
                put_started = time.perf_counter()
                try:
                    self.cache.put_result(work.digest, result, self.registry)
                except OSError:
                    self._count("cache_put_errors")
                put_s = time.perf_counter() - put_started
            count_run(self.registry, result)
            elapsed = time.perf_counter() - started - put_s
            self._ewma_point_s += 0.2 * (elapsed - self._ewma_point_s)
            self.registry.histogram(
                "serve.point_seconds", (0.01, 0.1, 0.5, 1.0, 5.0, 30.0)
            ).observe(elapsed)
            payload = PointPayload.of(work.digest, result)
            self._resolve(work, payload)
            self._count("computed")
        finally:
            self._running -= 1
            self._gauge_depths()
            self._slots.release()
            self._wake.set()

    def _resolve(self, work: _Work, payload: PointPayload) -> None:
        future = self._inflight.pop(work.digest, None)
        if future is not None and not future.done():
            future.set_result(payload)
        tenant = self._tenants[work.tenant]
        tenant.in_use -= 1
        tenant.completed += 1

    def _fail(self, work: _Work, error: str) -> None:
        self._count("errors")
        future = self._inflight.pop(work.digest, None)
        if future is not None and not future.done():
            future.set_exception(RuntimeError(error))
        self._tenants[work.tenant].in_use -= 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        """Whether the engine has stopped admitting new work."""
        return self._draining

    def stats(self) -> Dict[str, object]:
        """JSON-ready engine state for the ``/status`` document."""
        counters = self.registry.snapshot().get("counters", {})
        return {
            "jobs": self.jobs,
            "width": self.width,
            "draining": self._draining,
            "queued": self._queued_total,
            "running": self._running,
            "inflight_digests": len(self._inflight),
            "max_queue": self.max_queue,
            "tenant_quota": self.tenant_quota,
            "ewma_point_s": self._ewma_point_s,
            "counters": {
                name: value
                for name, value in counters.items()  # type: ignore[union-attr]
                if name.startswith("serve.")
            },
            "tenants": {
                name: state.as_dict()
                for name, state in sorted(self._tenants.items())
            },
        }
