"""The asyncio simulation server: HTTP endpoints over the serve engine.

Endpoints (see ``docs/serving.md`` for the full schemas):

* ``GET  /healthz``     — liveness: ``{"ok": true, "state": ...}``;
* ``GET  /status``      — server, engine, tenant and campaign status;
* ``GET  /metrics``     — the registry in Prometheus text format
  (:func:`repro.telemetry.prometheus_text`);
* ``POST /v1/sweep``    — submit sweep points; the response is a JSONL
  stream: one ``accepted`` event, one ``result``/``error`` event per
  point *as it completes*, one terminal ``done`` event;
* ``POST /v1/campaign`` — submit a campaign spec; JSONL stream of
  ``accepted``, periodic ``progress`` and a terminal ``done`` event
  carrying the ``aggregate_digest``.

Admission control is visible at the HTTP layer: spec errors are 400,
quota/backpressure rejections are **429 with a ``Retry-After`` header**
(the body repeats the estimate machine-readably), and a draining server
answers 503.  Graceful shutdown — SIGTERM/SIGINT or
:meth:`ReproServer.shutdown` — stops admissions, finishes and streams
every already-admitted point, flushes a final ``status.json`` (its
``metrics`` the registry snapshot) into the state dir, and only then
closes the listener; campaigns keep checkpointing to the last instant,
so even an ungraceful ``kill -9`` loses nothing a resume cannot redo.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import repro
from repro.serve.campaigns import CampaignManager
from repro.serve.engine import QuotaExceeded, ServeEngine, ServerDraining, Ticket
from repro.serve.http import (
    HttpError,
    Request,
    ResponseWriter,
    read_request,
)
from repro.serve.protocol import (
    MAX_POINTS_PER_REQUEST,
    PROTOCOL_SCHEMA,
    CampaignRequest,
    SpecError,
    SweepRequest,
)
from repro.telemetry.export import prometheus_text
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.status import MANIFEST_FILE, read_status, write_status

__all__ = ["ServeConfig", "ReproServer", "serve_main"]

#: Seconds between campaign progress events on a campaign stream.
_CAMPAIGN_POLL_S = 0.25


@dataclass
class ServeConfig:
    """Everything a :class:`ReproServer` needs to boot.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`ReproServer.port` or the ``--port-file`` the CLI writes).
    ``jobs=0`` executes points on in-process threads — same results as
    a process pool, no pickling; ``jobs>=1`` runs a process pool of
    that width.  ``drain_timeout_s`` caps how long graceful shutdown
    waits for in-flight work.
    """

    host: str = "127.0.0.1"
    port: int = 0
    jobs: int = 0
    state_dir: str = "serve-state"
    cache: Optional[object] = None
    max_queue: int = 1024
    tenant_quota: int = 256
    max_points_per_request: int = MAX_POINTS_PER_REQUEST
    max_campaigns: int = 4
    drain_timeout_s: float = 30.0
    auto_resume: bool = True
    name: str = "repro-serve"


class ReproServer:
    """One serving process: listener + engine + campaign manager."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.registry = MetricsRegistry()
        self.engine = ServeEngine(
            jobs=config.jobs,
            cache=config.cache,
            max_queue=config.max_queue,
            tenant_quota=config.tenant_quota,
            registry=self.registry,
        )
        self.campaigns = CampaignManager(
            config.state_dir,
            jobs=config.jobs if config.jobs >= 1 else None,
            cache=config.cache,
            max_active=config.max_campaigns,
        )
        self.state = "starting"
        self.started_at = time.time()
        self._server: Optional[asyncio.base_events.Server] = None
        self._req_counter = 0
        self._shutdown_requested = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener, start the engine, resume leftover campaigns."""
        os.makedirs(self.config.state_dir, exist_ok=True)
        await self.engine.start()
        if self.config.auto_resume:
            resumed = self.campaigns.resume_incomplete()
            if resumed:
                self.registry.counter("serve.campaigns_auto_resumed").inc(
                    len(resumed)
                )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.state = "serving"

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` ephemeral binds)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Signal-safe trigger for graceful shutdown."""
        self._shutdown_requested.set()

    async def wait_shutdown(self) -> None:
        """Block until someone calls :meth:`request_shutdown`."""
        await self._shutdown_requested.wait()

    async def shutdown(self) -> bool:
        """Drain and stop.  Returns True when the drain completed.

        Order matters: flip to ``draining`` (new submissions get 503)
        while the listener stays open so in-flight streams finish, wait
        for the engine, flush the final status file, then close the
        listener and the fleet.
        """
        if self.state == "stopped":
            return True
        self.state = "draining"
        drained = await self.engine.drain(self.config.drain_timeout_s)
        deadline = time.monotonic() + max(
            self.config.drain_timeout_s - 0.0, 0.1
        )
        for job in self.campaigns.active():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            await asyncio.to_thread(job.done.wait, remaining)
        self.state = "stopped"
        self.flush_state_files()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.engine.stop()
        return drained

    def flush_state_files(self) -> None:
        """Atomically write ``status.json`` into the state dir.

        It is the ``/status`` document plus, under ``metrics``, the
        registry snapshot that ``/metrics`` renders.
        """
        write_status(
            self.config.state_dir,
            {**self.status_doc(), "metrics": self.registry.snapshot()},
        )

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status_doc(self) -> Dict[str, object]:
        """The ``/status`` document: server, engine, tenants, campaigns."""
        engine = self.engine.stats()
        counters = engine["counters"]
        elapsed = max(time.time() - self.started_at, 1e-9)
        completed = int(counters.get("serve.computed", 0)) + int(  # type: ignore[union-attr]
            counters.get("serve.cache_hits", 0)  # type: ignore[union-attr]
        )
        return {
            "schema": "repro.serve.status/1",
            "name": self.config.name,
            "state": self.state,
            "version": getattr(repro, "__version__", "0"),
            "pid": os.getpid(),
            "started_at": self.started_at,
            "updated_at": time.time(),
            "uptime_s": elapsed,
            "points_done": completed,
            "points_planned": None,
            "rate_per_s": completed / elapsed,
            "eta_s": None,
            "events_per_s": None,
            "workers": {
                str(slot): {} for slot in range(int(engine["width"]))  # type: ignore[arg-type]
            },
            "engine": engine,
            "tenants": engine["tenants"],
            "campaigns": self.campaigns.statuses(),
            "cache": (
                self.config.cache.stats_dict()
                if self.config.cache is not None
                else None
            ),
        }

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        response = ResponseWriter(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    await response.send_json(
                        exc.status, {"error": exc.reason}, keep_alive=False
                    )
                    break
                if request is None:
                    break
                await self._route(request, response)
                if response.streaming or not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(
        self, request: Request, response: ResponseWriter
    ) -> None:
        route = (request.method, request.path)
        if request.method in ("GET", "HEAD"):
            if request.path == "/healthz":
                await response.send_json(
                    200,
                    {"ok": self.state in ("serving", "draining"),
                     "state": self.state},
                )
                return
            if request.path == "/status":
                await response.send_json(200, self.status_doc())
                return
            if request.path == "/metrics":
                body = prometheus_text(self.registry.snapshot()).encode(
                    "utf-8"
                )
                await response.send(
                    200, body, content_type="text/plain; version=0.0.4"
                )
                return
            await response.send_json(
                404, {"error": f"no such path: {request.path}"}
            )
            return
        if route == ("POST", "/v1/sweep"):
            await self._handle_sweep(request, response)
            return
        if route == ("POST", "/v1/campaign"):
            await self._handle_campaign(request, response)
            return
        await response.send_json(
            404, {"error": f"no such route: {request.method} {request.path}"}
        )

    def _next_request_id(self, supplied: Optional[str]) -> str:
        self._req_counter += 1
        return supplied if supplied else f"r{self._req_counter:08d}"

    # ------------------------------------------------------------------
    # Sweep streaming
    # ------------------------------------------------------------------
    async def _handle_sweep(
        self, request: Request, response: ResponseWriter
    ) -> None:
        try:
            sweep = SweepRequest.parse(
                request.json(),
                max_points=self.config.max_points_per_request,
            )
        except SpecError as exc:
            await response.send_json(400, {"error": str(exc)})
            return
        try:
            tickets = self.engine.submit(sweep)
        except ServerDraining as exc:
            await response.send_json(
                503,
                {"error": str(exc), "retry_after_s": 5.0},
                extra_headers={"Retry-After": "5"},
            )
            return
        except QuotaExceeded as exc:
            retry_after = max(int(exc.retry_after_s + 0.999), 1)
            await response.send_json(
                429,
                {
                    "error": exc.reason,
                    "retry_after_s": exc.retry_after_s,
                },
                extra_headers={"Retry-After": str(retry_after)},
            )
            return
        request_id = self._next_request_id(sweep.request_id)
        await response.start_stream(200)
        await response.stream_event(
            {
                "event": "accepted",
                "schema": PROTOCOL_SCHEMA,
                "request_id": request_id,
                "tenant": sweep.tenant,
                "points": len(tickets),
            }
        )
        by_future: Dict[asyncio.Future, List[Ticket]] = {}
        for ticket in tickets:
            by_future.setdefault(ticket.future, []).append(ticket)
        counts = {"queued": 0, "coalesced": 0, "cached": 0}
        ok = errors = 0
        for ticket in tickets:
            counts[ticket.source] += 1

        async def settle(future: asyncio.Future):
            try:
                return future, await future, None
            except Exception as exc:
                return future, None, str(exc)

        for wrapper in asyncio.as_completed(
            [settle(f) for f in by_future]
        ):
            future, payload, error = await wrapper
            # One engine future may satisfy several requested indices
            # (duplicates in one request); emit an event per index.
            for ticket in by_future[future]:
                if payload is None:
                    errors += 1
                    await response.stream_event(
                        {
                            "event": "error",
                            "request_id": request_id,
                            "index": ticket.index,
                            "digest": ticket.digest,
                            "error": error,
                        }
                    )
                else:
                    ok += 1
                    await response.stream_event(
                        {
                            "event": "result",
                            "request_id": request_id,
                            "index": ticket.index,
                            "digest": ticket.digest,
                            "result_digest": payload.result_digest,
                            "source": ticket.source,
                            "summary": payload.summary,
                        }
                    )
        await response.stream_event(
            {
                "event": "done",
                "request_id": request_id,
                "ok": ok,
                "errors": errors,
                "sources": counts,
            }
        )

    # ------------------------------------------------------------------
    # Campaign streaming
    # ------------------------------------------------------------------
    async def _handle_campaign(
        self, request: Request, response: ResponseWriter
    ) -> None:
        if self.state != "serving":
            await response.send_json(
                503,
                {"error": "server is draining", "retry_after_s": 5.0},
                extra_headers={"Retry-After": "5"},
            )
            return
        try:
            creq = CampaignRequest.parse(request.json())
        except SpecError as exc:
            await response.send_json(400, {"error": str(exc)})
            return
        try:
            job = self.campaigns.submit(creq.spec, jobs=creq.jobs)
        except RuntimeError as exc:
            await response.send_json(
                429,
                {"error": str(exc), "retry_after_s": 10.0},
                extra_headers={"Retry-After": "10"},
            )
            return
        request_id = self._next_request_id(None)
        await response.start_stream(200)
        await response.stream_event(
            {
                "event": "accepted",
                "schema": PROTOCOL_SCHEMA,
                "request_id": request_id,
                "tenant": creq.tenant,
                **job.as_dict(),
            }
        )
        last_done = -1
        while job.state == "running":
            await asyncio.sleep(_CAMPAIGN_POLL_S)
            try:
                status = read_status(job.directory) or {}
            except (OSError, ValueError):
                status = {}
            done = status.get("points_done")
            if done is not None and done != last_done:
                last_done = done  # type: ignore[assignment]
                await response.stream_event(
                    {
                        "event": "progress",
                        "request_id": request_id,
                        "job_id": job.job_id,
                        "points_done": done,
                        "points_planned": status.get("points_planned"),
                        "state": status.get("state"),
                    }
                )
        await response.stream_event(
            {
                "event": "done",
                "request_id": request_id,
                **job.as_dict(),
                "manifest": os.path.join(job.directory, MANIFEST_FILE),
            }
        )


async def serve_main(
    config: ServeConfig,
    port_file: Optional[str] = None,
    install_signals: bool = True,
    ready: Optional[asyncio.Event] = None,
) -> int:
    """Boot a server, run until shutdown is requested, drain, exit.

    ``port_file`` (used by the CLI and the load harness) atomically
    writes the bound port as text once listening.  Returns 0 on a clean
    drain, 1 when the drain timed out and work was abandoned.
    """
    server = ReproServer(config)
    await server.start()
    if port_file:
        # Renamed into place; no fsync, the port means nothing after a crash.
        tmp = f"{port_file}.tmp"
        os.makedirs(os.path.dirname(os.path.abspath(tmp)), exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(f"{server.port}\n")
        os.replace(tmp, port_file)
    if install_signals:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
    print(
        f"repro-serve listening on http://{config.host}:{server.port} "
        f"(jobs={config.jobs}, state={config.state_dir})",
        flush=True,
    )
    if ready is not None:
        ready.set()
    await server.wait_shutdown()
    drained = await server.shutdown()
    print(
        f"repro-serve stopped ({'drained' if drained else 'DRAIN TIMEOUT'})",
        flush=True,
    )
    return 0 if drained else 1
