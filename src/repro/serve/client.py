"""Client library for the repro simulation service.

Three layers, smallest first:

* :func:`fetch_status` / :func:`fetch_json` — synchronous one-shot
  GETs over :mod:`urllib`, used by ``repro top --url`` and scripts;
* :class:`ServeClient` — an asyncio client speaking the JSONL streaming
  protocol: submit sweeps and campaigns, iterate events as they arrive,
  and optionally honor ``Retry-After`` backoff on 429 rejections;
* :class:`LocalServer` — a subprocess harness that boots ``repro
  serve`` on an ephemeral port, waits for readiness via the port file,
  and can kill it gracefully (SIGTERM) or brutally (SIGKILL) — the
  benchmarks and the serve-smoke CI job drive servers through it.

Everything here is stdlib-only, like the server.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from typing import AsyncIterator, Dict, List, Optional, Sequence

from repro.serve.jsonl import decode_line

__all__ = [
    "BusyError",
    "LocalServer",
    "QuotaError",
    "ServeClient",
    "ServerError",
    "fetch_json",
    "fetch_status",
    "sweep_request_doc",
]


class ServerError(RuntimeError):
    """A non-success HTTP response from the server."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class QuotaError(ServerError):
    """A 429 rejection; ``retry_after_s`` says when to try again."""

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(429, message)
        self.retry_after_s = retry_after_s


class BusyError(ServerError):
    """A 503 rejection — the server is draining for shutdown."""

    def __init__(self, message: str, retry_after_s: float = 5.0) -> None:
        super().__init__(503, message)
        self.retry_after_s = retry_after_s


# ----------------------------------------------------------------------
# Synchronous one-shot helpers
# ----------------------------------------------------------------------
def fetch_json(url: str, timeout_s: float = 10.0) -> Dict[str, object]:
    """GET ``url`` and parse the JSON body (raises on HTTP errors)."""
    import urllib.request  # only the one-shot helpers need it

    request = urllib.request.Request(url, method="GET")
    with urllib.request.urlopen(request, timeout=timeout_s) as reply:
        data = json.loads(reply.read().decode("utf-8"))
    if not isinstance(data, dict):
        raise ServerError(502, f"{url} did not return a JSON object")
    return data


def fetch_status(url: str, timeout_s: float = 10.0) -> Dict[str, object]:
    """Fetch a server's ``/status`` document given its base URL.

    Accepts ``host:port``, ``http://host:port`` or a full ``/status``
    URL; used by ``repro top --url``.
    """
    base = url if "://" in url else f"http://{url}"
    if not base.rstrip("/").endswith("/status"):
        base = base.rstrip("/") + "/status"
    return fetch_json(base, timeout_s=timeout_s)


def sweep_request_doc(
    points: Sequence[Dict[str, object]],
    tenant: str = "default",
    base: Optional[Dict[str, object]] = None,
    seeds: Optional[Sequence[int]] = None,
    request_id: Optional[str] = None,
) -> Dict[str, object]:
    """Assemble a ``/v1/sweep`` request document from its parts."""
    doc: Dict[str, object] = {"tenant": tenant, "points": list(points)}
    if base:
        doc["base"] = dict(base)
    if seeds is not None:
        doc["seeds"] = list(seeds)
    if request_id is not None:
        doc["request_id"] = request_id
    return doc


# ----------------------------------------------------------------------
# Async streaming client
# ----------------------------------------------------------------------
class ServeClient:
    """Asyncio client for one repro-serve endpoint.

    Stateless between calls — each request opens its own connection, so
    one client instance can be shared by any number of tasks.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    # -- plumbing ------------------------------------------------------
    async def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ):
        reader, writer = await asyncio.open_connection(self.host, self.port)
        payload = body or b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
        status_line = await reader.readline()
        parts = status_line.decode("latin-1").split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            writer.close()
            raise ServerError(502, f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers, reader, writer

    async def _read_body(self, status, headers, reader, writer) -> bytes:
        length = headers.get("content-length")
        if length is not None:
            body = await reader.readexactly(int(length))
        else:
            body = await reader.read()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        return body

    @staticmethod
    def _raise_for_status(status: int, body: bytes) -> None:
        try:
            doc = json.loads(body.decode("utf-8"))
        except ValueError:
            doc = {}
        message = str(doc.get("error", body[:200]))
        retry_after = float(doc.get("retry_after_s", 1.0) or 1.0)
        if status == 429:
            raise QuotaError(message, retry_after)
        if status == 503:
            raise BusyError(message, retry_after)
        raise ServerError(status, message)

    # -- GET endpoints -------------------------------------------------
    async def get_json(self, path: str) -> Dict[str, object]:
        """GET a JSON endpoint (``/healthz``, ``/status``)."""
        status, headers, reader, writer = await self._request("GET", path)
        body = await self._read_body(status, headers, reader, writer)
        if status != 200:
            self._raise_for_status(status, body)
        return json.loads(body.decode("utf-8"))

    async def healthz(self) -> Dict[str, object]:
        """The server's liveness document."""
        return await self.get_json("/healthz")

    async def status(self) -> Dict[str, object]:
        """The server's full ``/status`` document."""
        return await self.get_json("/status")

    async def metrics_text(self) -> str:
        """The raw Prometheus exposition from ``/metrics``."""
        status, headers, reader, writer = await self._request(
            "GET", "/metrics"
        )
        body = await self._read_body(status, headers, reader, writer)
        if status != 200:
            self._raise_for_status(status, body)
        return body.decode("utf-8")

    # -- streaming submissions -----------------------------------------
    async def _stream(
        self, path: str, doc: Dict[str, object]
    ) -> AsyncIterator[Dict[str, object]]:
        body = json.dumps(doc).encode("utf-8")
        status, headers, reader, writer = await self._request(
            "POST", path, body
        )
        if status != 200:
            raw = await self._read_body(status, headers, reader, writer)
            self._raise_for_status(status, raw)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                event = decode_line(line)
                yield event
                if event.get("event") == "done":
                    # Terminal event: the server closes the stream next,
                    # so there is nothing left to wait for.
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def sweep_events(
        self, doc: Dict[str, object]
    ) -> AsyncIterator[Dict[str, object]]:
        """Submit a sweep, yielding protocol events as they stream in."""
        return self._stream("/v1/sweep", doc)

    async def sweep(
        self,
        doc: Dict[str, object],
        max_retries: int = 0,
        max_retry_after_s: float = 30.0,
    ) -> List[Dict[str, object]]:
        """Submit a sweep and collect the whole event stream.

        With ``max_retries > 0`` a 429/503 rejection sleeps for the
        server-suggested ``retry_after_s`` (capped) and resubmits —
        safe because admission is all-or-nothing and execution is
        deduplicated by digest.
        """
        attempt = 0
        while True:
            try:
                return [event async for event in self.sweep_events(doc)]
            except (QuotaError, BusyError) as exc:
                attempt += 1
                if attempt > max_retries:
                    raise
                await asyncio.sleep(
                    min(exc.retry_after_s, max_retry_after_s)
                )

    def campaign_events(
        self, doc: Dict[str, object]
    ) -> AsyncIterator[Dict[str, object]]:
        """Submit a campaign spec, yielding progress events."""
        return self._stream("/v1/campaign", doc)

    async def campaign(
        self, doc: Dict[str, object]
    ) -> Dict[str, object]:
        """Submit a campaign and block until its terminal event."""
        last: Dict[str, object] = {}
        async for event in self.campaign_events(doc):
            last = event
        if last.get("event") != "done":
            raise ServerError(
                502, f"campaign stream ended without 'done': {last}"
            )
        return last

    @staticmethod
    def results_by_index(
        events: Sequence[Dict[str, object]],
    ) -> Dict[int, Dict[str, object]]:
        """Index the ``result`` events of a collected sweep stream."""
        out: Dict[int, Dict[str, object]] = {}
        for event in events:
            if event.get("event") == "result":
                out[int(event["index"])] = event  # type: ignore[arg-type]
        return out


# ----------------------------------------------------------------------
# Subprocess harness
# ----------------------------------------------------------------------
class LocalServer:
    """Spawn and control a ``repro serve`` subprocess for tests/benches.

    Use as a context manager::

        with LocalServer(state_dir=tmp) as srv:
            client = ServeClient("127.0.0.1", srv.port)

    ``kill()`` sends SIGKILL (for crash-recovery drills), ``stop()``
    sends SIGTERM and waits for the graceful drain.  The same
    ``state_dir`` can be handed to a second ``LocalServer`` to exercise
    restart-resume.
    """

    def __init__(
        self,
        state_dir: str,
        jobs: int = 0,
        extra_args: Optional[Sequence[str]] = None,
        startup_timeout_s: float = 30.0,
        host: str = "127.0.0.1",
    ) -> None:
        self.state_dir = state_dir
        self.jobs = jobs
        self.extra_args = list(extra_args or [])
        self.startup_timeout_s = startup_timeout_s
        self.host = host
        self.port: Optional[int] = None
        self.process: Optional[subprocess.Popen] = None
        self._port_file = os.path.join(
            state_dir, f"port-{os.getpid()}-{id(self):x}.txt"
        )

    def start(self) -> "LocalServer":
        """Launch the subprocess and wait until it is listening."""
        os.makedirs(self.state_dir, exist_ok=True)
        if os.path.exists(self._port_file):
            os.unlink(self._port_file)
        env = dict(os.environ)
        src_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            self.host,
            "--port",
            "0",
            "--port-file",
            self._port_file,
            "--state-dir",
            self.state_dir,
            "--jobs",
            str(self.jobs),
            *self.extra_args,
        ]
        self.process = subprocess.Popen(
            command,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + self.startup_timeout_s
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited during startup "
                    f"(code {self.process.returncode})"
                )
            try:
                with open(self._port_file, encoding="utf-8") as handle:
                    text = handle.read().strip()
                if text:
                    self.port = int(text)
                    return self
            except (OSError, ValueError):
                pass
            time.sleep(0.01)
        raise TimeoutError(
            f"server did not write {self._port_file} within "
            f"{self.startup_timeout_s}s"
        )

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        assert self.port is not None
        return f"http://{self.host}:{self.port}"

    def kill(self) -> None:
        """SIGKILL the server — simulates a crash, no drain."""
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
            self.process.wait(timeout=10)

    def stop(self, timeout_s: float = 60.0) -> int:
        """SIGTERM the server and wait for its graceful exit code."""
        if self.process is None:
            return 0
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        return int(self.process.returncode or 0)

    def __enter__(self) -> "LocalServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
