"""Minimal HTTP/1.1 on asyncio streams — enough protocol, no framework.

The serve subsystem deliberately stays on the stdlib (the repo's
no-new-hard-dependencies rule), and ``http.server`` is thread-per-
connection and synchronous — useless for a server whose whole point is
thousands of cheap concurrent streams.  So this module implements the
small honest subset of HTTP/1.1 the service needs:

* request parsing (request line, headers, ``Content-Length`` bodies)
  with hard limits on header and body size;
* fixed-length JSON/text responses (keep-alive friendly), and
* **close-delimited streaming responses** for JSONL event streams: no
  ``Content-Length``, ``Connection: close``, one flushed line per
  event, end-of-stream = end-of-connection.  Trivially consumable by
  the bundled client, ``curl``, or any language's line reader.

Anything outside that subset (chunked encoding, trailers, pipelining,
TLS) is out of scope on purpose.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import Dict, Optional
from urllib.parse import parse_qsl, urlsplit

from repro.serve.jsonl import SpecError, encode_line

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "HttpError",
    "Request",
    "ResponseWriter",
    "read_request",
]

#: Upper bound on the request line + headers block.
MAX_HEADER_BYTES = 64 * 1024
#: Upper bound on a request body (campaign grids are text, not blobs).
MAX_BODY_BYTES = 16 * 1024 * 1024

_SUPPORTED_METHODS = ("GET", "POST", "HEAD")


class HttpError(Exception):
    """A malformed or unserviceable request, mapped to an HTTP status."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.status = status
        self.reason = reason


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Dict[str, object]:
        """The body parsed as a JSON object (:class:`SpecError` if not)."""
        try:
            data = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise SpecError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise SpecError("request body must be a JSON object")
        return data

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to reuse the connection."""
        return self.headers.get("connection", "keep-alive").lower() != "close"


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on clean EOF.

    Raises :class:`HttpError` on oversize headers/bodies, unsupported
    methods, or a garbled request line — the connection handler turns
    those into error responses and closes.
    """
    try:
        header_block = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise HttpError(400, "truncated request") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(431, "request headers too large") from exc
    if len(header_block) > MAX_HEADER_BYTES:
        raise HttpError(431, "request headers too large")
    lines = header_block.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    if method not in _SUPPORTED_METHODS:
        raise HttpError(405, f"method {method} not supported")
    try:
        split = urlsplit(target)
    except ValueError as exc:  # e.g. an unbalanced "[" in the host part
        raise HttpError(400, f"malformed request target: {target!r}") from exc
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        try:
            length = int(raw_length)
        except ValueError as exc:
            raise HttpError(400, "malformed Content-Length") from exc
        if length < 0:
            raise HttpError(400, "negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, "request body too large")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "truncated request body") from exc
    elif headers.get("transfer-encoding"):
        raise HttpError(411, "chunked request bodies not supported")
    return Request(
        method=method,
        path=split.path or "/",
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


class ResponseWriter:
    """Writes fixed or streaming responses onto one connection."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.streaming = False

    def _status_line(self, status: int) -> str:
        try:
            reason = HTTPStatus(status).phrase
        except ValueError:
            reason = "Unknown"
        return f"HTTP/1.1 {status} {reason}\r\n"

    async def send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        keep_alive: bool = True,
        extra_headers: Optional[Dict[str, str]] = None,
        head_only: bool = False,
    ) -> None:
        """Send a complete fixed-length response."""
        headers = [
            self._status_line(status),
            f"Content-Type: {content_type}\r\n",
            f"Content-Length: {len(body)}\r\n",
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n",
        ]
        for name, value in (extra_headers or {}).items():
            headers.append(f"{name}: {value}\r\n")
        headers.append("\r\n")
        self.writer.write("".join(headers).encode("latin-1"))
        if not head_only:
            self.writer.write(body)
        await self.writer.drain()

    async def send_json(
        self,
        status: int,
        doc: Dict[str, object],
        keep_alive: bool = True,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Send a dict as a pretty-printed JSON response."""
        body = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode(
            "utf-8"
        )
        await self.send(
            status,
            body,
            keep_alive=keep_alive,
            extra_headers=extra_headers,
        )

    async def start_stream(
        self, status: int = 200, content_type: str = "application/x-ndjson"
    ) -> None:
        """Open a close-delimited JSONL stream (ends when we close)."""
        self.streaming = True
        headers = (
            self._status_line(status)
            + f"Content-Type: {content_type}\r\n"
            + "Connection: close\r\n"
            + "\r\n"
        )
        self.writer.write(headers.encode("latin-1"))
        await self.writer.drain()

    async def stream_event(self, event: Dict[str, object]) -> None:
        """Write one JSONL event line and flush it to the socket.

        ``drain()`` per line applies socket backpressure: a slow
        consumer slows its own stream, never the engine.
        """
        self.writer.write(encode_line(event))
        await self.writer.drain()
