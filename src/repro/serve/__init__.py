"""Simulation-as-a-service: a multi-tenant async server for sweeps.

``repro.serve`` turns the experiment engine into a long-running
service: many clients submit sweep points and campaign specs over HTTP,
a shared worker fleet executes them, and results stream back as JSONL
events the moment each point finishes.  The subsystem is stdlib-only
and built from five small layers:

* :mod:`repro.serve.protocol` — request validation and JSONL framing;
  sweeps resolve into fully-materialized ``SystemConfig`` points, each
  carrying its ``config_digest``;
* :mod:`repro.serve.engine` — the scheduler: per-tenant bounded queues
  with fair round-robin draining, quota/backpressure rejection
  (429 + Retry-After), in-flight **coalescing** (N concurrent requests
  for the same digest cost one simulation), run-cache probing, and
  crash-tolerant pool rebuilds;
* :mod:`repro.serve.http` — minimal asyncio HTTP/1.1 with
  close-delimited streaming responses;
* :mod:`repro.serve.campaigns` — server-owned campaign jobs backed by
  the checkpointing campaign store, so ``kill -9`` + restart resumes
  to a byte-identical aggregate;
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — the wired-up
  server (``repro serve``) and the client library / subprocess harness
  used by tests, benchmarks and ``repro top --url``.

The determinism contract is the whole point: a result obtained through
the server — queued, coalesced or cached — has the same
``result_digest`` as the same config run directly through
:func:`repro.experiments.run_many`.
"""

from repro.serve.campaigns import CampaignJob, CampaignManager
from repro.serve.client import (
    BusyError,
    LocalServer,
    QuotaError,
    ServeClient,
    ServerError,
    fetch_json,
    fetch_status,
    sweep_request_doc,
)
from repro.serve.engine import (
    PointPayload,
    QuotaExceeded,
    ServeEngine,
    ServerDraining,
    Ticket,
)
from repro.serve.http import HttpError, Request, ResponseWriter, read_request
from repro.serve.protocol import (
    MAX_POINTS_PER_REQUEST,
    PROTOCOL_SCHEMA,
    CampaignRequest,
    SpecError,
    SweepPoint,
    SweepRequest,
    decode_line,
    encode_line,
)
from repro.serve.server import ReproServer, ServeConfig, serve_main

__all__ = [
    "MAX_POINTS_PER_REQUEST",
    "PROTOCOL_SCHEMA",
    "BusyError",
    "CampaignJob",
    "CampaignManager",
    "CampaignRequest",
    "HttpError",
    "LocalServer",
    "PointPayload",
    "QuotaError",
    "QuotaExceeded",
    "ReproServer",
    "Request",
    "ResponseWriter",
    "ServeClient",
    "ServeConfig",
    "ServeEngine",
    "ServerDraining",
    "ServerError",
    "SpecError",
    "SweepPoint",
    "SweepRequest",
    "Ticket",
    "decode_line",
    "encode_line",
    "fetch_json",
    "fetch_status",
    "read_request",
    "serve_main",
    "sweep_request_doc",
]
