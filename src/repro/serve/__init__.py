"""Simulation-as-a-service: a multi-tenant async server for sweeps.

``repro.serve`` turns the experiment engine into a long-running
service: many clients submit sweep points and campaign specs over HTTP,
a shared worker fleet executes them, and results stream back as JSONL
events the moment each point finishes.  The subsystem is stdlib-only
and built from six small layers:

* :mod:`repro.serve.jsonl` — the JSONL line codec and ``SpecError``,
  which import nothing of the simulator;
* :mod:`repro.serve.protocol` — request validation; sweeps resolve
  into fully-materialized ``SystemConfig`` points, each carrying its
  ``config_digest``;
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
  used by tests, benchmarks and ``repro top --url``.  The client
  imports only the standard library and the codec, and each name below
  is imported from its layer on first use.

The determinism contract is the whole point: a result obtained through
the server — queued, coalesced or cached — has the same
``result_digest`` as the same config run directly through
:func:`repro.experiments.run_many`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "MAX_POINTS_PER_REQUEST": "protocol",
    "PROTOCOL_SCHEMA": "protocol",
    "BusyError": "client",
    "CampaignJob": "campaigns",
    "CampaignManager": "campaigns",
    "CampaignRequest": "protocol",
    "HttpError": "http",
    "LocalServer": "client",
    "PointPayload": "engine",
    "QuotaError": "client",
    "QuotaExceeded": "engine",
    "ReproServer": "server",
    "Request": "http",
    "ResponseWriter": "http",
    "ServeClient": "client",
    "ServeConfig": "server",
    "ServeEngine": "engine",
    "ServerDraining": "engine",
    "ServerError": "client",
    "SpecError": "jsonl",
    "SweepPoint": "protocol",
    "SweepRequest": "protocol",
    "Ticket": "engine",
    "decode_line": "jsonl",
    "encode_line": "jsonl",
    "fetch_json": "client",
    "fetch_status": "client",
    "read_request": "http",
    "serve_main": "server",
    "sweep_request_doc": "client",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
