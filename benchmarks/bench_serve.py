"""Serving load gate: many tenants, digest identity, dedupe, latency.

This is the CI gate for the ``repro.serve`` contracts under load:

* **digest identity** (always) — every result streamed back by the
  server carries a ``result_digest`` equal to the one a direct
  :func:`repro.experiments.run_many` call produces for the same config.
  The sweep points are drawn from a small universe, so the comparison
  covers queued, coalesced *and* cache-served points in one run;
* **dedupe floor** (``--strict`` only) — the whole load draws from
  ``--universe`` unique configs, so across thousands of requested
  points the engine must actually execute almost nothing: the dedupe
  ratio ``1 - computed/points`` must be at least ``--min-dedupe``
  (default 0.9 — with coalescing and the run cache, only the first
  request for each unique point ever simulates);
* **p95 latency ceiling** (``--strict`` only) — the 95th percentile of
  per-request wall time (submit to terminal ``done`` event) must stay
  under ``--p95-ceiling-s``.  Like every wall-clock gate in this repo
  the ceiling is machine-dependent; digests are meaningful everywhere.

The server runs as a real subprocess (``python -m repro serve``) with a
run cache in its state dir; clients are asyncio tasks — ``--tenants``
tenants, each firing ``--requests`` concurrent sweep requests of
``--points`` points, honoring 429 + Retry-After backpressure with
retries (a rejected request is backpressure working, not a failure).

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py             # digest gate
    PYTHONPATH=src python benchmarks/bench_serve.py --strict    # + floors
    PYTHONPATH=src python benchmarks/bench_serve.py --tenants 16

Exit status is non-zero on any digest mismatch, stream error, or (with
``--strict``) a missed floor/ceiling.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.core.system import SystemConfig
from repro.experiments.parallel import run_many
from repro.obs.provenance import result_digest
from repro.serve.client import LocalServer, ServeClient, sweep_request_doc

#: The shared sweep-point universe: every request asks for ``--points``
#: consecutive seeds out of this window, offset per (tenant, request),
#: so requests overlap heavily — the coalescing/caching workload.
BASE = {"width": 2, "height": 2, "horizon_us": 1200.0}
SEED_START = 1


def universe_configs(n: int) -> list:
    """The ``n`` unique configs the whole load is drawn from."""
    return [
        SystemConfig(**BASE, seed=SEED_START + i) for i in range(n)
    ]


def request_seeds(tenant_i: int, request_i: int, points: int, universe: int):
    """Deterministic, heavily-overlapping seed slice for one request."""
    offset = (tenant_i * 7 + request_i * 3) % universe
    return [
        SEED_START + (offset + j) % universe for j in range(points)
    ]


async def run_load(args, port: int) -> dict:
    client = ServeClient("127.0.0.1", port)
    latencies: list = []
    failures: list = []
    results: dict = {}  # digest -> result_digest (as served)
    source_counts = {"queued": 0, "coalesced": 0, "cached": 0}

    async def one_request(tenant_i: int, request_i: int) -> None:
        doc = sweep_request_doc(
            [
                {"seed": s}
                for s in request_seeds(
                    tenant_i, request_i, args.points, args.universe
                )
            ],
            tenant=f"tenant{tenant_i:02d}",
            base=BASE,
            request_id=f"t{tenant_i}r{request_i}",
        )
        started = time.perf_counter()
        try:
            events = await client.sweep(
                doc, max_retries=50, max_retry_after_s=2.0
            )
        except Exception as exc:
            failures.append(f"t{tenant_i}r{request_i}: {exc}")
            return
        latencies.append(time.perf_counter() - started)
        done = events[-1]
        if done.get("event") != "done" or done.get("errors"):
            failures.append(f"t{tenant_i}r{request_i}: bad stream {done}")
            return
        for event in events:
            if event.get("event") == "result":
                source_counts[event["source"]] = (
                    source_counts.get(event["source"], 0) + 1
                )
                previous = results.setdefault(
                    event["digest"], event["result_digest"]
                )
                if previous != event["result_digest"]:
                    failures.append(
                        f"digest {event['digest'][:12]} served two "
                        f"different results"
                    )

    await asyncio.gather(
        *[
            one_request(t, r)
            for t in range(args.tenants)
            for r in range(args.requests)
        ]
    )
    status = await client.status()
    return {
        "latencies": latencies,
        "failures": failures,
        "results": results,
        "source_counts": source_counts,
        "status": status,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, default=8)
    parser.add_argument(
        "--requests", type=int, default=16,
        help="concurrent sweep requests per tenant (default 16)",
    )
    parser.add_argument(
        "--points", type=int, default=16,
        help="points per request (default 16)",
    )
    parser.add_argument(
        "--universe", type=int, default=24,
        help="unique configs the whole load draws from (default 24)",
    )
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--strict", action="store_true",
        help="enforce the dedupe floor and p95 ceiling too",
    )
    parser.add_argument("--min-dedupe", type=float, default=0.9)
    parser.add_argument("--p95-ceiling-s", type=float, default=30.0)
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the summary document here as JSON",
    )
    args = parser.parse_args()

    total_points = args.tenants * args.requests * args.points
    print(
        f"load: {args.tenants} tenant(s) x {args.requests} request(s) "
        f"x {args.points} point(s) = {total_points} points over "
        f"{args.universe} unique configs"
    )

    # Oracle first: the universe run straight through run_many.
    direct = {}
    configs = universe_configs(args.universe)
    for config, result in zip(configs, run_many(configs, jobs=args.jobs)):
        direct[config.seed] = result_digest(result)

    workdir = Path(tempfile.mkdtemp(prefix="bench-serve-"))
    server = LocalServer(
        state_dir=str(workdir),
        jobs=args.jobs,
        extra_args=[
            "--cache-dir", str(workdir / "cache"),
            "--max-queue", "512",
            "--tenant-quota", "64",
        ],
    )
    server.start()
    started = time.perf_counter()
    try:
        load = asyncio.run(run_load(args, server.port))
    finally:
        code = server.stop()
    elapsed = time.perf_counter() - started
    print(f"load drained in {elapsed:.1f}s; server exit code {code}")

    failed = False
    if load["failures"]:
        failed = True
        for failure in load["failures"][:10]:
            print(f"FAIL: {failure}", file=sys.stderr)

    # Digest identity: every served digest matches the direct oracle.
    served_by_seed = {}
    for config in configs:
        served_by_seed[config.seed] = None
    mismatches = 0
    seen_digests = set(load["results"])
    from repro.obs.provenance import config_digest

    for config in configs:
        digest = config_digest(config)
        if digest not in load["results"]:
            continue  # the load pattern happened not to touch this point
        if load["results"][digest] != direct[config.seed]:
            mismatches += 1
            print(
                f"FAIL: seed {config.seed}: served "
                f"{load['results'][digest][:12]} != direct "
                f"{direct[config.seed][:12]}",
                file=sys.stderr,
            )
    known = {config_digest(c) for c in configs}
    stray = seen_digests - known
    if stray:
        failed = True
        print(f"FAIL: served {len(stray)} unknown digest(s)", file=sys.stderr)
    if mismatches:
        failed = True
    print(
        f"digest identity: {len(seen_digests)} unique point(s) served, "
        f"{mismatches} mismatch(es) vs direct run_many"
    )

    counters = load["status"]["engine"]["counters"]
    computed = int(counters.get("serve.computed", 0))
    n_latencies = sorted(load["latencies"])
    p95 = (
        n_latencies[int(0.95 * (len(n_latencies) - 1))]
        if n_latencies
        else float("inf")
    )
    dedupe = 1.0 - computed / max(total_points, 1)
    print(
        f"dedupe: {computed} computed / {total_points} requested "
        f"-> ratio {dedupe:.3f} (sources: {load['source_counts']})"
    )
    print(
        f"latency: p95 {p95:.2f}s over {len(n_latencies)} completed "
        f"request(s)"
    )

    if args.strict:
        if dedupe < args.min_dedupe:
            failed = True
            print(
                f"FAIL: dedupe ratio {dedupe:.3f} under the "
                f"--min-dedupe floor {args.min_dedupe}",
                file=sys.stderr,
            )
        if p95 > args.p95_ceiling_s:
            failed = True
            print(
                f"FAIL: p95 latency {p95:.2f}s over the ceiling "
                f"{args.p95_ceiling_s}s",
                file=sys.stderr,
            )
        if code != 0:
            failed = True
            print(
                f"FAIL: server drain exit code {code}", file=sys.stderr
            )

    summary = {
        "total_points": total_points,
        "unique_points_served": len(seen_digests),
        "computed": computed,
        "dedupe_ratio": dedupe,
        "p95_s": p95,
        "elapsed_s": elapsed,
        "failures": load["failures"],
        "mismatches": mismatches,
        "source_counts": load["source_counts"],
        "server_exit_code": code,
        "strict": args.strict,
    }
    if args.json:
        Path(args.json).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        print(f"summary written to {args.json}")
    print("PASS" if not failed else "FAIL")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
