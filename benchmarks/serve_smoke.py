"""Serving crash-recovery smoke: overlap, kill -9, restart, resume.

This is the CI gate for the server's durability story, driven through
real subprocesses of ``python -m repro serve``:

1. boot a server; two clients submit **overlapping** sweeps
   concurrently — both streams must complete, agree with each other,
   and agree with a direct :func:`repro.experiments.run_many` oracle;
2. submit a campaign and ``SIGKILL`` the server mid-run (after at least
   one checkpointed result, before the manifest exists) — the ugliest
   possible death: no drain, no flush, no goodbye;
3. restart a server on the same state dir — startup auto-resume must
   pick the interrupted campaign up and finish it;
4. the resumed campaign's ``aggregate_digest`` must be byte-identical
   to the same spec run uninterrupted through
   :func:`repro.campaign.run_campaign` in this process;
5. the restarted server must still answer ``/status`` and ``/metrics``
   (both archived with ``--artifacts``), and shut down gracefully with
   exit code 0.

Usage::

    PYTHONPATH=src python benchmarks/serve_smoke.py
    PYTHONPATH=src python benchmarks/serve_smoke.py --artifacts out/

Exit status is non-zero on any stream failure, digest mismatch, missed
resume, or unclean shutdown.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.campaign import CampaignSpec, run_campaign
from repro.core.system import SystemConfig
from repro.experiments.parallel import run_many
from repro.obs.provenance import result_digest
from repro.serve.campaigns import CAMPAIGNS_SUBDIR
from repro.serve.client import LocalServer, ServeClient, sweep_request_doc

BASE = {"width": 2, "height": 2, "horizon_us": 2000.0}

#: The campaign is sized so the kill lands mid-run: enough points that
#: checkpoint N exists while the manifest does not.
CAMPAIGN_SPEC = {
    "name": "serve-smoke",
    "base": dict(BASE, horizon_us=20000.0),
    "grid": {"tdp_w": [40.0, 60.0]},
    "seeds": {"start": 1, "count": 4},
}


def fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


async def overlapping_sweeps(port: int) -> dict:
    """Two tenants sweep overlapping seed ranges concurrently."""
    client = ServeClient("127.0.0.1", port)
    doc_a = sweep_request_doc(
        [{"seed": s} for s in (1, 2, 3, 4)], tenant="alice", base=BASE
    )
    doc_b = sweep_request_doc(
        [{"seed": s} for s in (3, 4, 5, 6)], tenant="bob", base=BASE
    )
    events_a, events_b = await asyncio.gather(
        client.sweep(doc_a, max_retries=10),
        client.sweep(doc_b, max_retries=10),
    )
    status = await client.status()
    return {"a": events_a, "b": events_b, "status": status}


def check_overlap(load: dict) -> int:
    by_seed = {}
    for name, seeds in (("a", (1, 2, 3, 4)), ("b", (3, 4, 5, 6))):
        events = load[name]
        if events[-1].get("event") != "done" or events[-1].get("errors"):
            return fail(f"stream {name} ended badly: {events[-1]}")
        results = ServeClient.results_by_index(events)
        for index, seed in enumerate(seeds):
            served = results[index]["result_digest"]
            previous = by_seed.setdefault(seed, served)
            if previous != served:
                return fail(f"seed {seed}: the two streams disagree")
    direct = run_many(
        [SystemConfig(**BASE, seed=s) for s in sorted(by_seed)]
    )
    for seed, result in zip(sorted(by_seed), direct):
        if by_seed[seed] != result_digest(result):
            return fail(f"seed {seed}: served != direct run_many")
    counters = load["status"]["engine"]["counters"]
    print(
        f"[ok]   overlapping sweeps agree with run_many "
        f"({int(counters.get('serve.computed', 0))} computed, "
        f"{int(counters.get('serve.coalesced', 0))} coalesced)"
    )
    return 0


async def submit_campaign_detached(port: int) -> None:
    """Fire the campaign submission and read only the accept event.

    The stream is abandoned afterwards on purpose — the server is about
    to be SIGKILLed and nobody will be left to answer.
    """
    client = ServeClient("127.0.0.1", port)
    stream = client.campaign_events(
        {"tenant": "alice", "spec": CAMPAIGN_SPEC}
    )
    accepted = await stream.__anext__()
    if accepted.get("event") != "accepted":
        raise RuntimeError(f"campaign not accepted: {accepted}")
    await stream.aclose()


def campaign_dir(state_dir: Path) -> Path:
    spec = CampaignSpec.from_dict(CAMPAIGN_SPEC)
    job_id = f"{spec.name}-{spec.spec_digest()[:12]}"
    return state_dir / CAMPAIGNS_SUBDIR / job_id


def wait_for_checkpoints(directory: Path, n: int, timeout_s: float) -> int:
    """Block until ``results.jsonl`` holds >= n records (or time out)."""
    deadline = time.monotonic() + timeout_s
    results = directory / "results.jsonl"
    while time.monotonic() < deadline:
        if results.exists():
            count = len(results.read_text().splitlines())
            if count >= n:
                return count
        time.sleep(0.1)
    return 0


def wait_for_manifest(directory: Path, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if (directory / "manifest.json").exists():
            return True
        time.sleep(0.2)
    return False


async def archive_endpoints(port: int, artifacts: Path) -> None:
    client = ServeClient("127.0.0.1", port)
    status = await client.status()
    (artifacts / "status.json").write_text(
        json.dumps(status, indent=2, sort_keys=True) + "\n"
    )
    (artifacts / "metrics.prom").write_text(await client.metrics_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--artifacts", default=None,
        help="directory to copy /status, /metrics and the campaign "
             "manifest into",
    )
    args = parser.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    state = workdir / "state"

    # Phase 1: overlapping sweeps against a live server.
    first = LocalServer(state_dir=str(state), jobs=args.jobs)
    first.start()
    print(f"[ok]   server up on port {first.port}")
    rc = check_overlap(asyncio.run(overlapping_sweeps(first.port)))
    if rc:
        first.stop()
        return rc

    # Phase 2: campaign submitted, then SIGKILL mid-run.
    asyncio.run(submit_campaign_detached(first.port))
    directory = campaign_dir(state)
    kept = wait_for_checkpoints(directory, 1, timeout_s=120.0)
    if not kept:
        first.stop()
        return fail("campaign produced no checkpoint within the budget")
    first.kill()
    print(f"[ok]   SIGKILLed the server after {kept} checkpoint(s)")
    if (directory / "manifest.json").exists():
        return fail("campaign finished before the kill — nothing resumed")

    # Phase 3: restart on the same state dir; auto-resume finishes it.
    second = LocalServer(state_dir=str(state), jobs=args.jobs)
    second.start()
    print(f"[ok]   restarted on port {second.port}")
    if not wait_for_manifest(directory, timeout_s=300.0):
        second.stop()
        return fail("resumed campaign did not finish within the budget")
    manifest = json.loads((directory / "manifest.json").read_text())
    resumed_digest = manifest["aggregate_digest"]
    print(f"[ok]   resume completed: aggregate {resumed_digest[:16]}")

    # Phase 4: uninterrupted oracle in this process.
    straight = run_campaign(
        str(workdir / "straight"),
        spec=CampaignSpec.from_dict(CAMPAIGN_SPEC),
        jobs=args.jobs,
        telemetry=False,
    )
    if straight.aggregate != resumed_digest:
        second.stop()
        return fail(
            f"resume identity broken: resumed {resumed_digest[:16]} != "
            f"uninterrupted {straight.aggregate[:16]}"
        )
    print("[ok]   resumed aggregate identical to uninterrupted run")

    # Phase 5: live endpoints + graceful shutdown.
    if args.artifacts:
        artifacts = Path(args.artifacts)
        artifacts.mkdir(parents=True, exist_ok=True)
        asyncio.run(archive_endpoints(second.port, artifacts))
        shutil.copy2(directory / "manifest.json", artifacts / "manifest.json")
        print(f"[ok]   artifacts archived to {artifacts}")
    code = second.stop()
    if code != 0:
        return fail(f"graceful shutdown exit code {code}")
    print("[ok]   graceful shutdown exit 0")
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
