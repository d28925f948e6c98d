"""Serving crash-recovery smoke: overlap, kill -9, restart, resume.

This is the CI gate for the server's durability story, driven through
real subprocesses of ``python -m repro serve``:

1. boot a server; two clients submit **overlapping** sweeps
   concurrently — both streams must complete, agree with each other,
   and agree with a direct :func:`repro.experiments.run_many` oracle,
   and ``/metrics`` must count one simulated run
   (``repro_sim_runs_total``) per point the server computed;
2. submit a campaign and ``SIGKILL`` the server mid-run (after at least
   one checkpointed result, before the manifest exists) — the ugliest
   possible death: no drain, no flush, no goodbye.  Within 10 s no
   descendant of the server may still run: its pool workers exit with
   their owner, and its forkserver and resource tracker follow them;
3. restart a server on the same state dir — startup auto-resume must
   pick the interrupted campaign up and finish it;
4. the resumed campaign's ``aggregate_digest`` must be byte-identical
   to the same spec run uninterrupted through
   :func:`repro.campaign.run_campaign` in this process;
5. the restarted server must still answer ``/status`` and ``/metrics``
   (both archived with ``--artifacts``), and shut down gracefully with
   exit code 0;
6. on a server of its own, a campaign runs while a sweep stream opened
   before it is still streaming.  Campaign workers must not be forks of
   the threaded server: the sweep stream must reach EOF within 1 s of
   its ``done`` event (a forked worker holds a duplicate of the stream's
   socket), and a SIGTERMed campaign worker must die while the server
   keeps ``serving`` (a forked worker shares the server's signal
   wake-up fd) — after which the campaign finishes at the aggregate of
   a direct ``run_campaign`` of the same spec.

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
import os
import shutil
import signal
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

#: The campaign is sized so the kill lands mid-run: 32 points of about
#: 50 ms each leave most of a second of work at ``--jobs 2`` after the
#: first checkpoint, many times the interval at which phase 2 polls for
#: that checkpoint before it kills the server.
CAMPAIGN_SPEC = {
    "name": "serve-smoke",
    "base": {"width": 8, "height": 8, "horizon_us": 10000.0},
    "grid": {"tdp_w": [40.0, 60.0]},
    "seeds": {"start": 1, "count": 16},
}

#: Seconds between two looks for the first checkpoint in phase 2.
CHECKPOINT_POLL_S = 0.01

#: Phase 6: a sweep long enough to be streaming when the campaign's
#: workers start, and a campaign that outlives the sweep by seconds.
HAZARD_BASE = {"width": 8, "height": 8, "horizon_us": 60000.0}
HAZARD_SPEC = {
    "name": "fork-hazard",
    "base": HAZARD_BASE,
    "grid": {"tdp_w": [40.0, 60.0]},
    "seeds": {"start": 1, "count": 8},
}

#: Longest gap allowed between a stream's ``done`` event and its EOF.
EOF_AFTER_DONE_S = 1.0

#: Longest a SIGKILLed server's descendants may outlive it.
ORPHANS_GONE_S = 10.0


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
    metrics = await client.metrics_text()
    return {"a": events_a, "b": events_b, "status": status, "metrics": metrics}


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
    computed = int(counters.get("serve.computed", 0))
    print(
        f"[ok]   overlapping sweeps agree with run_many "
        f"({computed} computed, "
        f"{int(counters.get('serve.coalesced', 0))} coalesced)"
    )
    samples = dict(
        line.split(" ", 1)
        for line in load["metrics"].splitlines()
        if line and not line.startswith("#")
    )
    runs = samples.get("repro_sim_runs_total")
    if runs is None or int(runs) != computed:
        return fail(
            f"/metrics counts {runs} simulated run(s), the server "
            f"computed {computed}"
        )
    print(f"[ok]   /metrics counts one simulated run per computed point")
    return 0


async def submit_campaign_detached(
    port: int, spec: dict = CAMPAIGN_SPEC
) -> None:
    """Fire the campaign submission and read only the accept event.

    The stream is abandoned afterwards on purpose — in phase 2 the
    server is about to be SIGKILLed and nobody will be left to answer.
    """
    client = ServeClient("127.0.0.1", port)
    stream = client.campaign_events({"tenant": "alice", "spec": spec})
    accepted = await stream.__anext__()
    if accepted.get("event") != "accepted":
        raise RuntimeError(f"campaign not accepted: {accepted}")
    await stream.aclose()


def campaign_dir(state_dir: Path, spec: dict = CAMPAIGN_SPEC) -> Path:
    campaign = CampaignSpec.from_dict(spec)
    job_id = f"{campaign.name}-{campaign.spec_digest()[:12]}"
    return state_dir / CAMPAIGNS_SUBDIR / job_id


async def sweep_until_eof(
    port: int, doc: dict, accepted: asyncio.Event, campaign: Path
):
    """Stream one sweep to EOF: (seconds from ``done`` to EOF, the done
    event, whether ``campaign`` was still running at ``done``).

    Unlike :class:`ServeClient`, which stops reading at ``done``, this
    reader waits for the server's close to arrive; after 60 s without
    it the gap reads as infinite.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(doc).encode("utf-8")
    writer.write(
        (
            f"POST /v1/sweep HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode("latin-1")
        + body
    )
    await writer.drain()
    done = None
    done_at = None
    running = False
    try:
        while await reader.readline() not in (b"\r\n", b""):
            pass  # status line and headers
        while True:
            try:
                line = await asyncio.wait_for(reader.readline(), 60.0)
            except asyncio.TimeoutError:
                return float("inf"), done, running
            if not line:
                break
            event = json.loads(line)
            if event.get("event") == "accepted":
                accepted.set()
            elif event.get("event") == "done":
                done, done_at = event, time.monotonic()
                running = not (campaign / "manifest.json").exists()
    finally:
        accepted.set()
        writer.close()
    if done is None:
        raise RuntimeError("sweep stream ended without a done event")
    return time.monotonic() - done_at, done, running


def alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its reaper counts as dead)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def descendants(pid: int) -> set:
    """Every process below ``pid`` in the ``/proc`` parent tree."""
    parents = {}
    for name in os.listdir("/proc"):
        try:
            with open(f"/proc/{name}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            parents[int(name)] = int(fields[1])
        except (OSError, ValueError):
            continue
    found, frontier = set(), {pid}
    while frontier:
        frontier = {
            child for child, parent in parents.items()
            if parent in frontier and child not in found
        }
        found |= frontier
    return found


async def wait_for_campaign_worker(directory: Path, timeout_s: float) -> int:
    """The pid of a live worker that already ran a point of the campaign.

    Read from the campaign's ``status.json``, whose ``workers`` lists
    the pid of every process that ran a point.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            status = json.loads((directory / "status.json").read_text())
        except (OSError, ValueError):
            status = {}
        for pid in sorted(int(p) for p in status.get("workers", {})):
            if alive(pid):
                return pid
        await asyncio.sleep(0.05)
    return 0


async def fork_hazard(port: int, directory: Path) -> dict:
    """Phase 6: run a campaign under an open sweep stream, then SIGTERM
    one of the campaign's workers."""
    accepted = asyncio.Event()
    sweep = asyncio.create_task(
        sweep_until_eof(
            port,
            sweep_request_doc(
                [{"seed": s} for s in (1, 2, 3, 4)],
                tenant="bob",
                base=HAZARD_BASE,
            ),
            accepted,
            directory,
        )
    )
    await accepted.wait()
    await submit_campaign_detached(port, HAZARD_SPEC)
    pid = await wait_for_campaign_worker(directory, timeout_s=60.0)
    signalled = False
    if pid and not (directory / "manifest.json").exists():
        try:
            os.kill(pid, signal.SIGTERM)
            signalled = True
        except ProcessLookupError:
            pass  # its pool already ended: the campaign is done
        await asyncio.sleep(1.0)
    health = await ServeClient("127.0.0.1", port).healthz()
    eof_gap, done, running = await sweep
    return {
        "pid": pid if signalled else 0,
        "worker_alive": bool(pid) and alive(pid),
        "state": health.get("state"),
        "eof_gap_s": eof_gap,
        "sweep_done": done,
        "campaign_running_at_done": running,
    }


def wait_for_checkpoints(directory: Path, n: int, timeout_s: float) -> int:
    """Block until ``results.jsonl`` holds >= n records (or time out)."""
    deadline = time.monotonic() + timeout_s
    results = directory / "results.jsonl"
    while time.monotonic() < deadline:
        if results.exists():
            count = len(results.read_text().splitlines())
            if count >= n:
                return count
        time.sleep(CHECKPOINT_POLL_S)
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
    rc = 1
    try:
        rc = smoke(args, workdir)
    finally:
        if rc == 0:
            shutil.rmtree(workdir)
        else:
            print(f"work directory kept: {workdir}", file=sys.stderr)
    return rc


def smoke(args: argparse.Namespace, workdir: Path) -> int:
    """Every phase, run in ``workdir``: 0 when all pass."""
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
    family = descendants(first.process.pid)
    first.kill()
    print(f"[ok]   SIGKILLed the server after {kept} checkpoint(s)")
    if (directory / "manifest.json").exists():
        return fail("campaign finished before the kill — nothing resumed")
    deadline = time.monotonic() + ORPHANS_GONE_S
    while any(alive(pid) for pid in family) and time.monotonic() < deadline:
        time.sleep(0.1)
    orphans = sorted(pid for pid in family if alive(pid))
    if orphans:
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        return fail(
            f"{len(orphans)} of the killed server's {len(family)} "
            f"descendants outlived it by {ORPHANS_GONE_S:g}s: {orphans}"
        )
    print(
        f"[ok]   all {len(family)} descendants of the killed server exited"
    )

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

    # Phase 6: campaign workers are not forks of the threaded server.
    if args.jobs < 2:
        # With one job a served campaign runs in the server's own thread.
        print("[skip] phase 6 needs --jobs >= 2 to give campaigns workers")
    else:
        third = LocalServer(state_dir=str(workdir / "hazard"), jobs=args.jobs)
        third.start()
        rc = check_fork_hazard(third, workdir, args.jobs)
        third.stop()
        if rc:
            return rc
    print("PASS")
    return 0


def check_fork_hazard(server: LocalServer, workdir: Path, jobs: int) -> int:
    directory = campaign_dir(workdir / "hazard", HAZARD_SPEC)
    outcome = asyncio.run(fork_hazard(server.port, directory))
    done = outcome["sweep_done"]
    if done.get("errors") or done.get("ok") != 4:
        return fail(f"hazard sweep ended badly: {done}")
    if not outcome["campaign_running_at_done"]:
        return fail("the campaign ended before the sweep: nothing pinned")
    if outcome["eof_gap_s"] > EOF_AFTER_DONE_S:
        return fail(
            f"sweep stream reached EOF {outcome['eof_gap_s']:.1f}s after "
            f"its done event (limit {EOF_AFTER_DONE_S:g}s): a campaign "
            f"worker holds a duplicate of the stream's socket"
        )
    print(
        f"[ok]   sweep stream reached EOF {outcome['eof_gap_s']:.2f}s "
        f"after done, with the campaign running"
    )
    if not outcome["pid"]:
        return fail("no campaign worker to signal before the campaign ended")
    if outcome["state"] != "serving" or outcome["worker_alive"]:
        return fail(
            f"SIGTERM to campaign worker {outcome['pid']}: worker "
            f"{'alive' if outcome['worker_alive'] else 'dead'}, server "
            f"{outcome['state']!r} (a forked worker relays the signal to "
            f"the server)"
        )
    print(
        f"[ok]   SIGTERMed campaign worker {outcome['pid']} died; "
        f"server still serving"
    )
    if not wait_for_manifest(directory, timeout_s=300.0):
        return fail("campaign did not finish after its worker died")
    served = json.loads((directory / "manifest.json").read_text())
    direct = run_campaign(
        str(workdir / "hazard-direct"),
        spec=CampaignSpec.from_dict(HAZARD_SPEC),
        jobs=jobs,
        telemetry=False,
    )
    if served["aggregate_digest"] != direct.aggregate:
        return fail(
            f"campaign after worker death: aggregate "
            f"{served['aggregate_digest'][:16]} != direct "
            f"{direct.aggregate[:16]}"
        )
    print("[ok]   campaign finished at the direct run's aggregate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
