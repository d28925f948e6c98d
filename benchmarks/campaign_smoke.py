"""Campaign resume-identity smoke: kill, resume, compare digests.

This is the CI gate for the two contracts ``repro.campaign`` makes:

* **crash tolerance** — a campaign killed mid-run (simulated with the
  deterministic ``interrupt_after`` hook) loses none of its
  checkpointed results;
* **resume identity** — resuming the killed campaign and letting it
  finish produces an ``aggregate_digest`` byte-identical to a straight
  uninterrupted run of the same spec.

The script drives the real CLI (``python -m repro campaign ...``), so
argument plumbing, exit codes and the manifest path are exercised too:

1. ``campaign run`` on the small smoke spec with ``--interrupt-after``
   set mid-grid — must exit with code 3 (interrupted) and leave a
   partial ``results.jsonl`` behind;
2. ``campaign resume`` on the same directory — must exit 0;
3. ``campaign run`` of the same spec into a *fresh* directory, straight
   through;
4. the two manifests' ``aggregate_digest`` values must be equal.

Along the way the telemetry status surface is exercised too: after the
kill, ``campaign status`` must exit 0 and report the campaign as
``interrupted``; after the resume it must report ``complete``.

A warm phase then exercises the run cache (``--cache-dir``):

5. ``campaign run`` into a fresh directory with a fresh cache (cold),
   then again into another one with the same cache (warm, every point
   served from it); both aggregates must equal the straight run's, and
   ``campaign status`` of the warm one must report ``complete``;
6. the warm ``results.jsonl`` is cut in the middle of its fourth line
   and its manifest deleted — what a kill inside the one append that
   checkpoints a served wave leaves — and the cache's pack is cut in
   the middle of its last put's blob — what a kill inside the write of
   a stored result leaves; ``campaign resume`` with the cache must
   finish at the same aggregate;
7. ``cache verify`` on the cache must exit 0 (no corrupt blob).

``--artifacts DIR`` copies the resumed campaign's manifest, checkpoint
store and telemetry exports (``status.json``/``telemetry.prom``/
``telemetry.json``) there for CI artifact upload.  Exit status is
non-zero on any step failure or digest mismatch.

Usage::

    PYTHONPATH=src python benchmarks/campaign_smoke.py --jobs 2
    PYTHONPATH=src python benchmarks/campaign_smoke.py --artifacts out/
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.cache.store import PACK_FILE

SPEC = Path(__file__).resolve().parent / "campaign_smoke_spec.json"

#: Interrupt after this many checkpointed results (the smoke spec plans
#: 2 cells x 3 seeds = 6 points, so this kills the campaign mid-grid).
INTERRUPT_AFTER = 3


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
    )


def _step(name: str, proc: subprocess.CompletedProcess, want_rc: int) -> None:
    status = "ok" if proc.returncode == want_rc else "FAIL"
    print(f"[{status}] {name}: exit {proc.returncode} (want {want_rc})")
    if proc.returncode != want_rc:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        sys.exit(1)


def _aggregate(campaign_dir: Path) -> str:
    manifest = json.loads((campaign_dir / "manifest.json").read_text())
    return manifest["aggregate_digest"]


def _same_aggregate(name: str, campaign_dir: Path, want: str) -> bool:
    got = _aggregate(campaign_dir)
    if got != want:
        print(
            f"FAIL: {name} aggregate {got} differs from the straight "
            f"run's {want}",
            file=sys.stderr,
        )
        return False
    print(f"[ok]   {name}: aggregate digest {got}")
    return True


def _cut_last_put(pack: Path) -> int:
    """Cut ``pack`` in the middle of its last put's blob; returns the cut."""
    data = pack.read_bytes()
    pos = blob_start = blob_size = 0
    while pos < len(data):
        end = data.index(b"\n", pos) + 1
        op = json.loads(data[pos:end])
        if op["op"] == "put":
            blob_start, blob_size = end, op["size"]
            end += op["size"] + 1
        pos = end
    cut = blob_start + blob_size // 2
    pack.write_bytes(data[:cut])
    return cut


def _warm_phase(workdir: Path, common: tuple, want: str) -> int:
    """Steps 5-7: cold and warm runs through one cache, then a resume of
    the warm campaign cut inside its served batch, from a cache cut
    inside its last stored result."""
    cache = ("--cache-dir", str(workdir / "cache"))
    cold, warm = workdir / "cold", workdir / "warm"
    for name, campaign_dir in (("cold cached run", cold),
                               ("warm run", warm)):
        _step(
            name,
            _cli("campaign", "run", str(SPEC), "--dir", str(campaign_dir),
                 *cache, *common),
            want_rc=0,
        )
        if not _same_aggregate(name, campaign_dir, want):
            return 1
    proc = _cli("campaign", "status", str(warm))
    _step("status of the warm run", proc, want_rc=0)
    if "[complete]" not in proc.stdout:
        print(
            "FAIL: status of the warm run does not say complete:\n"
            + proc.stdout,
            file=sys.stderr,
        )
        return 1

    results = warm / "results.jsonl"
    data = results.read_bytes()
    starts = [0] + [i + 1 for i, byte in enumerate(data) if byte == 10]
    cut = (starts[3] + starts[4]) // 2
    results.write_bytes(data[:cut])
    (warm / "manifest.json").unlink()
    print(f"[ok]   warm checkpoint cut at byte {cut}, inside its 4th line")
    cut = _cut_last_put(workdir / "cache" / PACK_FILE)
    print(f"[ok]   cache pack cut at byte {cut}, inside its last put's blob")
    _step(
        "resume of the cut warm run",
        _cli("campaign", "resume", str(warm), *cache, *common),
        want_rc=0,
    )
    if not _same_aggregate("resumed warm run", warm, want):
        return 1
    _step("cache verify", _cli("cache", "verify", *cache), want_rc=0)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", default="2", help="worker processes")
    parser.add_argument(
        "--artifacts", default=None,
        help="directory to copy the campaign manifest + store into",
    )
    args = parser.parse_args()
    workdir = Path(tempfile.mkdtemp(prefix="campaign-smoke-"))
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
    interrupted = workdir / "interrupted"
    straight = workdir / "straight"
    common = ("--jobs", args.jobs, "--backoff-s", "0")

    proc = _cli(
        "campaign", "run", str(SPEC), "--dir", str(interrupted),
        "--interrupt-after", str(INTERRUPT_AFTER), *common,
    )
    _step("run (killed mid-campaign)", proc, want_rc=3)

    results = interrupted / "results.jsonl"
    n_kept = len(results.read_text().splitlines()) if results.exists() else 0
    print(f"[ok]   checkpoint survived the kill: {n_kept} record(s)")
    if n_kept != INTERRUPT_AFTER:
        print(
            f"FAIL: expected {INTERRUPT_AFTER} checkpointed records, "
            f"found {n_kept}",
            file=sys.stderr,
        )
        return 1

    proc = _cli("campaign", "status", str(interrupted))
    _step("status after the kill", proc, want_rc=0)
    if "[interrupted]" not in proc.stdout:
        print(
            "FAIL: status after the kill does not say interrupted:\n"
            + proc.stdout,
            file=sys.stderr,
        )
        return 1

    _step(
        "resume to completion",
        _cli("campaign", "resume", str(interrupted), *common),
        want_rc=0,
    )

    proc = _cli("campaign", "status", str(interrupted))
    _step("status after the resume", proc, want_rc=0)
    if "[complete]" not in proc.stdout:
        print(
            "FAIL: status after the resume does not say complete:\n"
            + proc.stdout,
            file=sys.stderr,
        )
        return 1
    _step(
        "uninterrupted control run",
        _cli("campaign", "run", str(SPEC), "--dir", str(straight), *common),
        want_rc=0,
    )

    resumed_digest = _aggregate(interrupted)
    straight_digest = _aggregate(straight)
    if resumed_digest != straight_digest:
        print(
            f"FAIL: resume identity broken:\n"
            f"  interrupted+resumed: {resumed_digest}\n"
            f"  uninterrupted:       {straight_digest}",
            file=sys.stderr,
        )
        return 1
    print(f"[ok]   resume identity: aggregate digest {resumed_digest}")

    if _warm_phase(workdir, common, straight_digest) != 0:
        return 1

    if args.artifacts:
        dest = Path(args.artifacts)
        dest.mkdir(parents=True, exist_ok=True)
        for name in (
            "manifest.json",
            "results.jsonl",
            "spec.json",
            "status.json",
            "telemetry.prom",
            "telemetry.json",
        ):
            shutil.copy(interrupted / name, dest / name)
        print(f"[ok]   artifacts copied to {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
