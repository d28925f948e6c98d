"""DSE resume-identity smoke: kill a search, resume, compare fronts.

This is the CI gate for the contracts ``repro.dse`` makes on top of the
campaign layer:

* **resume identity** — a search killed mid-generation (simulated with
  the deterministic ``--interrupt-after`` hook) and then resumed
  produces a ``front.json`` byte-identical to a straight uninterrupted
  run of the same spec, ``front_digest`` and all;
* **decision quality** — on the smoke space the finished search finds
  at least one configuration that strictly dominates the paper-default
  configuration on >= 2 objectives at equal escapes;
* **efficiency** — the search evaluates at most 70% of the exhaustive
  grid, and both surrogate pruning and archive cache hits contribute
  (``dse.pruned`` and ``dse.cache_hits`` counters are non-zero).

The script drives the real CLI (``python -m repro dse ...``), so
argument plumbing, exit codes and the artifact paths are exercised:

1. ``dse run`` on the smoke spec with ``--interrupt-after`` set inside
   generation 1 — must exit with code 3 (interrupted) and leave the
   completed generation-0 campaign behind;
2. ``dse run --dir`` on the same directory (no spec argument: the saved
   ``spec.json`` is reused) — must exit 0;
3. ``dse run`` of the same spec into a *fresh* directory, straight
   through — must exit 0;
4. the two ``front.json`` files must be byte-identical;
5. the resumed search's ``report.json`` must pass the quality and
   efficiency gates above (checked through ``repro.dse.report_search``,
   the same reader the ``dse report`` command uses).

``--artifacts DIR`` copies the resumed search's ``front.json`` and
``report.json`` there for CI artifact upload.  Exit status is non-zero
on any step failure, digest mismatch, or gate violation.

Usage::

    PYTHONPATH=src python benchmarks/dse_smoke.py --jobs 2
    PYTHONPATH=src python benchmarks/dse_smoke.py --artifacts out/
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SPEC = Path(__file__).resolve().parent / "dse_smoke_spec.json"

#: Interrupt after this many checkpointed seed-level results.  The
#: smoke spec's generation 0 evaluates 8 candidates x 2 seeds = 16
#: points, so a budget of 20 kills the search 4 points into
#: generation 1 — after a full generation completed, mid-way through
#: the next.
INTERRUPT_AFTER = 20

#: The search must evaluate at most this fraction of the exhaustive
#: grid (pruning + cache hits make up the rest).
MAX_EVALUATED_FRACTION = 0.7


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


def _check_gates(search_dir: Path) -> int:
    from repro.dse import report_search

    outcome = report_search(str(search_dir))
    if not outcome.complete:
        print("FAIL: resumed search is not complete", file=sys.stderr)
        return 1

    dominating = outcome.dominating_default(min_better=2)
    if not dominating:
        print(
            "FAIL: no front point dominates the paper-default config "
            "on >= 2 objectives at equal escapes",
            file=sys.stderr,
        )
        return 1
    best = dominating[0]
    print(
        f"[ok]   decision quality: {len(dominating)} front point(s) "
        f"dominate the default, e.g. {best['params']}"
    )

    exhaustive = outcome.exhaustive_size
    evaluated = outcome.counters["evaluated"]
    budget = int(MAX_EVALUATED_FRACTION * exhaustive)
    if evaluated > budget:
        print(
            f"FAIL: evaluated {evaluated} points, budget is {budget} "
            f"(70% of the exhaustive {exhaustive})",
            file=sys.stderr,
        )
        return 1
    pruned = outcome.counters["pruned"]
    hits = outcome.counters["cache_hits"]
    if pruned < 1 or hits < 1:
        print(
            f"FAIL: expected both pruning and cache hits to contribute "
            f"(pruned={pruned}, cache_hits={hits})",
            file=sys.stderr,
        )
        return 1
    print(
        f"[ok]   efficiency: evaluated {evaluated}/{exhaustive} exhaustive "
        f"points (pruned {pruned}, archive hits {hits})"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", default="2", help="worker processes")
    parser.add_argument(
        "--artifacts", default=None,
        help="directory to copy front.json and report.json into",
    )
    args = parser.parse_args()
    workdir = Path(tempfile.mkdtemp(prefix="dse-smoke-"))
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

    proc = _cli(
        "dse", "run", str(SPEC), "--dir", str(interrupted),
        "--interrupt-after", str(INTERRUPT_AFTER), "--jobs", args.jobs,
    )
    _step("run (killed inside generation 1)", proc, want_rc=3)

    gen0 = interrupted / "gen-000" / "results.jsonl"
    if not gen0.exists():
        print("FAIL: generation 0 checkpoint missing after the kill",
              file=sys.stderr)
        return 1
    print("[ok]   generation-0 checkpoint survived the kill")

    _step(
        "resume to completion",
        _cli("dse", "run", "--dir", str(interrupted), "--jobs", args.jobs),
        want_rc=0,
    )
    _step(
        "uninterrupted control run",
        _cli("dse", "run", str(SPEC), "--dir", str(straight),
             "--jobs", args.jobs),
        want_rc=0,
    )

    resumed_front = (interrupted / "front.json").read_bytes()
    straight_front = (straight / "front.json").read_bytes()
    if resumed_front != straight_front:
        print("FAIL: resume identity broken: front.json differs between "
              "the resumed and uninterrupted searches", file=sys.stderr)
        return 1
    import json
    digest = json.loads(resumed_front)["front_digest"]
    print(f"[ok]   resume identity: front digest {digest}")

    rc = _check_gates(interrupted)
    if rc:
        return rc

    proc = _cli("dse", "report", str(interrupted))
    _step("dse report renders", proc, want_rc=0)

    if args.artifacts:
        dest = Path(args.artifacts)
        dest.mkdir(parents=True, exist_ok=True)
        for name in ("front.json", "report.json", "spec.json"):
            shutil.copy(interrupted / name, dest / name)
        print(f"[ok]   artifacts copied to {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
