"""Performance ledger: end-to-end and per-layer host-time benchmark.

Usage (from the repository root)::

    python3 benchmarks/ledger/run.py [--workload W|all] [--seed N]
        [--seconds S] [--trace 0|1] [--runs N] [--json PATH]
    python3 benchmarks/ledger/run.py compare PARENT.json CHANGE.json

Each run starts the workload in a fresh interpreter (``workloads.py``),
prints every metric by name with its unit, the median it reports and
its sample count, and checks every output against the digests frozen in
``digests.json``.  The last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the ``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``)
or its ``per_layer`` metrics (``--trace 1``).  The exit status is
non-zero on any digest mismatch, on a failed trace self-check, or when
the program cannot be run at all.  ``--seconds`` (default: the
``run_seconds`` of ``BENCHMARK.json``) sets how much work a run does.
``--runs N`` repeats each workload with seeds N, N+1, ...; ``--json``
appends every run to a record file, and ``compare`` reads two such
files.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

# Both import only the standard library at module level.
from tracer import LAYERS  # noqa: E402
from workloads import SCRATCH, WORKLOADS, host_scaled  # noqa: E402

#: Set-up probes per measured run, besides the run's own set-up.
PROBES = 4
#: Share of --seconds a traced run's inputs are sized for: they run once
#: untraced and once traced, which takes about twice as long.
TRACED_SHARE = 0.3
COVERAGE_RANGE = (0.98, 1.02)
CHILD_TIMEOUT_S = 170.0


class LedgerError(RuntimeError):
    """The benchmark could not run the program (not a measurement)."""


def load_benchmark() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def child(mode: str, workload: str, work: Path, *extra: str) -> Tuple[dict, float]:
    """Run ``workloads.py`` once; return (its JSON result, spawn time)."""
    command = [
        sys.executable, str(HERE / "workloads.py"), mode,
        "--workload", workload, "--work", str(work), *extra,
    ]
    env = child_env()
    spawned = time.monotonic()
    # A session of its own, so every process the run starts (serve's
    # server and its workers included) can be found and stopped.
    proc = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise LedgerError(f"{workload} {mode} timed out") from None
    finally:
        left = stop_session(proc)
    if left:
        print(f"note: {workload} {mode} left {left} processes running; "
              "killed them", file=sys.stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise LedgerError(
            f"{workload} {mode} exited with code {proc.returncode}"
        )
    return json.loads(lines[-1]), spawned


def session_members(sid: int) -> List[int]:
    """Running (not zombie) processes of session ``sid``, from ``/proc``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                state, _, _, session = handle.read().rsplit(")", 1)[1].split()[:4]
        except (OSError, ValueError):
            continue
        if int(session) == sid and state not in "ZX":
            members.append(int(entry))
    return members


def stop_session(proc: subprocess.Popen) -> int:
    """SIGKILL whatever still runs in ``proc``'s session, wait until all
    of it has ended, and return how many processes were still running
    besides ``proc`` itself."""
    members = session_members(proc.pid)
    for pid in members:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.communicate()
    deadline = time.monotonic() + 30.0
    while session_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    return len([pid for pid in members if pid != proc.pid])


def work_dir(workload: str, tag: str) -> Path:
    path = SCRATCH / f"{workload}-{tag}-{os.getpid()}"
    cleanup(path)
    return path


def cleanup(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# One measured run
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end run: set-up probes, then the timed workload."""
    work = work_dir(workload, "e2e")
    try:
        starts = [child("probe", workload, work) for _ in range(PROBES)]
        starts.append(child(
            "run", workload, work, "--seed", str(seed), "--seconds", str(seconds)
        ))
    finally:
        cleanup(work)
    data = starts[-1][0]
    # Each set-up is timed without the kernel run at its start, and
    # scaled by the kernel times at its start and at its end.
    raw_setups = [d["ready"] - spawned - d["setup_kernel_s"][0] for d, spawned in starts]
    setups = [
        host_scaled(raw, sum(d["setup_kernel_s"]) / 2)
        for raw, (d, _) in zip(raw_setups, starts)
    ]
    extras = {
        key: value for key, value in data["info"].items()
        if isinstance(value, (int, float)) and key not in ("points", "peak_rss_mb")
    }
    extras["setup_s.raw"] = statistics.median(raw_setups)
    metrics = {
        name: dict(metric, how=f"host-scaled {metric['how']}")
        for name, metric in data["metrics"].items()
    }
    metrics["setup_s"] = {
        "value": statistics.median(setups), "unit": "s", "n": len(setups),
        "how": "host-scaled median of",
    }
    metrics["peak_rss_mb"] = {
        "value": data["info"]["peak_rss_mb"], "unit": "MB", "n": None,
        "how": "peak over the run's processes",
    }
    return {
        "data": data,
        "metrics": metrics,
        "extras": extras,
        "errors": data["errors"],
        "incorrect": data["mismatches"],
    }


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    """Per-layer run: an untraced twin, then a traced run of the same inputs.

    A run's inputs are a function of (seed, seconds) alone, so both runs
    get identical inputs and their output digests must agree.
    """
    args = ["--seed", str(seed), "--seconds", str(seconds * TRACED_SHARE)]
    work = work_dir(workload, "trace")
    checks: List[str] = []  # failed trace self-checks
    try:
        if workload == "serve-mixed":
            # Measured from the client side only: no layer spans.
            traced, _ = child("run", workload, work, *args)
            plain = None
        else:
            plain, _ = child("run", workload, work, *args)
            cleanup(work)
            if workload == "paper-e2":
                args += ["--spans", str(SCRATCH / "trace.json")]
            traced, _ = child("run", workload, work, *args, "--trace")
    finally:
        cleanup(work)
    metrics, extras = layer_metrics(traced)
    runs = [traced] if plain is None else [plain, traced]
    if plain is not None:
        extras["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
        low, high = COVERAGE_RANGE
        if not low <= extras["trace.coverage"] <= high:
            checks.append(
                f"trace coverage {extras['trace.coverage']:.4f} outside "
                f"{low}-{high}"
            )
        if traced["digest"] != plain["digest"]:
            checks.append("traced outputs differ from the untraced run")
    return {
        "data": traced,
        "metrics": metrics,
        "extras": extras,
        "errors": [e for run in runs for e in run["errors"]] + checks,
        "incorrect": sum(run["mismatches"] for run in runs) + len(checks),
    }


def layer_metrics(traced: dict) -> Tuple[dict, dict]:
    """Per-layer metrics of one traced run, plus printed-only extras."""
    info: Dict[str, object] = {}
    points = max(int(traced["info"]["points"]), 1)
    layers = traced["info"].get("layers", {})
    wall = traced["wall_s"]
    metrics: Dict[str, dict] = {}
    for layer in LAYERS:
        self_s, calls = layers.get(layer, (0.0, 0))
        metrics[f"{layer}.self_pct"] = {
            "value": 100.0 * self_s / wall, "unit": "%", "n": points,
            "how": "share of traced wall over",
        }
        metrics[f"{layer}.calls"] = {
            "value": calls / points, "unit": "count", "n": points,
            "how": "per point, mean over",
        }
        if calls:
            info[f"{layer}.self_ms"] = 1e3 * self_s / points
    if layers:
        info["trace.coverage"] = sum(s for s, _ in layers.values()) / wall
    serve = traced["info"].get("serve", {})
    shares = {
        "cache.hit_frac": (
            traced["info"].get("cached_points", 0) / points, "frac"
        ),
        "serve.coalesced_frac": (serve.get("coalesced_frac", 0.0), "frac"),
        "serve.ttfb_pct": (100.0 * serve.get("ttfb_share", 0.0), "%"),
        "serve.first_result_pct": (
            100.0 * serve.get("first_result_share", 0.0), "%"
        ),
        "serve.retries": (serve.get("retries_per_request", 0.0), "count"),
    }
    for name, (value, unit) in shares.items():
        metrics[name] = {"value": value, "unit": unit, "n": points,
                         "how": "over"}
    for key in ("ttfb_ms", "first_result_ms", "computed_frac"):
        if key in serve:
            info[f"serve.{key}"] = serve[key]
    return metrics, info


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def contract_line(result: dict, names: List[Tuple[str, str]]) -> dict:
    """The last-line JSON object: exactly the metrics BENCHMARK.json lists."""
    metrics = {}
    for name, unit in names:
        measured = result["metrics"].get(name)
        if measured is None:
            raise LedgerError(f"metric {name} was not measured")
        if measured["unit"] != unit:
            raise LedgerError(
                f"metric {name} measured in {measured['unit']}, "
                f"BENCHMARK.json says {unit}"
            )
        metrics[name] = {"value": measured["value"], "unit": unit}
    data = result["data"]
    return {
        "correct": result["correct"],
        "attempted": int(data["attempted"]),
        "failed": int(data["failed"]),
        "metrics": metrics,
    }


def print_run(workload: str, seed: int, trace: int, result: dict,
              names: List[Tuple[str, str]]) -> None:
    data = result["data"]
    info = data["info"]
    print(
        f"== {workload} seed={seed} trace={trace}: "
        f"{info.get('points', 0)} points, {data['attempted']} "
        f"{info.get('operations', 'operations')} attempted, "
        f"{data['failed']} failed, {data['wall_s']:.2f} s measured"
    )
    for name, unit in names:
        metric = result["metrics"][name]
        count = "" if metric["n"] is None else f" n={metric['n']}"
        print(
            f"  {name:<26} {metric['value']:>14.6g} {unit:<6} "
            f"{metric['how']}{count}"
        )
    for key, value in sorted(result["extras"].items()):
        print(f"  {key:<26} {value:>14.6g}   (printed only)")
    for error in result["errors"]:
        print(f"  ERROR: {error}")
    print(
        "  correct: every output matches its frozen digest"
        if result["correct"]
        else "  INCORRECT: see errors above"
    )


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """better / worse / unchanged / unresolved, and the median change.

    ``parent[i]`` and ``change[i]`` are the i-th run of each side, so
    with alternated runs they form the pairs measured side by side.
    """
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm) / pm  # > 0 means the change is better
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    pairs = list(zip(parent, change))
    wins = sum(sign * c > sign * p for p, c in pairs)
    if spread > bound:
        return ("better" if wins == len(pairs) else "unresolved"), gain
    if gain < -bound:
        return "worse", gain
    if wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
        return "better", gain
    return "unchanged", gain


def runs_by_metric(doc: dict) -> Dict[Tuple[str, str], List[float]]:
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in doc["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["result"]["metrics"].items():
            out.setdefault((run["workload"], name), []).append(metric["value"])
    return out


def compare(parent_path: str, change_path: str) -> int:
    bench = load_benchmark()
    with open(parent_path, encoding="utf-8") as handle:
        parent = runs_by_metric(json.load(handle))
    with open(change_path, encoding="utf-8") as handle:
        change = runs_by_metric(json.load(handle))
    print(
        f"{'workload':<15}{'metric':<16}{'parent median [q1, q3]':>32}"
        f"{'change median [q1, q3]':>32}{'change':>9}  verdict"
    )
    worse = 0
    for workload in WORKLOADS:
        for spec in bench["end_to_end"]:
            key = (workload, spec["name"])
            if key not in parent or key not in change:
                continue
            word, gain = verdict(
                parent[key], change[key], spec["better"], spec["bound"]
            )
            worse += word == "worse"
            cells = []
            for values in (parent[key], change[key]):
                q1, qm, q3 = quartiles(values)
                cells.append(f"{qm:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            print(
                f"{workload:<15}{spec['name']:<16}{cells[0]:>32}{cells[1]:>32}"
                f"{100 * gain:>+8.1f}%  {word}"
            )
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent")
        parser.add_argument("change")
        args = parser.parse_args(argv[1:])
        return compare(args.parent, args.change)

    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the separate traced run that yields the per-layer metrics",
    )
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, with seeds N, N+1, ...")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="append every run to this record (input to compare)")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.seconds <= 0:
        parser.error("--runs and --seconds must be positive")
    kind = "per_layer" if args.trace else "end_to_end"
    names = [(m["name"], m["unit"]) for m in bench[kind]]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = {"schema": 1, "seconds": args.seconds, "runs": []}
    if args.json and os.path.exists(args.json):
        with open(args.json, encoding="utf-8") as handle:
            record = json.load(handle)
        if record["seconds"] != args.seconds:
            parser.error(
                f"{args.json} holds {record['seconds']} s runs, not {args.seconds} s"
            )
    all_correct = True
    try:
        for workload in workloads:
            for offset in range(args.runs):
                seed = args.seed + offset
                if args.trace:
                    result = measure_traced(workload, seed, args.seconds)
                else:
                    result = measure(workload, seed, args.seconds)
                result["correct"] = (
                    result["incorrect"] == 0
                    and result["data"]["attempted"] > result["data"]["failed"]
                )
                all_correct &= result["correct"]
                line = contract_line(result, names)
                print_run(workload, seed, args.trace, result, names)
                record["runs"].append(
                    {"workload": workload, "seed": seed, "trace": args.trace,
                     "result": line}
                )
                print(json.dumps(line), flush=True)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
