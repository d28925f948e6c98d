"""Workload processes of the performance ledger.

``run.py`` starts this file in a fresh interpreter for every measured
run, so imports, caches and peak memory start cold each time::

    python workloads.py run   --workload W --seed N --seconds S --work DIR
                              [--trace] [--spans PATH]
    python workloads.py probe --workload W --work DIR
    python workloads.py freeze          # rewrite digests.json

``run`` prints one JSON object as its last stdout line: the measured
samples, the correctness verdict and, with ``--trace``, the layer table.
``probe`` only sets the workload up (imports; for serve, a server up to
port-ready) and reports when it was ready, which is how ``run.py``
samples set-up time several times per run.  ``freeze``
recomputes the frozen per-input digests that every run checks against.

Inputs come only from ``--seed`` and ``--seconds``.  The seed picks and
orders inputs out of fixed pools whose digests are frozen in
``digests.json``, so any seed is checkable.  ``--seconds`` sets how much
work a run does, at fixed nominal rates measured on the reference
machine (see README.md): the work never depends on how fast this
machine happens to be, so a run's inputs and memory use repeat exactly
and only its times vary.

``run`` and ``probe`` pin themselves, and the processes they start, to
one CPU, and time ``host_kernel()`` between timed operations; each
operation's time is scaled by the kernel times around it (see
``Outcome.calibrate`` and "Host scaling" in README.md).
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"
#: Scratch space of every run (ignored by git, see ``.gitignore`` here).
SCRATCH = HERE / ".scratch"

#: Policy variants of each model-plane workload, run in this order for
#: every simulation seed.
VARIANTS: Dict[str, Tuple[Tuple[str, Dict[str, object]], ...]] = {
    # The paper's E2 experiment: one trace, four test policies.
    "paper-e2": (
        ("none", {"test_policy": "none"}),
        ("power-aware", {"test_policy": "power-aware"}),
        ("unaware", {"test_policy": "unaware"}),
        ("round-robin", {"test_policy": "round-robin"}),
    ),
    # The layers paper-e2 barely touches: queued NoC, mapping, faults,
    # thermal.
    "stress-mix": (
        ("queued-noc", {"noc_mode": "queued"}),
        ("test-aware", {"mapper": "test-aware"}),
        ("mappro-faults", {"mapper": "mappro", "fault_hazard_per_us": 1e-6}),
        (
            "thermal-all",
            {
                "thermal_enabled": True,
                "noc_mode": "queued",
                "mapper": "test-aware",
                "fault_hazard_per_us": 1e-6,
            },
        ),
    ),
}
MODEL_SEEDS = tuple(range(1, 65))
#: Nominal model-plane points per second: the work of one run, rounded
#: to whole blocks (one simulation seed under every variant).
POINTS_PER_S = {"paper-e2": 4.0, "stress-mix": 3.2}

#: campaign-small: 4 cells x CAMPAIGN_SEEDS seeds per pass; the pass's
#: first seed is drawn from CAMPAIGN_STARTS.  Passes run serially
#: (jobs=1), so the traced run executes the path the timed run does; on a
#: 2-CPU machine a 2-worker pool beside its supervisor was only 1.25x
#: faster (170 against 136 points/s) and noisier.  Passes are short, at
#: the same cost per point as long ones: a shared host's speed swings
#: within a second, and a short pass lies close to the kernel samples
#: that scale it.
CAMPAIGN_SEEDS = 10
CAMPAIGN_STARTS = tuple(1 + CAMPAIGN_SEEDS * k for k in range(96))
WARM_PASSES = 3
#: Nominal seconds of one cycle: a cold pass and its warm passes.
CAMPAIGN_CYCLE_S = 0.6

#: serve-mixed: requests of SERVE_POINTS points of the paper config at a
#: 10 ms horizon.  After the first request, SERVE_REPEATS points of each
#: (at random positions) repeat a random earlier seed and the others take
#: the next fresh seed of SERVE_SEEDS; fixing the count rather than a
#: per-point chance keeps the work of a run the same for every seed.
SERVE_SEEDS = tuple(range(1, 1025))
SERVE_POINTS = 4
SERVE_REPEATS = 2
SERVE_CONNECTIONS = 2
SERVE_BASE = {"arrival_rate_per_ms": 8.0, "horizon_us": 10_000.0}
SERVE_REQUESTS_PER_S = 7.5
#: Requests per segment of the closed loop; the host-speed kernel runs
#: between segments, while no request is in flight.  Short segments keep
#: each request close to the kernel samples that scale it (segments of
#: 10 requests spread the median latency over ten runs twice as much).
SERVE_SEGMENT = 4

WORKLOADS = ("paper-e2", "stress-mix", "campaign-small", "serve-mixed")


# ----------------------------------------------------------------------
# Input generation (pure functions of the seed)
# ----------------------------------------------------------------------
def work_units(seconds: float, per_second: float) -> int:
    """Operations in a run of nominally ``seconds`` seconds (at least 1)."""
    return max(1, round(seconds * per_second))


def model_inputs(workload: str, seed: int) -> Iterator[Tuple[str, int]]:
    """Endless ``(variant, sim_seed)`` stream of a model-plane workload."""
    order = random.Random(seed).sample(MODEL_SEEDS, len(MODEL_SEEDS))
    for sim_seed in itertools.cycle(order):
        for variant, _ in VARIANTS[workload]:
            yield variant, sim_seed


def campaign_starts(seed: int) -> Iterator[int]:
    """Endless stream of campaign first-seeds, one per cold pass."""
    return itertools.cycle(
        random.Random(seed).sample(CAMPAIGN_STARTS, len(CAMPAIGN_STARTS))
    )


def serve_requests(seed: int) -> Iterator[List[int]]:
    """Endless stream of requests, each a list of simulation seeds."""
    rng = random.Random(seed)
    fresh = itertools.cycle(rng.sample(SERVE_SEEDS, len(SERVE_SEEDS)))
    seen: List[int] = []
    while True:
        repeats = set(rng.sample(range(SERVE_POINTS), SERVE_REPEATS) if seen else ())
        request = []
        for position in range(SERVE_POINTS):
            if position in repeats:
                request.append(rng.choice(seen))
            else:
                seen.append(next(fresh))
                request.append(seen[-1])
        yield request


# ----------------------------------------------------------------------
# Host-speed kernel
# ----------------------------------------------------------------------
#: Seconds one ``host_kernel()`` takes on the reference machine (between
#: its two speeds there).  A timed operation is reported scaled by the
#: ratio of this to the kernel times taken just before and after it,
#: raised to KERNEL_EXPONENT.
KERNEL_REF_S = 0.010
#: How much of the kernel's slowdown the program shares: on the
#: reference machine the kernel ran 1.77x slower in the host's slow state
#: and the program's operations 1.43x-1.57x (see README.md).
KERNEL_EXPONENT = 0.75


def host_scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured beside kernel time ``kernel_s``, at the
    reference kernel time."""
    return seconds * (KERNEL_REF_S / kernel_s) ** KERNEL_EXPONENT


class _Event:
    __slots__ = ("time", "key", "value")

    def __init__(self, time_: float, key: int, value: float) -> None:
        self.time = time_
        self.key = key
        self.value = value

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


def host_kernel() -> float:
    """Time a fixed event-queue loop in plain Python; return seconds.

    The loop is shaped like the simulator's dispatch (a heap of small
    objects, dict state, float arithmetic) but shares no code with the
    program, so it measures how fast the host runs Python right now and
    nothing a change to the program could move.  The garbage collector
    is off while it runs, so the program's heap does not slow it.
    """
    import gc
    import heapq

    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    rng = random.Random(1)
    heap: List[_Event] = []
    state: Dict[int, List[float]] = {}
    total = 0.0
    for i in range(1000):
        heapq.heappush(heap, _Event(rng.random(), i % 64, float(i)))
    for n in range(6000):
        event = heapq.heappop(heap)
        slot = state.get(event.key)
        if slot is None:
            slot = state[event.key] = [0.0, 0.0]
        slot[0] += event.value * 0.5
        slot[1] += 1.0
        total += slot[0] / (slot[1] + 1.0)
        if n < 5000:
            heapq.heappush(
                heap,
                _Event(event.time + rng.random(), (event.key * 7 + 3) % 64,
                       event.value + 1.0),
            )
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The reference machine's CPUs change speed independently, so a kernel
    sample describes the timed work only if both ran on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def summary_digest(summary: Dict[str, float]) -> str:
    """Short digest of one point's summary row (key order independent)."""
    from repro.obs.provenance import rows_digest

    return rows_digest([sorted(summary.items())])[:16]


def model_config(workload: str, variant: str, sim_seed: int):
    from repro.experiments.runners import DEFAULT_CONFIG

    overrides = dict(VARIANTS[workload])[variant]
    return replace(DEFAULT_CONFIG, seed=sim_seed, **overrides)


def campaign_spec(start: int):
    from repro.campaign import CampaignSpec

    return CampaignSpec.from_dict(
        {
            "name": "ledger-campaign-small",
            "base": {
                "width": 4,
                "height": 4,
                "horizon_us": 4000.0,
                "arrival_rate_per_ms": 8.0,
                "fault_hazard_per_us": 2e-4,
            },
            "grid": {
                "test_policy": ["power-aware", "none"],
                "mapper": ["contiguous", "test-aware"],
            },
            "seeds": {"start": start, "count": CAMPAIGN_SEEDS},
            "stop": None,
        }
    )


def load_digests() -> Dict[str, object]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(root: int) -> List[int]:
    """Live descendant pids of ``root`` (from ``/proc``; Linux only)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2 :].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, []):
            out.append(child)
            frontier.append(child)
    return out


def peak_rss_mb(root: Optional[int] = None) -> float:
    """Largest peak RSS among this process, its reaped children and the
    live descendants of ``root`` (default: this process)."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        *(_vm_hwm_kb(pid) for pid in _descendants(root or os.getpid())),
    )
    return kb / 1024.0


def _wait_gone(pids: List[int], timeout_s: float = 30.0) -> None:
    """Wait until none of ``pids`` is running (zombies count as gone)."""
    deadline = time.monotonic() + timeout_s
    for pid in pids:
        while time.monotonic() < deadline:
            try:
                with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                    stat = handle.read()
            except OSError:
                break
            if stat[stat.rindex(")") + 2] in "ZX":
                break
            time.sleep(0.01)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


class Outcome:
    """What one workload run measured; serialised as the JSON result."""

    def __init__(self) -> None:
        self.ready = 0.0          # time.monotonic() at the first dispatch
        self.wall_s = 0.0         # measured (timed) wall time
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors: List[str] = []   # the first few, for the report
        self.digests: List[str] = []  # per-operation output digests, in order
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.info: Dict[str, object] = {}
        self.kernel_s: List[float] = []  # host_kernel() times, in order
        self.untimed_s = 0.0  # calibration and clean-up, kept out of wall_s
        #: kind -> host-scaled seconds of each timed operation of that kind
        self.scaled: Dict[str, List[float]] = {}
        self._pending: List[Tuple[str, float]] = []

    def calibrate(self) -> None:
        """Sample the host's speed between timed operations.

        Every operation timed since the previous sample is scaled by
        :func:`host_scaled` to the mean of the two samples around it.
        """
        t0 = time.perf_counter()
        kernel = host_kernel()
        if self._pending:
            around = (self.kernel_s[-1] + kernel) / 2.0
            for kind, seconds in self._pending:
                self.scaled.setdefault(kind, []).append(
                    host_scaled(seconds, around)
                )
            self._pending = []
        self.kernel_s.append(kernel)
        self.untimed_s += time.perf_counter() - t0

    def timed(self, kind: str, seconds: float) -> None:
        """Record an operation timed since the last :meth:`calibrate`."""
        assert self.kernel_s, "calibrate() before the first timed operation"
        self._pending.append((kind, seconds))

    def metric(
        self, name: str, value: float, unit: str, n: int, how: str = "median of"
    ) -> None:
        self.metrics[name] = {"value": value, "unit": unit, "n": n, "how": how}

    def error(self, message: str) -> None:
        if len(self.errors) < 10:
            self.errors.append(message)

    def mismatch(self, message: str) -> None:
        """Count an output that differs from its reference."""
        self.mismatches += 1
        self.error(message)

    def to_dict(self) -> Dict[str, object]:
        from repro.obs.provenance import rows_digest

        assert not self._pending, "calibrate() after the last timed operation"
        if self.kernel_s:
            self.info["kernel_ms"] = statistics.median(self.kernel_s) * 1e3
        return {
            "ready": self.ready,
            "wall_s": self.wall_s,
            "attempted": self.attempted,
            "failed": self.failed,
            "mismatches": self.mismatches,
            "errors": self.errors,
            "digest": rows_digest(self.digests),
            "metrics": self.metrics,
            "info": self.info,
        }


# ----------------------------------------------------------------------
# Model-plane workloads: paper-e2, stress-mix
# ----------------------------------------------------------------------
def run_model_plane(args, out: Outcome) -> None:
    from repro.experiments import parallel

    frozen = load_digests()[args.workload]
    # Whole blocks: one simulation seed under every variant.
    block = len(VARIANTS[args.workload])
    inputs = itertools.islice(
        model_inputs(args.workload, args.seed),
        block * work_units(args.seconds, POINTS_PER_S[args.workload] / block),
    )
    point_ms: List[float] = []
    raw_ms: Dict[str, List[float]] = {}  # variant -> unscaled point times
    events = 0
    out.ready = time.monotonic()
    started = time.perf_counter()
    for variant, sim_seed in inputs:
        config = model_config(args.workload, variant, sim_seed)
        out.attempted += 1
        out.calibrate()
        t0 = time.perf_counter()
        try:
            result = parallel.run_many([config], jobs=1)[0]
        except parallel.RunFailed as exc:
            out.failed += 1
            out.error(str(exc))
            continue
        point_ms.append((time.perf_counter() - t0) * 1e3)
        raw_ms.setdefault(variant, []).append(point_ms[-1])
        out.timed(variant, point_ms[-1] / 1e3)
        events += result.events_fired
        digest = summary_digest(result.summary())
        out.digests.append(digest)
        want = frozen[variant][str(sim_seed)]
        if digest != want:
            out.mismatch(f"{variant} seed {sim_seed}: digest {digest} != frozen {want}")
    out.calibrate()
    out.wall_s = time.perf_counter() - started - out.untimed_s
    n = len(point_ms)
    if n:
        scaled_s = sum(sum(times) for times in out.scaled.values())
        out.metric("points_per_s", n / scaled_s, "1/s", n, "points / time of")
        # The variants differ in cost by up to 1.7x, so the median of the
        # mix falls between their clusters and jumps; the median of each
        # variant does not.
        out.metric(
            "latency_p50_ms",
            statistics.mean(map(statistics.median, out.scaled.values())) * 1e3,
            "ms", n, "mean over variants of the median of",
        )
        out.info["points_per_s.raw"] = n * 1e3 / sum(point_ms)
        out.info["latency_p50_ms.raw"] = statistics.mean(
            map(statistics.median, raw_ms.values())
        )
        out.info["events_per_s"] = events / out.wall_s
        out.info["point_p90_ms"] = percentile(point_ms, 90)
    out.info["points"] = n
    out.info["operations"] = "points"


def record_first_point(args, tracer) -> None:
    """Write the raw spans of the run's first point to ``args.spans``.

    An extra, untimed repeat after the layer totals were taken: keeping
    every span would inflate the traced wall time.
    """
    from repro.experiments import parallel

    variant, sim_seed = next(model_inputs(args.workload, args.seed))
    tracer.spans = []
    parallel.run_many([model_config(args.workload, variant, sim_seed)], jobs=1)
    write_spans(args.spans, tracer.spans)
    tracer.spans = None


def write_spans(path: str, spans) -> None:
    """Raw spans of one point as compact JSON.

    ``spans`` rows are ``[id, parent_id, name_index, start_ns, end_ns]``
    (parent 0 = top level; times from the first span's start) and
    ``names`` resolves ``name_index``.
    """
    names: Dict[str, int] = {}
    origin = min(span[3] for span in spans) if spans else 0.0
    rows = [
        [
            span_id,
            parent,
            names.setdefault(name, len(names)),
            round((start - origin) * 1e9),
            round((end - origin) * 1e9),
        ]
        for span_id, parent, name, start, end in spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                "names": list(names),
                "spans": rows,
            },
            handle,
            separators=(",", ":"),
        )


# ----------------------------------------------------------------------
# campaign-small
# ----------------------------------------------------------------------
def campaign_pass(work: Path, label: str, spec, cache, jobs: int = 1):
    """One ``run_campaign`` into the fresh directory ``work / label``:
    (wall_s, report)."""
    from repro.campaign import run_campaign

    t0 = time.perf_counter()
    report = run_campaign(str(work / label), spec=spec, jobs=jobs, cache=cache)
    return time.perf_counter() - t0, report


def run_campaign_small(args, out: Outcome) -> None:
    from repro.cache import RunCache

    frozen = load_digests()["campaign-small"]
    work = Path(args.work)
    # Cycle 0 is a warm-up: checked, but not timed.
    cycles = 1 + work_units(args.seconds, 1.0 / CAMPAIGN_CYCLE_S)
    cold_s: List[float] = []
    warm_ms: List[float] = []
    points = 0
    out.ready = time.monotonic()
    started = time.perf_counter()
    for cycle, start in enumerate(
        itertools.islice(campaign_starts(args.seed), cycles)
    ):
        spec = campaign_spec(start)
        n_points = len(spec.fixed_points())
        cycle_dir = work / f"cycle{cycle}"
        cache = RunCache(cache_dir=str(cycle_dir / "cache"))
        out.calibrate()
        wall, cold = campaign_pass(cycle_dir, "cold", spec, cache)
        if cycle:
            cold_s.append(wall)
            out.timed("cold", wall)
        want = frozen[str(start)]
        passes = [("cold", cold)]
        for i in range(WARM_PASSES):
            out.calibrate()
            wall, warm = campaign_pass(cycle_dir, f"warm{i}", spec, cache)
            if cycle:
                warm_ms.append(wall * 1e3)
                out.timed("warm", wall)
            passes.append((f"warm{i}", warm))
        for label, report in passes:
            out.attempted += n_points
            out.failed += len(report.quarantined)
            points += report.n_completed
            out.digests.append(report.aggregate[:16])
            if report.aggregate[:16] != want:
                out.mismatch(
                    f"start {start} {label} pass: aggregate {report.aggregate[:16]}"
                    f" != frozen {want}"
                )
        t0 = time.perf_counter()
        shutil.rmtree(cycle_dir, ignore_errors=True)
        out.untimed_s += time.perf_counter() - t0
    out.calibrate()
    out.wall_s = time.perf_counter() - started - out.untimed_s
    cold_points = len(cold_s) * n_points
    out.metric("points_per_s", cold_points / sum(out.scaled["cold"]), "1/s",
               len(cold_s), "points / time of cold passes,")
    out.metric("latency_p50_ms", statistics.median(out.scaled["warm"]) * 1e3,
               "ms", len(warm_ms), "median warm pass of")
    out.info["points_per_s.raw"] = cold_points / sum(cold_s)
    out.info["latency_p50_ms.raw"] = statistics.median(warm_ms)
    out.info["points"] = points
    out.info["cached_points"] = points - cycles * n_points
    out.info["warm_points_per_s"] = n_points / statistics.median(warm_ms) * 1e3
    out.info["operations"] = "points"


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
#: Longest directory a Unix socket can sit two levels under: the
#: forkserver's ``pymp-XXXXXXXX/listener-XXXXXXXX`` adds 32 bytes to a
#: ``sun_path`` of at most 107.
SOCKET_DIR_MAX = 107 - 32


def start_server(work: Path):
    """A started ``repro serve --jobs 1`` with its cache under ``work``."""
    from repro.serve.client import LocalServer

    # The worker pool puts its forkserver socket directory under TMPDIR:
    # keep it inside the benchmark's tree unless the checkout is too deep
    # for a socket path there.
    if len(str(SCRATCH)) <= SOCKET_DIR_MAX:
        os.environ["TMPDIR"] = str(SCRATCH)
    server = LocalServer(
        str(work / "state"), jobs=1, extra_args=["--cache-dir", str(work / "cache")]
    )
    return server.start()


def stop_server(server) -> int:
    """SIGTERM (graceful drain); return its exit code once every
    descendant (forkserver, worker) has ended too."""
    descendants = _descendants(server.process.pid)
    code = server.stop()
    _wait_gone(descendants)
    return code


async def drive_serve(port: int, args, out: Outcome, record) -> float:
    """Closed loop: SERVE_CONNECTIONS callers, each waits for its reply.

    The loop runs in segments of SERVE_SEGMENT requests, with a
    host-speed sample between them; returns the segments' total wall.
    """
    from repro.serve.client import (
        BusyError,
        QuotaError,
        ServeClient,
        sweep_request_doc,
    )

    client = ServeClient("127.0.0.1", port)
    requests = serve_requests(args.seed)
    n_requests = work_units(args.seconds, SERVE_REQUESTS_PER_S)
    issued = 0

    async def one_request(seeds: List[int]) -> None:
        doc = sweep_request_doc(
            [{"seed": seed} for seed in seeds], tenant="ledger", base=SERVE_BASE
        )
        t0 = time.perf_counter()
        retries = 0
        while True:
            first_line = first_result = None
            results = []
            done = None
            try:
                async for event in client.sweep_events(doc):
                    now = time.perf_counter() - t0
                    if first_line is None:
                        first_line = now
                    if event.get("event") == "result":
                        if first_result is None:
                            first_result = now
                        results.append(event)
                    elif event.get("event") == "done":
                        done = event
                break
            except (QuotaError, BusyError) as exc:
                retries += 1
                if retries > 20:
                    raise
                await asyncio.sleep(min(exc.retry_after_s, 1.0))
        latency = time.perf_counter() - t0
        if done is None or done.get("errors") or len(results) != len(seeds):
            raise RuntimeError(f"incomplete stream for seeds {seeds}: {done}")
        out.timed("request", latency)
        record(seeds, latency, first_line, first_result, retries, results)

    async def connection(end: int) -> None:
        nonlocal issued
        while issued < end:
            issued += 1
            seeds = next(requests)
            out.attempted += 1
            try:
                await one_request(seeds)
            except Exception as exc:  # a failed request is counted, not fatal
                out.failed += 1
                out.error(f"request {seeds}: {type(exc).__name__}: {exc}")

    wall = 0.0
    while issued < n_requests:
        out.calibrate()
        end = min(issued + SERVE_SEGMENT, n_requests)
        t0 = time.perf_counter()
        await asyncio.gather(*(connection(end) for _ in range(SERVE_CONNECTIONS)))
        segment = time.perf_counter() - t0
        out.timed("segment", segment)
        wall += segment
    out.calibrate()
    return wall


def run_serve_mixed(args, out: Outcome) -> None:
    frozen = load_digests()["serve-mixed"]
    server = start_server(Path(args.work))
    out.ready = time.monotonic()

    latencies: List[float] = []
    first_lines: List[float] = []
    first_results: List[float] = []
    sources = {"queued": 0, "coalesced": 0, "cached": 0}
    served: Dict[int, Tuple[str, str]] = {}  # seed -> (summary, result) digest
    retries = 0

    def record(seeds, latency, first_line, first_result, n_retries, results):
        nonlocal retries
        latencies.append(latency * 1e3)
        first_lines.append(first_line * 1e3)
        first_results.append(first_result * 1e3)
        retries += n_retries
        for event in results:
            seed = seeds[int(event["index"])]
            sources[str(event["source"])] += 1
            digest = summary_digest(event["summary"])
            previous = served.setdefault(seed, (digest, event["result_digest"]))
            if previous != (digest, event["result_digest"]):
                out.mismatch(f"seed {seed} served two different results")
            if digest != frozen[str(seed)]:
                out.mismatch(
                    f"seed {seed}: digest {digest} != frozen {frozen[str(seed)]}"
                )

    try:
        out.wall_s = asyncio.run(drive_serve(server.port, args, out, record))
        out.info["server_peak_rss_mb"] = peak_rss_mb(server.process.pid)
    finally:
        code = stop_server(server)
    if code != 0:
        out.mismatch(f"server exited with code {code} after draining")
    out.digests = [served[seed][0] for seed in sorted(served)]
    points = sum(sources.values())
    n = len(latencies)
    if n:
        out.metric("points_per_s", points / sum(out.scaled["segment"]), "1/s",
                   points, "points / time of")
        out.metric("latency_p50_ms", statistics.median(out.scaled["request"]) * 1e3,
                   "ms", n)
        out.info["points_per_s.raw"] = points / out.wall_s
        out.info["latency_p50_ms.raw"] = statistics.median(latencies)
        out.info["request_p90_ms"] = percentile(latencies, 90)
        out.info["serve"] = {
            "ttfb_ms": statistics.median(first_lines),
            "first_result_ms": statistics.median(first_results),
            "ttfb_share": sum(first_lines) / sum(latencies),
            "first_result_share": sum(first_results) / sum(latencies),
            "computed_frac": sources["queued"] / points,
            "cached_frac": sources["cached"] / points,
            "coalesced_frac": sources["coalesced"] / points,
            "retries_per_request": retries / n,
        }
    out.info["points"] = points
    out.info["cached_points"] = sources["cached"]
    out.info["coalesced_points"] = sources["coalesced"]
    out.info["operations"] = "requests"


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------
def import_program(workload: str) -> None:
    """Import what a run of ``workload`` uses: part of its set-up time.

    Serve's set-up also includes the server's start-up (see ``probe``).
    """
    if workload in VARIANTS:
        import repro.experiments.parallel  # noqa: F401
        import repro.experiments.runners  # noqa: F401
    elif workload == "campaign-small":
        import repro.cache  # noqa: F401
        import repro.campaign  # noqa: F401
    else:
        import repro.serve.client  # noqa: F401


def probe(args) -> Tuple[float, float]:
    """Set up as ``run`` does and stop at the point it would dispatch.

    Returns when it was ready and a host-kernel time taken right then.
    """
    if args.workload == "serve-mixed":
        server = start_server(Path(args.work))
        ready = time.monotonic()
        kernel = host_kernel()
        stop_server(server)
        return ready, kernel
    return time.monotonic(), host_kernel()


# ----------------------------------------------------------------------
# Freezing the reference digests
# ----------------------------------------------------------------------
def freeze(jobs: int) -> None:
    """Recompute every frozen digest with the current program."""
    from repro.experiments.parallel import run_many
    from repro.experiments.runners import DEFAULT_CONFIG

    work = SCRATCH / "freeze"
    digests: Dict[str, object] = {}
    for workload, variants in VARIANTS.items():
        table: Dict[str, Dict[str, str]] = {}
        for variant, _ in variants:
            configs = [model_config(workload, variant, s) for s in MODEL_SEEDS]
            table[variant] = {
                str(config.seed): summary_digest(result.summary())
                for config, result in zip(configs, run_many(configs, jobs=jobs))
            }
        digests[workload] = table
        print(f"froze {workload}", file=sys.stderr)
    from repro.cache import RunCache

    campaign: Dict[str, str] = {}
    for start in CAMPAIGN_STARTS:
        cache = RunCache(cache_dir=str(work / "cache"))
        _, report = campaign_pass(work, "pass", campaign_spec(start), cache, jobs)
        shutil.rmtree(work, ignore_errors=True)
        campaign[str(start)] = report.aggregate[:16]
    digests["campaign-small"] = campaign
    print("froze campaign-small", file=sys.stderr)
    configs = [
        replace(DEFAULT_CONFIG, seed=seed, **SERVE_BASE) for seed in SERVE_SEEDS
    ]
    digests["serve-mixed"] = {
        str(config.seed): summary_digest(result.summary())
        for config, result in zip(configs, run_many(configs, jobs=jobs))
    }
    shutil.rmtree(work, ignore_errors=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH}", file=sys.stderr)


# ----------------------------------------------------------------------
RUNNERS = {
    "paper-e2": run_model_plane,
    "stress-mix": run_model_plane,
    "campaign-small": run_campaign_small,
    "serve-mixed": run_serve_mixed,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "probe", "freeze"))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, metavar="PATH")
    parser.add_argument("--work", default=None, metavar="DIR")
    args = parser.parse_args(argv)

    if args.mode == "freeze":
        freeze(jobs=2)
        return 0
    if args.work is None or args.workload is None:
        parser.error("run and probe need --workload and --work")
    if args.mode == "run" and args.seconds is None:
        parser.error("run needs --seconds")
    pin_to_one_cpu()
    # Host speed at the start of set-up; its time is taken out of set-up.
    kernel = host_kernel()
    os.makedirs(args.work, exist_ok=True)
    import_program(args.workload)
    if args.mode == "probe":
        ready, after = probe(args)
        print(json.dumps({"ready": ready, "setup_kernel_s": [kernel, after]}))
        return 0

    out = Outcome()
    tracer = None
    if args.trace:
        import repro.cache  # noqa: F401  (load every layer before wrapping)
        import repro.campaign  # noqa: F401
        import repro.experiments  # noqa: F401

        from tracer import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    try:
        RUNNERS[args.workload](args, out)
        if tracer is not None:
            out.info["layers"] = {
                layer: [tracer.self_s[layer], tracer.calls[layer]]
                for layer in tracer.self_s
            }
            if args.spans:
                record_first_point(args, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.info["peak_rss_mb"] = max(
        peak_rss_mb(), float(out.info.get("server_peak_rss_mb", 0.0))
    )
    # Every runner calibrates first thing after it is ready.
    result = dict(out.to_dict(), setup_kernel_s=[kernel, out.kernel_s[0]])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
