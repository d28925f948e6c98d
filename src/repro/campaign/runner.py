"""Campaign orchestration: run, resume, plan, report.

A campaign lives in a directory:

* ``spec.json``      — the :class:`~repro.campaign.spec.CampaignSpec`;
  ``run`` writes it, ``resume``/``report`` read it back, and a digest
  mismatch between an existing directory and a new spec is an error;
* ``results.jsonl``  — the append-only checkpoint store (one record per
  completed point; the hits of a cache-served wave share one fsync, the
  computed points of a wave that the cache stored durably share one
  when the wave ends, and a computed point with no cached copy is
  fsynced alone);
* ``failures.jsonl`` — per-attempt failure log with quarantine marks;
* ``manifest.json``  — the aggregate report written on completion.

**Resume identity.**  The planner derives the points still to run as a
pure function of (spec, completed records): fixed mode filters the
static cross-product by digest; sequential mode grows each cell by
deterministic seed-prefix batches and evaluates the stopping rule only
on complete prefixes.  Combined with a report computed solely from the
store, killing a campaign at *any* point and resuming it yields a
byte-identical ``aggregate_digest`` to an uninterrupted run — pinned by
``tests/test_campaign.py`` and the CI smoke job.

Quarantined points stay incomplete: within one invocation they are
skipped after quarantine (the campaign finishes without them, fully
attributed), and a later ``resume`` retries them with a fresh attempt
budget — quarantine is how transient infrastructure failures are kept
from aborting thousand-run batches, not a permanent verdict on the
point.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Set, Tuple

from repro._sum import lsum
from repro.campaign.executor import (
    CampaignInterrupted,
    ExecutionStats,
    RetryPolicy,
    RobustExecutor,
)
from repro.campaign.report import CampaignReport, build_report
from repro.campaign.spec import CampaignPoint, CampaignSpec, Cell
from repro.campaign.store import (
    FAILURES_FILE,
    MANIFEST_FILE,
    RESULTS_FILE,
    SPEC_FILE,
    FailureLog,
    ResultStore,
    record_from_result,
)
from repro.metrics.stats import halfwidth_met
from repro.telemetry import atomic_write_text
from repro.telemetry.registry import MetricsRegistry, count_run
from repro.telemetry.status import CampaignStatusWriter


def _spec_path(campaign_dir: str) -> str:
    return os.path.join(campaign_dir, SPEC_FILE)


def load_spec(campaign_dir: str) -> CampaignSpec:
    """Read the spec of an existing campaign directory."""
    path = _spec_path(campaign_dir)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"{campaign_dir!r} is not a campaign directory (no {SPEC_FILE})"
        )
    return CampaignSpec.load(path)


def _prepare_dir(spec: CampaignSpec, campaign_dir: str) -> None:
    """Create/validate the campaign directory for a fresh ``run``."""
    os.makedirs(campaign_dir, exist_ok=True)
    spec_path = _spec_path(campaign_dir)
    results_path = os.path.join(campaign_dir, RESULTS_FILE)
    if os.path.exists(spec_path):
        existing = CampaignSpec.load(spec_path)
        if existing.spec_digest() != spec.spec_digest():
            raise ValueError(
                f"{campaign_dir!r} already holds campaign "
                f"{existing.name!r} with a different spec; refusing to "
                f"mix campaigns in one directory"
            )
        if os.path.exists(results_path):
            raise ValueError(
                f"{campaign_dir!r} already has results for this spec; "
                f"use resume to continue it"
            )
    else:
        spec.save(spec_path)


# ----------------------------------------------------------------------
# Planning: which points still need to run
# ----------------------------------------------------------------------
def _records_by_cell_seed(
    records: Dict[str, Dict[str, object]]
) -> Dict[Tuple[Cell, int], Dict[str, object]]:
    from repro.campaign.spec import freeze_value

    out: Dict[Tuple[Cell, int], Dict[str, object]] = {}
    for record in records.values():
        cell: Cell = tuple(
            (str(name), freeze_value(value))
            for name, value in record.get("cell", [])
        )
        out[(cell, int(record["seed"]))] = record
    return out


def _cell_trials(record: Dict[str, object]) -> Tuple[int, int]:
    """(detected, injected) Bernoulli counts of one record."""
    faults = record.get("faults", [])
    detected = lsum(1 for f in faults if f.get("detected_at") is not None)
    return detected, len(faults)


def plan_missing(
    spec: CampaignSpec,
    records: Dict[str, Dict[str, object]],
    exclude: Optional[Set[str]] = None,
    fixed_points: Optional[List[CampaignPoint]] = None,
) -> List[CampaignPoint]:
    """The points the campaign still needs, as a pure function of state.

    ``exclude`` holds digests quarantined *in this invocation*: they are
    not replanned (the campaign completes without them), but they also
    stop sequential growth of their cell — the stopping rule cannot be
    evaluated on a prefix with a hole in it.

    ``fixed_points`` is ``spec.fixed_points()`` of a fixed-mode spec,
    for callers that plan repeatedly and resolve the points once.
    """
    exclude = exclude or set()
    if not spec.sequential:
        if fixed_points is None:
            fixed_points = spec.fixed_points()
        return [
            point
            for point in fixed_points
            if point.digest not in records and point.digest not in exclude
        ]
    by_cell_seed = _records_by_cell_seed(records)
    stop = spec.stop
    missing: List[CampaignPoint] = []
    index = 0
    for cell in spec.cells():
        for n in stop.evaluation_sizes():
            prefix = [spec.seeds.seed_at(i) for i in range(n)]
            holes = [
                seed for seed in prefix if (cell, seed) not in by_cell_seed
            ]
            if holes:
                missing.extend(
                    point
                    for point in spec.cell_points(cell, holes, start=index)
                    if point.digest not in exclude
                )
                index += len(holes)
                break  # need this prefix complete before evaluating
            detected = injected = 0
            for seed in prefix:
                d, i = _cell_trials(by_cell_seed[(cell, seed)])
                detected += d
                injected += i
            if halfwidth_met(
                detected,
                injected,
                stop.target_half_width,
                stop.method,
            ):
                break  # cell satisfied
            # else: not satisfied — continue to the next ladder size
            # (the final size is max_runs; running past it stops here).
    return missing


# ----------------------------------------------------------------------
# Run / resume / report
# ----------------------------------------------------------------------
def _serve_from_cache(
    cache,
    points: List[CampaignPoint],
    store: ResultStore,
    telemetry: Optional[MetricsRegistry],
) -> Tuple[int, List[CampaignPoint]]:
    """Checkpoint every point the cache already holds; return the rest.

    A cached :class:`SimulationResult` is a pickle round-trip of the
    original, so the record built from it is byte-identical to the one
    a fresh run would have produced — the aggregate digest cannot tell
    warm cells from cold ones.

    The hits are checkpointed in point order with one durable append
    (one fsync for the wave, not one per point).  A crash inside it
    leaves whole records plus at most one torn line; resume drops that
    line and the cache serves whatever is missing again, so the batch
    costs a crash no simulated work.
    """
    served: List[Dict[str, object]] = []
    still_missing: List[CampaignPoint] = []
    for point in points:
        result = cache.get_result(point.digest, telemetry)
        if result is None:
            still_missing.append(point)
        else:
            served.append(record_from_result(point, result))
    store.extend(served)
    return len(served), still_missing


def run_campaign(
    campaign_dir: str,
    spec: Optional[CampaignSpec] = None,
    jobs: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    timeout_s: Optional[float] = None,
    interrupt_after: Optional[int] = None,
    worker=None,
    resume: bool = False,
    cache=None,
    telemetry: bool = True,
) -> CampaignReport:
    """Execute a campaign to completion (or controlled interruption).

    ``resume=True`` reads the spec from the directory and skips every
    checkpointed point; a fresh ``run`` requires a spec and an empty (or
    brand-new) directory.  Returns the final :class:`CampaignReport`,
    whose ``aggregate_digest`` is independent of interruptions, worker
    counts and retry history; also writes ``manifest.json``.

    ``interrupt_after`` (testing/ops hook) deterministically simulates a
    crash after N newly-checkpointed results by raising
    :class:`CampaignInterrupted`.

    ``worker`` replaces :func:`repro.experiments.parallel.execute` (same
    signature and contract) — the fault-injection seam of the tests.

    ``cache`` (a :class:`repro.cache.RunCache`) memoizes points across
    campaigns: before each execution wave the planner's missing points
    are probed and the hits are checkpointed directly, all with one
    durable append (served warm), and
    every completed run is stored by this supervisor before it is
    checkpointed, so a later grid with overlapping cells is served
    without re-simulating.  A run the cache stored is checkpointed
    without an fsync of its own; the checkpoint file is fsynced once
    when the wave ends, and any line a crash loses before then is
    served from the cache on resume.  Cache-served records do not count
    toward ``interrupt_after`` (they cost no work worth crash-testing).

    ``telemetry=True`` (the default) counts every computed point
    (:func:`repro.telemetry.count_run`) and the campaign's cache traffic
    into one registry, notes each point's worker pid and wall time as a
    heartbeat, and flushes ``status.json``/``telemetry.prom``/
    ``telemetry.json`` into the campaign directory for ``repro campaign
    status``/``repro top``.  Telemetry is a write-only sink: checkpoint
    rows and the aggregate digest are byte-identical with it on or off.
    """
    if resume:
        spec = load_spec(campaign_dir)
    else:
        if spec is None:
            raise ValueError("a fresh run needs a spec")
        _prepare_dir(spec, campaign_dir)
    store = ResultStore(os.path.join(campaign_dir, RESULTS_FILE))
    failures = FailureLog(os.path.join(campaign_dir, FAILURES_FILE))
    # The store keeps what it loads here and every record appended
    # below: the waves plan from it, and the report is built from it.
    records = store.records
    registry: Optional[MetricsRegistry] = None
    status: Optional[CampaignStatusWriter] = None
    if telemetry:
        registry = MetricsRegistry()
        status = CampaignStatusWriter(
            campaign_dir,
            spec.name,
            registry,
            planned=spec.n_planned_points(),
            already_done=len(records),
            cache=cache,
        )

    executor_kwargs = {} if worker is None else {"worker": worker}
    executor = RobustExecutor(
        jobs=jobs,
        retry=retry,
        timeout_s=timeout_s,
        telemetry=registry,
        **executor_kwargs,
    )

    def on_result(point: CampaignPoint, outcome) -> None:
        result = outcome.result
        # Cache before checkpointing: an interrupt raised after the
        # checkpoint must not lose a result the next overlapping grid
        # could have been served from.
        stored = False
        if cache is not None:
            try:
                cache.put_result(point.digest, result, registry)
                stored = True
            except OSError:
                pass  # memoization must never fail a completed run
        # The cache holds a stored result durably, so its checkpoint
        # line waits for the fsync that ends the wave.
        store.append(record_from_result(point, result), sync=not stored)
        if status is not None:
            count_run(registry, result)
            status.note_worker(outcome.pid, outcome.wall_s)
            status.note_points(1)
            status.write("running")

    def on_failure(
        point: CampaignPoint, attempt: int, error: str, quarantined: bool
    ) -> None:
        failures.append(
            point.digest, point.seed, point.cell, attempt, error, quarantined
        )
        if status is not None and quarantined:
            status.note_quarantine(1)
            status.write("running")

    quarantined_digests: Set[str] = set()
    completed_this_invocation = 0
    final_state = "interrupted"
    try:
        # A fixed-mode spec's points are resolved once, not in every wave.
        fixed_points = None if spec.sequential else spec.fixed_points()
        # Wave loop: fixed mode needs one wave (plus one to observe
        # "done"); sequential mode grows cells until the planner returns
        # nothing.
        while True:
            missing = plan_missing(
                spec,
                records,
                exclude=quarantined_digests,
                fixed_points=fixed_points,
            )
            if not missing:
                break
            if cache is not None:
                served, missing = _serve_from_cache(
                    cache, missing, store, registry
                )
                if status is not None:
                    status.note_points(served)
                if not missing:
                    # Nothing left to run in this wave: the next flush
                    # (at the latest the forced final one) reports it.
                    continue
                if status is not None and served:
                    status.write("running")
            remaining_interrupt = (
                None
                if interrupt_after is None
                else interrupt_after - completed_this_invocation
            )
            try:
                stats: ExecutionStats = executor.run(
                    missing,
                    on_result=on_result,
                    on_failure=on_failure,
                    interrupt_after=remaining_interrupt,
                )
            except CampaignInterrupted as exc:
                raise CampaignInterrupted(
                    completed_this_invocation + exc.completed
                ) from None
            finally:
                store.sync()
            completed_this_invocation += stats.completed
            quarantined_digests.update(
                failure.digest for failure in stats.quarantined
            )
        final_state = "complete"
    finally:
        # The forced final flush makes kill-and-resume inspectable: an
        # interrupted campaign leaves a status file saying so.
        if status is not None:
            status.write(final_state, force=True)
    report = build_report(
        spec, store, quarantined=failures.quarantined(records)
    )
    _write_manifest(campaign_dir, report)
    return report


def report_campaign(campaign_dir: str) -> CampaignReport:
    """Rebuild the report of an existing campaign directory."""
    spec = load_spec(campaign_dir)
    store = ResultStore(os.path.join(campaign_dir, RESULTS_FILE))
    failures = FailureLog(os.path.join(campaign_dir, FAILURES_FILE))
    records = store.load()
    report = build_report(
        spec, store, quarantined=failures.quarantined(records)
    )
    _write_manifest(campaign_dir, report)
    return report


def _write_manifest(campaign_dir: str, report: CampaignReport) -> None:
    import repro

    atomic_write_text(
        os.path.join(campaign_dir, MANIFEST_FILE),
        report.manifest_json(getattr(repro, "__version__", "0")) + "\n",
    )
