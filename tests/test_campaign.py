"""Tests for the fault-injection campaign subsystem.

The two contract-level properties pinned here:

* **resume identity** — kill a campaign partway, resume it, and the
  aggregate digest is byte-identical to an uninterrupted run (fixed and
  sequential mode);
* **crash tolerance** — a worker exception, a dead worker process or a
  timed-out run loses no completed results: the campaign completes with
  the bad point quarantined and attributed to its config digest.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import shutil
import signal
import time
import traceback
from pathlib import Path

import pytest

from repro.cache import RunCache
from repro.campaign import (
    CampaignInterrupted,
    CampaignSpec,
    FailureLog,
    ResultStore,
    RetryPolicy,
    RobustExecutor,
    aggregate_digest,
    build_report,
    plan_missing,
    record_from_result,
    report_campaign,
    run_campaign,
)
from repro.campaign.spec import cell_label
from repro.cli import main
from repro.core.system import SystemConfig, run_system
from repro.experiments.parallel import Outcome, RunFailed, execute, run_many
from repro.obs.provenance import config_digest
from repro.sim.trace import Trace
from repro.telemetry import status as status_module

#: Fast 4x4 base with fault injection on: one run is ~0.1-0.2 s.
BASE = {
    "width": 4,
    "height": 4,
    "horizon_us": 3000.0,
    "arrival_rate_per_ms": 8.0,
    "fault_hazard_per_us": 2e-4,
}

NO_BACKOFF = RetryPolicy(max_attempts=2, backoff_s=0.0)


def small_spec(**overrides) -> CampaignSpec:
    data = {
        "name": "test",
        "base": BASE,
        "grid": {"test_policy": ["power-aware", "none"]},
        "seeds": {"start": 1, "count": 2},
    }
    data.update(overrides)
    return CampaignSpec.from_dict(data)


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------
def test_spec_cross_product_and_point_digests():
    spec = small_spec()
    points = spec.fixed_points()
    assert len(points) == 4  # 2 policies x 2 seeds
    assert len({p.digest for p in points}) == 4
    # Digests are a pure function of the config: re-enumeration agrees.
    again = spec.fixed_points()
    assert [p.digest for p in points] == [p.digest for p in again]
    assert points[0].digest == config_digest(points[0].config)


def test_spec_config_resolution_applies_base_cell_seed():
    spec = small_spec()
    point = spec.fixed_points()[-1]
    assert point.config.width == 4
    assert point.config.test_policy == "none"
    assert point.config.seed == 2
    assert point.config.fault_hazard_per_us == pytest.approx(2e-4)


def test_spec_nested_base_override():
    spec = small_spec(base=dict(BASE, aging={"base_rate": 0.125}))
    config = spec.fixed_points()[0].config
    assert config.aging.base_rate == pytest.approx(0.125)


def test_spec_json_round_trip_preserves_digest(tmp_path):
    spec = small_spec(
        stop={"target_half_width": 0.1, "min_runs": 2, "max_runs": 8,
              "batch": 2},
    )
    path = tmp_path / "spec.json"
    spec.save(str(path))
    loaded = CampaignSpec.load(str(path))
    # JSON serialisation sorts keys, so tuple order may differ; the
    # canonical form and the digest are the identity contract.
    assert loaded.to_dict() == spec.to_dict()
    assert loaded.spec_digest() == spec.spec_digest()
    assert [p.digest for p in loaded.fixed_points()] == [
        p.digest for p in spec.fixed_points()
    ]


@pytest.mark.parametrize(
    "mutation",
    [
        {"name": ""},
        {"base": {"not_a_field": 1}},
        {"grid": {"tdp_w": []}},
        {"grid": {"seed": [1, 2]}},
        {"seeds": {"start": 1, "count": 0}},
        {"stop": {"target_half_width": 0.0}},
        {"stop": {"target_half_width": 0.1, "min_runs": 4, "max_runs": 2}},
        {"stop": {"target_half_width": 0.1, "method": "bogus"}},
        {"bogus_key": 1},
    ],
)
def test_spec_validation_rejects(mutation):
    data = {
        "name": "test",
        "base": BASE,
        "grid": {"test_policy": ["none"]},
        "seeds": {"start": 1, "count": 2},
    }
    data.update(mutation)
    with pytest.raises(ValueError):
        CampaignSpec.from_dict(data)


def test_cell_label():
    assert cell_label(()) == "default"
    assert cell_label((("tdp_w", 40.0),)) == "tdp_w=40.0"


def test_stop_rule_evaluation_ladder():
    spec = small_spec(
        stop={"target_half_width": 0.1, "min_runs": 3, "max_runs": 10,
              "batch": 4},
    )
    assert spec.stop.evaluation_sizes() == [3, 7, 10]


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
def _fake_record(digest: str, seed: int = 1) -> dict:
    return {
        "schema": 1,
        "digest": digest,
        "cell": [],
        "seed": seed,
        "faults": [],
        "per_level_tests": {},
        "n_levels": 8,
        "summary": {"x": 1.0},
    }


def test_store_append_load_round_trip(tmp_path):
    store = ResultStore(str(tmp_path / "results.jsonl"))
    assert store.load() == {}
    store.append(_fake_record("a"))
    store.append(_fake_record("b"))
    records = store.load()
    assert set(records) == {"a", "b"}
    assert records["a"]["seed"] == 1


def test_store_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "results.jsonl"
    store = ResultStore(str(path))
    store.append(_fake_record("a"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"digest": "b", "truncated')  # crash mid-write
    assert set(store.load()) == {"a"}


def _fake_failure(digest: str) -> dict:
    return {"digest": digest, "seed": 1, "cell": [], "attempt": 1,
            "error": "boom", "quarantined": True}


def _loaded_digests(store) -> list:
    loaded = store.load()  # a dict by digest, or a list of entries
    if isinstance(loaded, dict):
        return list(loaded)
    return [entry["digest"] for entry in loaded]


@pytest.mark.parametrize("kind", ["results", "failures"])
def test_append_after_torn_tail_keeps_file_loadable(tmp_path, kind):
    # A crash mid-append leaves a fragment; the next store to append
    # (a resumed run) must cut it off instead of writing onto it.
    path = str(tmp_path / f"{kind}.jsonl")
    if kind == "results":
        ResultStore(path).append(_fake_record("a"))
    else:
        FailureLog(path).append("a", 1, [], 1, "boom", False)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"digest": "b", "trunc')
    if kind == "results":
        store = ResultStore(path)
        store.append(_fake_record("c"))
        store.append(_fake_record("d"))
        assert list(store.load()) == ["a", "c", "d"]
    else:
        log = FailureLog(path)
        log.append("c", 1, [], 1, "boom", True)
        log.append("d", 1, [], 1, "boom", True)
        assert [e["digest"] for e in log.load()] == ["a", "c", "d"]

    # The same contract for a batch append cut at every byte: the cut
    # file loads exactly the records whose JSON text is whole (a final
    # one without its newline counts), and a fresh store appending
    # after the cut leaves a file that loads those plus the new ones.
    store_cls = ResultStore if kind == "results" else FailureLog
    fake = _fake_record if kind == "results" else _fake_failure
    whole = str(tmp_path / f"whole-{kind}.jsonl")
    # _append_lines is the durable append both files share; it is what
    # ResultStore.extend calls with a served wave's records.
    store_cls(whole)._append_lines(
        json.dumps(fake(digest), sort_keys=True) for digest in "abc"
    )
    with open(whole, "rb") as handle:
        data = handle.read()
    ends = [i for i, byte in enumerate(data) if byte == ord("\n")]
    assert len(ends) == 3
    for cut in range(len(data) + 1):
        with open(path, "wb") as handle:
            handle.write(data[:cut])
        kept = [d for d, end in zip("abc", ends) if end <= cut]
        assert _loaded_digests(store_cls(path)) == kept, cut
        store_cls(path)._append_lines(
            json.dumps(fake(digest), sort_keys=True) for digest in "xy"
        )
        assert _loaded_digests(store_cls(path)) == kept + ["x", "y"], cut


def test_append_keeps_whole_final_record_missing_its_newline(tmp_path):
    # load() counts a final line that parses, so the repair must keep it.
    path = tmp_path / "results.jsonl"
    ResultStore(str(path)).append(_fake_record("a"))
    path.write_text(path.read_text().rstrip("\n"), encoding="utf-8")
    assert list(ResultStore(str(path)).load()) == ["a"]
    store = ResultStore(str(path))
    store.append(_fake_record("b"))
    assert list(store.load()) == ["a", "b"]


def test_store_rejects_mid_file_corruption(tmp_path):
    path = tmp_path / "results.jsonl"
    store = ResultStore(str(path))
    store.append(_fake_record("a"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("garbage\n")
    store.append(_fake_record("b"))
    with pytest.raises(ValueError, match="corrupt record"):
        store.load()


def _assert_store_matches_file(store):
    """The records ``store`` kept are what its file loads, and their
    kept lines digest as the loaded records do."""
    fresh = ResultStore(store.path)
    assert store.records == fresh.load()
    assert store.aggregate() == aggregate_digest(fresh.records.values())
    assert store.aggregate() == fresh.aggregate()


def test_store_keeps_the_records_its_file_holds(tmp_path):
    path = tmp_path / "results.jsonl"
    store = ResultStore(str(path))
    store.append(_fake_record("a"))
    store.extend([_fake_record("b"), _fake_record("a", seed=2),
                  _fake_record("c")])
    store.append(_fake_record("b", seed=3), sync=False)
    store.sync()
    store.extend([])
    _assert_store_matches_file(store)
    assert list(store.records) == ["a", "b", "c"]
    assert store.records["a"]["seed"] == store.records["b"]["seed"] == 1

    # A torn tail, repaired by the first append of a store that loaded
    # the file first, and of one that did not.
    for loaded in (True, False):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"digest": "d", "trunc')
        resumed = ResultStore(str(path))
        if loaded:
            assert list(resumed.load()) == ["a", "b", "c"]
        resumed.extend([_fake_record("c", seed=4), _fake_record("d")])
        _assert_store_matches_file(resumed)
        assert list(resumed.records) == ["a", "b", "c", "d"]

    # A whole final record that lost its newline is kept.
    path.write_text(path.read_text().rstrip("\n"), encoding="utf-8")
    resumed = ResultStore(str(path))
    resumed.append(_fake_record("e"))
    _assert_store_matches_file(resumed)
    assert list(resumed.records) == ["a", "b", "c", "d", "e"]

    # A line written some other way digests as its canonical line.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(_fake_record("f"), separators=(",", ":")))
    _assert_store_matches_file(ResultStore(str(path)))


def test_records_hold_json_types_only(tmp_path):
    # Tuples in a cell and in the config included: what a store keeps
    # from its appends is what a resume loads from its file.
    spec = small_spec(
        base=dict(BASE, horizon_us=1000.0),
        grid={"type_grid": [["std"], ["o3"]]},
        seeds={"start": 1, "count": 2},
    )
    store = ResultStore(str(tmp_path / "results.jsonl"))
    for point in spec.fixed_points():
        store.append(record_from_result(point, run_system(point.config)))
    assert len(store.records) == 4
    _assert_store_matches_file(store)


def test_aggregate_digest_order_independent():
    a, b = _fake_record("a"), _fake_record("b", seed=2)
    assert aggregate_digest([a, b]) == aggregate_digest([b, a])
    assert aggregate_digest([a, b]) != aggregate_digest([a])


def test_failure_log_quarantine_filtering(tmp_path):
    log = FailureLog(str(tmp_path / "failures.jsonl"))
    log.append("a", 1, [], 1, "boom", False)
    log.append("a", 1, [], 2, "boom", True)
    log.append("b", 2, [], 1, "boom", True)
    assert {e["digest"] for e in log.quarantined()} == {"a", "b"}
    # a later resume completed point "a": no longer quarantined
    assert {e["digest"] for e in log.quarantined({"a": {}})} == {"b"}


# ----------------------------------------------------------------------
# Executor: retry, quarantine, crash tolerance
# ----------------------------------------------------------------------
def test_serial_retry_then_success():
    spec = small_spec(grid={}, seeds={"start": 1, "count": 3})
    points = spec.fixed_points()
    attempts: dict = {}

    def flaky_worker(config, timeout_s=None):
        n = attempts.setdefault(config.seed, 0)
        attempts[config.seed] = n + 1
        if config.seed == 2 and n < 2:
            return Outcome(error="RuntimeError: injected")
        return execute(config, timeout_s)

    records = {}
    executor = RobustExecutor(
        jobs=1, retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
        worker=flaky_worker,
    )
    stats = executor.run(
        points, on_result=lambda p, r: records.__setitem__(p.digest, r)
    )
    assert stats.completed == 3
    assert stats.retried == 2
    assert not stats.quarantined
    assert len(records) == 3


def test_serial_quarantine_keeps_completed_results():
    spec = small_spec(grid={}, seeds={"start": 1, "count": 3})
    points = spec.fixed_points()
    bad = points[1]

    def broken_worker(config, timeout_s=None):
        if config_digest(config) == bad.digest:
            return Outcome(error="RuntimeError: always broken")
        return execute(config, timeout_s)

    records = {}
    failures = []
    executor = RobustExecutor(jobs=1, retry=NO_BACKOFF, worker=broken_worker)
    stats = executor.run(
        points,
        on_result=lambda p, r: records.__setitem__(p.digest, r),
        on_failure=lambda p, attempt, err, q: failures.append(
            (p.digest, attempt, err, q)
        ),
    )
    # Both healthy points completed; the bad one is quarantined and
    # attributed to its digest, with the full attempt history logged.
    assert stats.completed == 2
    assert len(stats.quarantined) == 1
    assert stats.quarantined[0].digest == bad.digest
    assert stats.quarantined[0].attempts == NO_BACKOFF.max_attempts
    assert bad.digest not in records and len(records) == 2
    assert [f[0] for f in failures] == [bad.digest] * 2
    assert failures[-1][3] is True  # final attempt marked quarantined


def test_retry_policy_backoff_bounded():
    policy = RetryPolicy(
        max_attempts=5, backoff_s=0.5, backoff_factor=2.0, max_backoff_s=1.5
    )
    assert policy.delay_s(1) == pytest.approx(0.5)
    assert policy.delay_s(2) == pytest.approx(1.0)
    assert policy.delay_s(3) == pytest.approx(1.5)  # capped
    assert policy.delay_s(10) == pytest.approx(1.5)
    assert RetryPolicy(backoff_s=0.0).delay_s(3) == 0.0


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_s=-1.0)


# Module-level workers for the pooled tests (must be picklable).
def _fail_seed2_worker(config, timeout_s=None):
    if config.seed == 2:
        return Outcome(error="RuntimeError: injected pool failure")
    return execute(config, timeout_s)


def _exploding_worker(config, timeout_s=None):
    raise AssertionError("the cache should have served every point")


def _exit_seed2_worker(config, timeout_s=None):
    if config.seed == 2:
        # Give co-inflight healthy points time to finish first: a pool
        # break charges every in-flight point an attempt (the supervisor
        # cannot tell who crashed), so an instant exit could repeatedly
        # charge the same innocent point until it quarantines — a real
        # but rare race this test is not about.
        time.sleep(0.5)
        os._exit(17)  # hard worker death -> BrokenProcessPool
    return execute(config, timeout_s)


def test_pool_worker_exception_is_quarantined_and_attributed():
    spec = small_spec(grid={}, seeds={"start": 1, "count": 3})
    points = spec.fixed_points()
    bad_digest = next(p.digest for p in points if p.seed == 2)
    records = {}
    executor = RobustExecutor(
        jobs=2, retry=NO_BACKOFF, worker=_fail_seed2_worker
    )
    stats = executor.run(
        points, on_result=lambda p, r: records.__setitem__(p.digest, r)
    )
    assert stats.completed == 2
    assert len(records) == 2
    assert [q.digest for q in stats.quarantined] == [bad_digest]
    assert "injected pool failure" in stats.quarantined[0].errors[-1]


def test_pool_survives_hard_worker_death():
    spec = small_spec(grid={}, seeds={"start": 1, "count": 3})
    points = spec.fixed_points()
    bad_digest = next(p.digest for p in points if p.seed == 2)
    records = {}
    executor = RobustExecutor(
        jobs=2,
        retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
        worker=_exit_seed2_worker,
    )
    stats = executor.run(
        points, on_result=lambda p, r: records.__setitem__(p.digest, r)
    )
    # The dying point quarantines; every healthy point completes even
    # though the pool it was sharing broke underneath it.
    assert len(records) == 2
    assert bad_digest not in records
    assert any(q.digest == bad_digest for q in stats.quarantined)


@pytest.mark.skipif(
    not hasattr(__import__("signal"), "SIGALRM"),
    reason="per-run timeout needs SIGALRM",
)
def test_pool_timeout_quarantines_slow_run():
    # epoch_us=0.005 makes the control loop ~6 orders of magnitude
    # denser: the run cannot finish within the timeout.
    spec = small_spec(
        grid={"epoch_us": [100.0, 0.005]}, seeds={"start": 1, "count": 1}
    )
    points = spec.fixed_points()
    slow_digest = next(
        p.digest for p in points if p.config.epoch_us == 0.005
    )
    records = {}
    executor = RobustExecutor(
        jobs=2, retry=RetryPolicy(max_attempts=1, backoff_s=0.0),
        timeout_s=0.4,
    )
    t0 = time.monotonic()
    stats = executor.run(
        points, on_result=lambda p, r: records.__setitem__(p.digest, r)
    )
    assert time.monotonic() - t0 < 30.0
    assert len(records) == 1
    assert [q.digest for q in stats.quarantined] == [slow_digest]
    assert "Timeout" in stats.quarantined[0].errors[-1]


# ----------------------------------------------------------------------
# Resume identity (the headline contract)
# ----------------------------------------------------------------------
def test_fixed_campaign_resume_identity(tmp_path):
    spec = small_spec()
    interrupted_dir = str(tmp_path / "interrupted")
    straight_dir = str(tmp_path / "straight")
    with pytest.raises(CampaignInterrupted):
        run_campaign(
            interrupted_dir, spec=spec, jobs=2, retry=NO_BACKOFF,
            interrupt_after=2,
        )
    # The kill lost nothing that was checkpointed...
    partial = ResultStore(
        os.path.join(interrupted_dir, "results.jsonl")
    ).load()
    assert len(partial) == 2
    # ...and resuming completes the campaign with a byte-identical
    # aggregate to the uninterrupted control run.
    resumed = run_campaign(
        interrupted_dir, resume=True, jobs=2, retry=NO_BACKOFF
    )
    straight = run_campaign(
        straight_dir, spec=spec, jobs=1, retry=NO_BACKOFF
    )
    assert resumed.aggregate == straight.aggregate
    assert resumed.n_completed == straight.n_completed == 4
    manifest = Path(interrupted_dir, "manifest.json").read_text()
    assert json.loads(manifest)["aggregate_digest"] == resumed.aggregate


def _assert_report_from_dir(report, campaign_dir):
    """``run_campaign`` builds its report from the records its store
    kept; ``report_campaign`` re-reads the directory.  They agree."""
    again = report_campaign(campaign_dir)
    assert again.manifest_json("v") == report.manifest_json("v")
    assert again.render() == report.render()


#: Aggregate digest of an uninterrupted run of the CI campaign smoke spec.
SMOKE_AGGREGATE = (
    "d20c60170598b42223bbe4dd532bd141d34e7f2ceda817711819a5daac77f7e8"
)


#: The CI campaign smoke spec (2 cells x 3 seeds), whose uninterrupted
#: run ends at SMOKE_AGGREGATE.
SMOKE_SPEC = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks",
    "campaign_smoke_spec.json",
)


def test_resume_after_torn_checkpoint_tail(tmp_path):
    """A kill inside ResultStore.append leaves half a record; resuming
    (twice) must still finish at the uninterrupted aggregate."""
    spec = CampaignSpec.load(SMOKE_SPEC)
    cdir = str(tmp_path / "campaign")
    with pytest.raises(CampaignInterrupted):
        run_campaign(cdir, spec=spec, retry=NO_BACKOFF, interrupt_after=3)
    results = os.path.join(cdir, "results.jsonl")
    with open(results, "rb") as handle:
        data = handle.read()
    third_start = data.index(b"\n", data.index(b"\n") + 1) + 1
    third_end = data.index(b"\n", third_start)
    with open(results, "wb") as handle:
        handle.write(data[: (third_start + third_end) // 2])
    for _ in range(2):
        report = run_campaign(cdir, resume=True, retry=NO_BACKOFF)
        assert report.aggregate == SMOKE_AGGREGATE
        assert report.n_completed == 6
        _assert_report_from_dir(report, cdir)


def test_resume_after_kill_inside_the_served_batch(tmp_path, closes):
    """A warm campaign checkpoints its cache hits with one append; a
    kill inside it leaves whole records plus at most one torn line.
    Resuming from any such cut finishes at the uninterrupted aggregate,
    serves the lost records from the cache again and stores nothing."""
    spec = CampaignSpec.load(SMOKE_SPEC)
    cache = closes(RunCache(cache_dir=str(tmp_path / "cache")))
    for label in ("cold", "warm"):
        report = run_campaign(str(tmp_path / label), spec=spec, cache=cache)
        assert report.aggregate == SMOKE_AGGREGATE, label
        _assert_report_from_dir(report, str(tmp_path / label))
    warm = str(tmp_path / "warm")
    with open(os.path.join(warm, "results.jsonl"), "rb") as handle:
        data = handle.read()
    starts = [0] + [i + 1 for i, byte in enumerate(data) if byte == 10]
    assert len(starts) == 7  # six records, each ending in a newline
    mids = [(a + b) // 2 for a, b in zip(starts, starts[1:])]
    cuts = sorted(
        {*starts, *(s + 1 for s in starts if s < len(data)), *mids}
    )
    puts = cache.stats.puts
    for cut in cuts:
        cdir = str(tmp_path / f"cut-{cut}")
        shutil.copytree(warm, cdir)
        with open(os.path.join(cdir, "results.jsonl"), "wb") as handle:
            handle.write(data[:cut])
        os.remove(os.path.join(cdir, "manifest.json"))
        report = run_campaign(cdir, resume=True, cache=cache)
        assert report.aggregate == SMOKE_AGGREGATE, cut
        assert report.n_completed == 6, cut
        _assert_report_from_dir(report, cdir)
    assert cache.stats.puts == puts
    assert cache.verify()["corrupt"] == []


def _counting_fsyncs(monkeypatch, flushes=None):
    """The inode of each fsync from now on, in order.  Given a list as
    ``flushes``, a status flush (the clock paces them) appends the
    number of its fsyncs there instead."""
    real_fsync = os.fsync
    calls, flushing = [], []

    def counting_fsync(fd):
        if flushing:
            flushing[-1] += 1
        else:
            calls.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    if flushes is not None:
        real_write_status = status_module.write_status

        def write_status(directory, status):
            flushing.append(0)
            try:
                real_write_status(directory, status)
            finally:
                flushes.append(flushing.pop())

        monkeypatch.setattr(status_module, "write_status", write_status)
    return calls


def test_warm_pass_fsyncs_once_for_all_its_hits(
    tmp_path, closes, monkeypatch
):
    """A fully warm pass costs the same durable writes at 4 and at 12
    points: the served records share one fsync (spec 1, records 1,
    final status flush 1, manifest 1)."""
    cache = closes(RunCache(cache_dir=str(tmp_path / "cache")))
    specs = {
        n: small_spec(base=dict(BASE, horizon_us=1000.0),
                      seeds={"start": 1, "count": n // 2})
        for n in (4, 12)
    }
    for n, spec in specs.items():
        run_campaign(str(tmp_path / f"cold-{n}"), spec=spec, cache=cache)
    calls = _counting_fsyncs(monkeypatch)
    counts = {}
    for n, spec in specs.items():
        calls.clear()
        report = run_campaign(str(tmp_path / f"warm-{n}"), spec=spec,
                              cache=cache, worker=_exploding_worker)
        assert report.n_completed == n
        counts[n] = len(calls)
    assert counts[4] == counts[12] == 4, counts


def test_warm_pass_integrates_no_power_trace(tmp_path, closes, monkeypatch):
    """A cached result carries its summary row: a cold pass integrates
    each point's three power traces once, in its run, and a warm pass
    builds every record without integrating any."""
    cache = closes(RunCache(cache_dir=str(tmp_path / "cache")))
    spec = small_spec(base=dict(BASE, horizon_us=1000.0),
                      seeds={"start": 1, "count": 2})
    calls = []
    integral = Trace.integral
    monkeypatch.setattr(
        Trace,
        "integral",
        lambda trace, *args: calls.append(args) or integral(trace, *args),
    )
    cold = run_campaign(str(tmp_path / "cold"), spec=spec, cache=cache)
    assert len(calls) == 3 * cold.n_completed
    calls.clear()
    warm = run_campaign(str(tmp_path / "warm"), spec=spec, cache=cache,
                        worker=_exploding_worker)
    assert warm.n_completed == cold.n_completed
    assert calls == []


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
def test_cold_pass_fsyncs_once_per_computed_point(
    tmp_path, closes, monkeypatch, cached
):
    """A cold pass costs one fsync per computed point: the cache's put,
    whose checkpoint line waits for the one fsync that ends the wave,
    or without a cache the checkpoint line itself.  Status flushes are
    paced by the clock, so they are counted apart: one fsync each, the
    first point's and the final one at least."""
    flushes = []
    calls = _counting_fsyncs(monkeypatch, flushes)
    counts = {}
    for n in (4, 12):
        spec = small_spec(base=dict(BASE, horizon_us=1000.0),
                          seeds={"start": 1, "count": n // 2})
        cache = (closes(RunCache(cache_dir=str(tmp_path / f"cache-{n}")))
                 if cached else None)
        calls.clear()
        flushes.clear()
        cdir = tmp_path / f"cold-{n}"
        report = run_campaign(str(cdir), spec=spec, cache=cache)
        assert report.n_completed == n
        counts[n] = len(calls)
        results = os.stat(cdir / "results.jsonl").st_ino
        assert calls.count(results) == (1 if cached else n)
        assert len(flushes) >= 2 and set(flushes) == {1}, flushes
    assert counts[12] - counts[4] == 8, counts


def test_campaign_directory_holds_only_its_files(tmp_path, closes):
    """Cold and warm passes leave the spec, the checkpoint, the status
    and the manifest, and nothing else; a failed attempt adds its log."""
    cache = closes(RunCache(cache_dir=str(tmp_path / "cache")))
    spec = small_spec(base=dict(BASE, horizon_us=1000.0))
    files = ["manifest.json", "results.jsonl", "spec.json", "status.json"]
    for name in ("cold", "warm"):
        run_campaign(str(tmp_path / name), spec=spec, cache=cache)
        assert sorted(os.listdir(tmp_path / name)) == files, name
    report = run_campaign(str(tmp_path / "failed"), spec=spec,
                          worker=_fail_seed2_worker, retry=NO_BACKOFF)
    assert len(report.quarantined) == 2
    assert sorted(os.listdir(tmp_path / "failed")) == sorted(
        files + ["failures.jsonl"]
    )


#: Exit status of a child killed at its chosen fsync.
KILLED = 17


def _run_killed(campaign_dir, cache_dir, spec, k, tear):
    """Run ``spec`` with the cache in ``cache_dir`` (cold into a fresh
    one, warm from one a cold pass filled) in a forked child that exits
    just before its k-th fsync, after cutting the file being synced to a
    random length no shorter than at its previous fsync if ``tear``.
    Returns the child's exit status: KILLED, or 0 if the run finished
    first."""
    pid = os.fork()
    if pid == 0:  # the child never returns into pytest
        code = 1
        try:
            real_fsync, rng, synced = os.fsync, random.Random(k), {}
            calls = []

            def fsync(fd):
                calls.append(fd)
                st = os.fstat(fd)
                inode = (st.st_dev, st.st_ino)
                if len(calls) == k:
                    if tear:
                        floor = min(synced.get(inode, 0), st.st_size)
                        os.ftruncate(fd, rng.randint(floor, st.st_size))
                    os._exit(KILLED)
                real_fsync(fd)
                synced[inode] = st.st_size

            os.fsync = fsync
            run_campaign(campaign_dir, spec=spec, retry=NO_BACKOFF,
                         cache=RunCache(cache_dir=cache_dir))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    deadline = time.monotonic() + 120
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise AssertionError(f"child killed at fsync {k} hung")
        time.sleep(0.002)


def test_kill_at_every_fsync_of_a_cold_cached_campaign(tmp_path, closes):
    """Kill a cached campaign just before each of its fsyncs in turn (a
    second pass also tears the file being synced), then resume it with
    the same cache: the aggregate is the uninterrupted one, the cache
    holds nothing corrupt, and the resume computes exactly the points
    the reopened cache lacks, so no completed put runs again.  The cold
    case starts from an empty cache.  The warm case starts from a copy
    of one a cold pass filled: its four fsyncs are the spec, the served
    batch, the status flush and the manifest, and its resume stores
    nothing."""
    spec = CampaignSpec.load(SMOKE_SPEC)
    filled = str(tmp_path / "filled")
    fill = RunCache(cache_dir=filled)
    run_campaign(str(tmp_path / "fill"), spec=spec, cache=fill)
    keys = {fill.key_for(p.digest) for p in spec.fixed_points()}
    fill.close()
    for warm, tear in itertools.product((False, True), repeat=2):
        for k in itertools.count(1):
            work = tmp_path / (
                f"{'warm' if warm else 'cold'}-{'tear' if tear else 'kill'}"
                f"-{k}"
            )
            cdir, cache_dir = str(work / "campaign"), str(work / "cache")
            if warm:
                shutil.copytree(filled, cache_dir)
            code = _run_killed(cdir, cache_dir, spec, k, tear)
            if code == 0:
                # The run finished before its k-th fsync.
                assert (k == 5) if warm else (k > 10), (warm, k)
                break
            assert code == KILLED, (warm, tear, k, code)
            cache = closes(RunCache(cache_dir=cache_dir))
            lost = keys - set(cache.store.keys())
            assert not (warm and lost), (tear, k)
            resume = os.path.exists(os.path.join(cdir, "spec.json"))
            report = run_campaign(cdir, spec=None if resume else spec,
                                  resume=resume, cache=cache,
                                  retry=NO_BACKOFF)
            assert report.aggregate == SMOKE_AGGREGATE, (warm, tear, k)
            _assert_report_from_dir(report, cdir)
            assert cache.verify()["corrupt"] == [], (warm, tear, k)
            assert cache.stats.puts == len(lost), (warm, tear, k)


def test_sequential_campaign_resume_identity(tmp_path):
    spec = small_spec(
        grid={},
        base=dict(BASE, fault_hazard_per_us=3e-4),
        seeds={"start": 1, "count": 1},
        stop={"target_half_width": 0.02, "min_runs": 2, "max_runs": 4,
              "batch": 2},
    )
    interrupted_dir = str(tmp_path / "interrupted")
    straight_dir = str(tmp_path / "straight")
    with pytest.raises(CampaignInterrupted):
        run_campaign(
            interrupted_dir, spec=spec, jobs=2, retry=NO_BACKOFF,
            interrupt_after=1,
        )
    resumed = run_campaign(
        interrupted_dir, resume=True, jobs=2, retry=NO_BACKOFF
    )
    straight = run_campaign(
        straight_dir, spec=spec, jobs=1, retry=NO_BACKOFF
    )
    assert resumed.aggregate == straight.aggregate
    assert resumed.n_completed == straight.n_completed
    _assert_report_from_dir(resumed, interrupted_dir)
    _assert_report_from_dir(straight, straight_dir)


def test_sequential_stopping_rule_bounds_runs(tmp_path):
    base = dict(BASE, fault_hazard_per_us=3e-4)
    loose = small_spec(
        name="loose", grid={}, base=base, seeds={"start": 1, "count": 1},
        stop={"target_half_width": 0.45, "min_runs": 2, "max_runs": 6,
              "batch": 2},
    )
    tight = small_spec(
        name="tight", grid={}, base=base, seeds={"start": 1, "count": 1},
        stop={"target_half_width": 0.005, "min_runs": 2, "max_runs": 4,
              "batch": 2},
    )
    r_loose = run_campaign(
        str(tmp_path / "loose"), spec=loose, retry=NO_BACKOFF
    )
    r_tight = run_campaign(
        str(tmp_path / "tight"), spec=tight, retry=NO_BACKOFF
    )
    assert r_loose.n_completed == 2      # satisfied at min_runs
    assert r_tight.n_completed == 4      # ran to max_runs


def test_run_rejects_dir_with_results_or_other_spec(tmp_path):
    spec = small_spec(seeds={"start": 1, "count": 1}, grid={})
    cdir = str(tmp_path / "c")
    run_campaign(cdir, spec=spec, retry=NO_BACKOFF)
    with pytest.raises(ValueError, match="use resume"):
        run_campaign(cdir, spec=spec, retry=NO_BACKOFF)
    other = small_spec(name="other", seeds={"start": 1, "count": 1}, grid={})
    with pytest.raises(ValueError, match="different spec"):
        run_campaign(cdir, spec=other, retry=NO_BACKOFF)


def test_campaign_completes_around_quarantined_point(tmp_path):
    spec = small_spec(grid={}, seeds={"start": 1, "count": 3})
    report = run_campaign(
        str(tmp_path / "c"), spec=spec, jobs=2, retry=NO_BACKOFF,
        worker=_fail_seed2_worker,
    )
    assert report.n_completed == 2
    assert len(report.quarantined) == 1
    assert report.quarantined[0]["seed"] == 2
    # failures.jsonl attributes every attempt
    entries = FailureLog(
        str(tmp_path / "c" / "failures.jsonl")
    ).load()
    assert len(entries) == NO_BACKOFF.max_attempts
    assert all("injected pool failure" in e["error"] for e in entries)


def test_plan_missing_is_pure_and_shrinks(tmp_path):
    spec = small_spec()
    assert len(plan_missing(spec, {})) == 4
    cdir = str(tmp_path / "c")
    with pytest.raises(CampaignInterrupted):
        run_campaign(
            cdir, spec=spec, retry=NO_BACKOFF, interrupt_after=3
        )
    records = ResultStore(os.path.join(cdir, "results.jsonl")).load()
    missing = plan_missing(spec, records)
    assert len(missing) == 1
    assert all(p.digest not in records for p in missing)


def test_report_rows_full_grid_even_when_partial(tmp_path):
    spec = small_spec()
    report = build_report(spec, ResultStore(str(tmp_path / "none.jsonl")))
    # 2 cells + ALL row, all zero-run
    assert len(report.rows) == 3
    assert all(row[1] == 0 for row in report.rows)
    assert report.n_completed == 0


# ----------------------------------------------------------------------
# run_many failure attribution (satellite)
# ----------------------------------------------------------------------
def _bogus_config() -> SystemConfig:
    # Passes __post_init__ but explodes inside run_system's wiring.
    return dataclasses.replace(
        SystemConfig(horizon_us=2000.0), noc_mode="bogus"
    )


def test_run_many_serial_failure_attributed():
    good = SystemConfig(horizon_us=2000.0, width=4, height=4)
    bad = _bogus_config()
    with pytest.raises(RunFailed) as excinfo:
        run_many([good, bad])
    assert excinfo.value.index == 1
    assert excinfo.value.digest == config_digest(bad)
    assert "noc_mode" in excinfo.value.error


def test_run_many_parallel_failure_attributed():
    good = SystemConfig(horizon_us=2000.0, width=4, height=4)
    bad = _bogus_config()
    with pytest.raises(RunFailed) as excinfo:
        run_many([bad, good, good], jobs=2)
    assert excinfo.value.index == 0
    assert excinfo.value.digest == config_digest(bad)


@pytest.mark.parametrize(
    "kwargs, exc, fragment",
    [
        ({"jobs": -1}, ValueError, "jobs must be non-negative"),
        ({"jobs": True}, TypeError, "jobs must be an int"),
        ({"jobs": 2.5}, TypeError, "jobs must be an int"),
        ({"jobs": "4"}, TypeError, "jobs must be an int"),
    ],
)
def test_run_many_rejects_nonsense_knobs(kwargs, exc, fragment):
    # Validation fires before any work: even an empty sweep rejects.
    with pytest.raises(exc, match=fragment):
        run_many([], **kwargs)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_campaign_run_resume_report(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "name": "cli",
                "base": BASE,
                "grid": {"test_policy": ["power-aware"]},
                "seeds": {"start": 1, "count": 2},
            }
        )
    )
    cdir = str(tmp_path / "camp")
    rc = main(
        ["campaign", "run", str(spec_path), "--dir", cdir,
         "--backoff-s", "0", "--interrupt-after", "1"]
    )
    assert rc == 3  # simulated crash
    rc = main(["campaign", "resume", cdir, "--backoff-s", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "campaign cli" in out
    assert "aggregate digest" in out
    rc = main(["campaign", "report", cdir])
    assert rc == 0
    assert os.path.exists(os.path.join(cdir, "manifest.json"))


def test_cli_campaign_report_missing_dir(tmp_path, capsys):
    rc = main(["campaign", "report", str(tmp_path / "nope")])
    assert rc == 2
    assert "cannot report" in capsys.readouterr().err


def test_cli_jobs_rejects_negative_at_parse_time(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "tdp_w", "40,60", "--jobs", "-2"])
    assert excinfo.value.code == 2
    assert "jobs must be >= 0" in capsys.readouterr().err


def test_cli_jobs_rejects_non_integer(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "E2", "--jobs", "two"])
    assert excinfo.value.code == 2
    assert "jobs must be an integer" in capsys.readouterr().err
