"""Tests for the observability subsystem (repro.obs).

Covers the journal sink and its no-op invariant, the block profiler, the
audit reports reconstructed from journals, run provenance manifests,
and — the load-bearing guarantee — that enabling full observability
reproduces a disabled run's results bit for bit.
"""

import json
from dataclasses import replace

import pytest

from repro.core.system import SystemConfig, run_system
from repro.obs import (
    DEBUG_TYPES,
    NULL_JOURNAL,
    Journal,
    JournalEvent,
    Profile,
    RunManifest,
    audit,
    digest_of,
    events_of,
    result_digest,
    rows_digest,
)
from repro.obs.profile import OTHER, module_of


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
def test_journal_records_events_in_order():
    journal = Journal()
    journal.emit("test.launch", 10.0, core=3, level=2)
    journal.emit("test.defer", 20.0, core=4, reason="no-headroom")
    assert len(journal) == 2
    events = journal.events
    assert [e.type for e in events] == ["test.launch", "test.defer"]
    assert events[0].time == 10.0
    assert events[0].data == {"core": 3, "level": 2}
    assert journal.counts() == {"test.launch": 1, "test.defer": 1}


def test_journal_events_cached_and_refreshed():
    journal = Journal()
    journal.emit("a", 1.0)
    first = journal.events
    assert journal.events is first  # cached between emits
    journal.emit("b", 2.0)
    assert [e.type for e in journal.events] == ["a", "b"]


def test_null_journal_records_nothing():
    NULL_JOURNAL.emit("test.launch", 1.0, core=0)
    assert not NULL_JOURNAL.enabled
    assert len(NULL_JOURNAL) == 0


def test_debug_types_filtered_at_info_level():
    info = Journal(level="info")
    debug = Journal(level="debug")
    for journal in (info, debug):
        journal.emit("core.transition", 1.0, core=0, from_state="IDLE", to_state="BUSY")
        journal.emit("test.launch", 2.0, core=0)
    assert info.counts() == {"test.launch": 1}
    assert debug.counts() == {"core.transition": 1, "test.launch": 1}
    assert "core.transition" in DEBUG_TYPES and "map.blocked" in DEBUG_TYPES
    assert not info.debug and debug.debug


def test_journal_rejects_unknown_level_and_bad_knobs():
    with pytest.raises(ValueError):
        Journal(level="verbose")
    with pytest.raises(ValueError):
        Journal(sample_every=0)
    with pytest.raises(ValueError):
        Journal(capacity=-1)


def test_sampling_decimates_high_rate_types():
    journal = Journal(level="debug", sample_every=3)
    for i in range(9):
        journal.emit("core.transition", float(i), core=0)
        journal.emit("test.launch", float(i), core=0)
    counts = journal.counts()
    assert counts["core.transition"] == 3  # every 3rd kept
    assert counts["test.launch"] == 9      # decisions never sampled


def test_capacity_bounds_journal_and_counts_drops():
    journal = Journal(capacity=2)
    for i in range(5):
        journal.emit("test.launch", float(i), core=i)
    assert len(journal) == 2
    assert journal.dropped == 3


def test_jsonl_round_trip(tmp_path):
    journal = Journal()
    journal.emit("test.launch", 10.5, core=3, level=2, headroom_w=1.25)
    journal.emit("app.map", 11.0, app=7, cores=(1, 2), waited_us=0.5)
    path = tmp_path / "run.jsonl"
    journal.write_jsonl(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == {
        "t": 10.5, "type": "test.launch", "core": 3, "level": 2,
        "headroom_w": 1.25,
    }
    loaded = Journal.load_jsonl(str(path))
    assert [e.type for e in loaded] == ["test.launch", "app.map"]
    assert loaded[0].time == 10.5
    assert loaded[0].data["headroom_w"] == 1.25
    # Tuples serialise as JSON arrays and come back as lists.
    assert loaded[1].data["cores"] == [1, 2]


def test_events_of_accepts_journal_or_iterable():
    journal = Journal()
    journal.emit("a", 1.0)
    assert [e.type for e in events_of(journal)] == ["a"]
    plain = [JournalEvent(time=1.0, type="b", data={})]
    assert list(events_of(plain)) == plain


def test_filter_by_prefix_window_and_predicate():
    journal = Journal()
    journal.emit("test.launch", 1.0, core=0)
    journal.emit("test.defer", 2.0, core=1, reason="no-headroom")
    journal.emit("dvfs.change", 3.0, core=0, from_level=0, to_level=1)
    assert [e.time for e in journal.filter(type_prefix="test.")] == [1.0, 2.0]
    assert [e.type for e in journal.filter(t0=2.0, t1=3.0)] == [
        "test.defer", "dvfs.change",
    ]
    hits = journal.filter(where=lambda e: e.data.get("core") == 0)
    assert [e.type for e in hits] == ["test.launch", "dvfs.change"]


# ----------------------------------------------------------------------
# Profile
# ----------------------------------------------------------------------
def test_module_of_names_repro_modules():
    import repro.cache
    import repro.core.executor

    assert module_of(repro.core.executor.__file__) == "repro.core.executor"
    assert module_of(repro.cache.__file__) == "repro.cache"
    assert module_of(json.__file__) == OTHER
    assert module_of("<string>") == OTHER


def test_profile_rows_add_up_and_accumulate():
    profile = Profile()
    assert profile.coverage == 0.0
    with profile:
        run_system(SystemConfig(horizon_us=1_000.0, seed=2))
    first_calls = profile.rows["repro.sim.engine"]["calls"]
    assert profile.self_s == pytest.approx(
        sum(row["self_s"] for row in profile.summary().values())
    )
    assert 0.0 < profile.self_s <= profile.wall_s
    with profile:
        run_system(SystemConfig(horizon_us=1_000.0, seed=2))
    assert profile.rows["repro.sim.engine"]["calls"] == 2 * first_calls
    selfs = [row["self_s"] for row in profile.summary().values()]
    assert selfs == sorted(selfs, reverse=True)
    report = profile.report()
    assert "repro.core.executor" in report and "coverage" in report


def test_profiled_run_is_bit_exact_and_covered():
    """A 2 ms run under Profile computes what a plain run does, and the
    per-module self times add up to (nearly all of) its wall time."""
    config = SystemConfig(horizon_us=2_000.0, seed=7)
    plain = run_system(config)
    with Profile() as profile:
        profiled_result = run_system(config)
    assert result_digest(profiled_result) == result_digest(plain)
    assert profile.coverage >= 0.95
    assert {"repro.sim.engine", "repro.core.executor"} <= set(profile.rows)


# ----------------------------------------------------------------------
# Audit reports on synthetic journals
# ----------------------------------------------------------------------
def _synthetic_journal():
    journal = Journal()
    journal.emit("test.launch", 10.0, core=0, level=0, headroom_w=5.0,
                 cost_w=1.0, criticality=2.0, downgraded=False)
    journal.emit("test.complete", 40.0, core=0, level=0, detected=False,
                 gap_us=40.0)
    journal.emit("test.defer", 50.0, core=1, reason="no-headroom",
                 headroom_w=-1.0, criticality=3.0)
    journal.emit("test.launch", 60.0, core=1, level=1, headroom_w=4.0,
                 cost_w=1.0, criticality=3.0, downgraded=True)
    journal.emit("test.complete", 90.0, core=1, level=1, detected=False,
                 gap_us=90.0)
    journal.emit("dvfs.change", 95.0, core=1, from_level=1, to_level=0)
    journal.emit("budget.violation", 97.0, measured_w=90.0, cap_w=80.0,
                 overshoot_w=10.0)
    journal.emit("test.complete", 140.0, core=0, level=1, detected=False,
                 gap_us=100.0)
    return journal


def test_audit_test_decisions():
    decisions = audit.test_decisions(_synthetic_journal())
    assert [d["action"] for d in decisions] == ["launch", "defer", "launch"]
    assert decisions[0]["reason"] == "fits"
    assert decisions[1]["reason"] == "no-headroom"
    assert decisions[1]["headroom_w"] == -1.0
    assert decisions[2]["reason"] == "downgraded"
    assert audit.deferral_reasons(_synthetic_journal()) == {"no-headroom": 1}


def test_audit_core_intervals_and_gaps():
    intervals = audit.core_test_intervals(_synthetic_journal())
    assert intervals == {0: [40.0, 140.0], 1: [90.0]}
    gaps = audit.core_test_gaps(_synthetic_journal())
    assert gaps[0] == [40.0, 100.0]
    assert gaps[1] == [90.0]


def test_audit_vf_coverage():
    journal = _synthetic_journal()
    assert audit.vf_coverage(journal) == {0: [0, 1], 1: [1]}
    assert not audit.all_levels_covered(journal, n_levels=2)
    assert not audit.all_levels_covered(Journal(), n_levels=2)
    full = Journal()
    full.emit("test.complete", 1.0, core=0, level=0)
    full.emit("test.complete", 2.0, core=0, level=1)
    assert audit.all_levels_covered(full, n_levels=2)


def test_audit_summarize_and_format():
    roll = audit.summarize(_synthetic_journal())
    assert roll["events"] == 8
    assert roll["t_first"] == 10.0 and roll["t_last"] == 140.0
    assert roll["test_launches"] == 2
    assert roll["test_deferrals"] == 1
    assert roll["tests_completed"] == 3
    assert roll["cores_tested"] == 2
    assert roll["levels_covered"] == [0, 1]
    assert roll["budget_violations"] == 1
    assert roll["dvfs_changes"] == 1
    text = audit.format_summary(_synthetic_journal(), n_levels=2)
    assert "test.launch" in text
    assert "no-headroom" in text
    assert "False" in text  # coverage verdict line


# ----------------------------------------------------------------------
# Integration: instrumented runs
# ----------------------------------------------------------------------
_CONFIG = SystemConfig(horizon_us=6_000.0, seed=7)


def test_enabling_observability_is_bit_exact():
    """The read-only invariant: obs on/off must not change any result."""
    plain = run_system(_CONFIG)
    journal = Journal(level="debug")
    with Profile():
        observed = run_system(_CONFIG, journal=journal)
    assert observed.summary() == plain.summary()
    assert digest_of(sorted(observed.summary().items())) == digest_of(
        sorted(plain.summary().items())
    )
    assert observed.per_core_tests == plain.per_core_tests
    assert len(journal) > 0


def test_journal_answers_the_papers_questions():
    """Launches/deferrals with reasons + headroom, per-core intervals and
    V/F coverage must be reconstructible from the journal alone."""
    journal = Journal()
    result = run_system(_CONFIG, journal=journal)

    decisions = audit.test_decisions(journal)
    launches = [d for d in decisions if d["action"] == "launch"]
    assert launches, "expected test launches in a 6 ms run"
    for decision in decisions:
        assert decision["reason"] is not None
        assert isinstance(decision["headroom_w"], float)

    # Per-core test completions seen by the audit match the result's
    # own per-core counters exactly.
    intervals = audit.core_test_intervals(journal)
    journal_counts = {core: len(times) for core, times in intervals.items()}
    result_counts = {
        core: n for core, n in result.per_core_tests.items() if n > 0
    }
    assert journal_counts == result_counts

    # Every tested core reports the V/F level indexes it covered.
    coverage = audit.vf_coverage(journal)
    assert set(coverage) == set(result_counts)
    for levels in coverage.values():
        assert all(0 <= lv < _CONFIG.n_vf_levels for lv in levels)

    # DVFS changes carry from/to levels.
    for event in journal.filter(type_prefix="dvfs."):
        assert {"core", "from_level", "to_level"} <= set(event.data)

    # PID steps expose the controller state behind DVFS decisions.
    pid_steps = journal.filter(type_prefix="pid.")
    assert pid_steps
    assert {"measured_w", "error_w", "integral", "signal_w"} <= set(
        pid_steps[0].data
    )


def test_e2_digest_unchanged_with_journal_enabled():
    """Tier-1 guard for the bench invariant: every E2 point is
    bit-identical with a debug-level journal of its own and the whole
    set profiled (scaled-down horizon)."""
    from repro.experiments.runners import DEFAULT_CONFIG

    configs = [
        replace(DEFAULT_CONFIG, horizon_us=3_000.0, test_policy=policy)
        for policy in ("none", "power-aware", "unaware", "round-robin")
    ]
    plain = [result_digest(run_system(config)) for config in configs]
    journals = [Journal(level="debug") for _ in configs]
    with Profile():
        observed = [
            result_digest(run_system(config, journal=journal))
            for config, journal in zip(configs, journals)
        ]
    assert observed == plain
    assert all(len(journal) > 0 for journal in journals)


def test_run_manifest_provenance():
    journal = Journal()
    result = run_system(_CONFIG, journal=journal)
    manifest = result.manifest
    assert isinstance(manifest, RunManifest)
    assert manifest.seed == _CONFIG.seed
    assert manifest.horizon_us == _CONFIG.horizon_us
    assert manifest.config["tdp_w"] == _CONFIG.tdp_w
    assert manifest.journal_events == len(journal)
    assert manifest.journal_dropped == 0
    # The digest is a pure function of the summary: identical reruns agree.
    rerun = run_system(_CONFIG)
    assert rerun.manifest.summary_digest == manifest.summary_digest
    as_dict = manifest.to_dict()
    assert as_dict["seed"] == _CONFIG.seed
    assert as_dict["version"]


def test_experiment_provenance_rows_digest():
    from repro.experiments import run_experiment

    result = run_experiment("E2", horizon_us=3_000.0, jobs=1)
    prov = result.provenance
    assert prov["experiment_id"] == "E2"
    assert prov["kwargs"] == {"horizon_us": 3000.0, "jobs": 1}
    assert prov["rows_digest"] == rows_digest(result.rows)
    assert prov["version"]


def test_scheduler_explain_is_pure():
    """explain() must audit without mutating scheduler or runner state."""
    from repro.core.system import ManycoreSystem

    system = ManycoreSystem(SystemConfig(horizon_us=4_000.0, seed=3))
    system.run()
    scheduler = system.test_scheduler
    now = system.sim.now
    before = (
        scheduler.downgraded_levels,
        system.runner.stats.started,
        system.runner.stats.aborted,
    )
    first = scheduler.explain(now)
    second = scheduler.explain(now)
    assert first == second
    after = (
        scheduler.downgraded_levels,
        system.runner.stats.started,
        system.runner.stats.aborted,
    )
    assert before == after
    assert {"time", "measured_w", "headroom_w", "slots", "decisions"} <= set(
        first
    )
    for decision in first["decisions"]:
        assert decision["action"] in ("launch", "defer")
        assert "core" in decision and "criticality" in decision


def test_power_manager_explain():
    from repro.core.system import ManycoreSystem

    system = ManycoreSystem(SystemConfig(horizon_us=4_000.0, seed=3))
    system.run()
    report = system.power_manager.explain(system.sim.now)
    assert report["policy"] == "pid"
    assert {"measured_w", "cap_w", "headroom_w", "core_levels",
            "set_point_w", "integral", "last_error_w"} <= set(report)


def test_debug_level_records_core_transitions():
    journal = Journal(level="debug")
    run_system(SystemConfig(horizon_us=2_000.0, seed=5), journal=journal)
    counts = journal.counts()
    assert counts.get("core.transition", 0) > 0
    assert counts.get("map.blocked", 0) >= 0  # debug-only churn event
    info = Journal(level="info")
    run_system(SystemConfig(horizon_us=2_000.0, seed=5), journal=info)
    assert "core.transition" not in info.counts()
    assert "map.blocked" not in info.counts()
