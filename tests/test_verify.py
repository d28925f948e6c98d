"""Tests for repro.verify: invariants, metamorphic relations, replay.

Three layers, mirroring the package:

* the inline invariant checker is read-only (verified runs are
  byte-identical to unverified ones), certifies every E1–E9 and E11
  proposed config and A5's tight package violation-free, and each invariant has a negative test proving
  it fires on an injected violation;
* each metamorphic relation holds on the real simulator and its pure
  ``check`` flags doctored samples (hypothesis property tests) and a
  deliberately broken scheduler stub;
* journal replay reproduces the live meter bit-for-bit on a seeded run
  and turns corrupted/truncated journals into a clean ``ReplayError``.
"""

import dataclasses
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.system import ManycoreSystem, SystemConfig, run_system
from repro.experiments.runners import DEFAULT_CONFIG, EXPERIMENTS
from repro.obs.journal import Journal, JournalEvent
from repro.obs.provenance import digest_of
from repro.platform.core import CoreState
from repro.power.meter import PowerBreakdown
from repro.verify import (
    BudgetMonotonicThroughput,
    Invariant,
    InvariantChecker,
    LevelDomainCoverage,
    NoTestPolicyZeroTests,
    PowerConservationInvariant,
    ReplayError,
    SeedPermutationInvariance,
    ZeroHazardZeroFaults,
    check_relations,
    default_invariants,
    default_relations,
    replay_journal,
    verify_config,
)

from tests.conftest import small_system_config

SMALL = small_system_config(horizon_us=6_000.0, seed=7)


def _digest(result):
    return digest_of(sorted(result.summary().items()))


# ----------------------------------------------------------------------
# Read-only contract + E1..E9 certification
# ----------------------------------------------------------------------
def test_verified_run_is_byte_identical_to_unverified():
    plain = run_system(SMALL)
    verified, checker = verify_config(SMALL)
    assert checker.ok
    assert checker.ticks_checked > 0
    assert _digest(verified) == _digest(plain)
    assert verified.events_fired == plain.events_fired


def test_null_verifier_is_a_no_op():
    """``verifier=None``, the only off switch, subscribes nothing."""
    plain = ManycoreSystem(SMALL)
    checked = ManycoreSystem(SMALL, verifier=InvariantChecker())
    assert plain.verifier is None
    assert len(checked.chip._listeners) == len(plain.chip._listeners) + 1


def test_verified_run_with_journal_is_byte_identical():
    plain = run_system(SMALL)
    journal = Journal(level="info")
    verified, checker = verify_config(SMALL, journal=journal)
    assert checker.ok
    assert _digest(verified) == _digest(plain)
    counts = journal.counts()
    assert counts["verify.platform"] == 1
    assert counts["verify.cores"] == checker.ticks_checked
    assert counts["verify.power"] == checker.ticks_checked
    assert "verify.violation" not in counts


def certified_config(experiment_id, horizon_us):
    """The one config ``experiment_id``'s spec certifies, at seed 11."""
    spec = EXPERIMENTS[experiment_id](horizon_us=horizon_us)
    [config] = spec.certified_configs(11)
    return config


@pytest.mark.parametrize(
    "experiment_id",
    sorted(i for i, factory in EXPERIMENTS.items() if factory().certified),
)
def test_no_violations_on_experiment_configs(experiment_id):
    """The paper's proposed-method configs are invariant-clean."""
    config = certified_config(experiment_id, 5_000.0)
    result, checker = verify_config(config)
    assert checker.ok, [v.message for v in checker.violations[:3]]
    assert checker.ticks_checked > 0
    assert result.summary()["budget_violation_rate"] == 0.0


def test_checker_summary_shape():
    _result, checker = verify_config(SMALL)
    summary = checker.summary()
    assert summary["ok"] is True
    assert summary["violations"] == 0
    assert summary["first_snapshot"] is None
    assert "power-conservation" in summary["invariants"]
    assert summary["checks_run"] >= summary["ticks_checked"]


def test_checker_cannot_attach_twice():
    checker = InvariantChecker()
    ManycoreSystem(SMALL, verifier=checker)
    with pytest.raises(RuntimeError, match="already attached"):
        ManycoreSystem(SMALL, verifier=checker)


# ----------------------------------------------------------------------
# Negative tests: every invariant fires on an injected violation
# ----------------------------------------------------------------------
def _fresh(config=SMALL):
    checker = InvariantChecker()
    system = ManycoreSystem(config, verifier=checker)
    return system, checker


def _names(checker):
    return {violation.invariant for violation in checker.violations}


def test_budget_invariant_fires_on_power_unaware_baseline():
    """The strawman policy punctures the cap; the invariant records it."""
    config = replace(
        DEFAULT_CONFIG, horizon_us=20_000.0, test_policy="unaware"
    )
    result, checker = verify_config(config)
    assert not checker.ok
    assert _names(checker) == {"budget-compliance"}
    assert result.summary()["budget_violation_rate"] > 0.0
    violation = checker.violations[0]
    # Violation provenance: what was drawing power and who scheduled it.
    for key in (
        "measured_w", "cap_w", "overshoot_w", "testing_cores",
        "active_sessions", "scheduler", "workload_w", "test_w",
    ):
        assert key in violation.details
    assert violation.details["overshoot_w"] > 0
    assert violation.details["scheduler"] == "unaware"
    snapshot = checker.first_snapshot
    assert snapshot is not None
    assert snapshot["power"]["total_w"] > snapshot["power"]["cap_w"]
    assert set(snapshot["cores"]) == {s.name for s in CoreState}


def test_power_conservation_invariant_fires_on_doctored_breakdown():
    system, checker = _fresh()
    real = system.meter.breakdown()
    doctored = PowerBreakdown(
        workload=real.workload + 1.0,
        test=real.test,
        leakage=real.leakage,
        noc=real.noc,
    )
    checker.on_control_tick(system, 100.0, doctored)
    assert "power-conservation" in _names(checker)
    violation = next(
        v for v in checker.violations if v.invariant == "power-conservation"
    )
    assert violation.details["channel"] == "workload"
    assert violation.details["error_w"] == pytest.approx(1.0)


def test_state_legality_invariant_fires_on_illegal_transition():
    system, checker = _fresh()
    core = system.chip.core(0)
    core.state = CoreState.FAULTY  # IDLE -> FAULTY: injection can't retire
    assert _names(checker) == {"state-legality"}
    violation = checker.violations[0]
    assert violation.details == {
        "core": 0, "from_state": "IDLE", "to_state": "FAULTY"
    }


def test_state_legality_allows_the_legal_lifecycle():
    system, checker = _fresh()
    core = system.chip.core(0)
    core.state = CoreState.TESTING
    core.state = CoreState.IDLE
    core.state = CoreState.BUSY
    core.state = CoreState.IDLE
    core.level = system.chip.vf_table.min_level  # same-state callback
    assert checker.ok


def test_non_intrusiveness_invariant_fires_on_owned_testing_core():
    system, checker = _fresh()
    core = system.chip.core(3)
    core.owner_app = 42
    core.state = CoreState.TESTING
    assert "test-non-intrusiveness" in _names(checker)
    violation = next(
        v
        for v in checker.violations
        if v.invariant == "test-non-intrusiveness"
    )
    assert violation.details["owner_app"] == 42
    # The per-tick sweep sees the standing violation too.
    before = len(checker.violations)
    checker.on_control_tick(system, 100.0, system.meter.breakdown())
    assert len(checker.violations) > before


def test_time_monotonicity_invariant_fires_on_backwards_clock():
    system, checker = _fresh()
    breakdown = system.meter.breakdown()
    checker.on_control_tick(system, 100.0, breakdown)
    assert checker.ok
    checker.on_control_tick(system, 50.0, breakdown)
    assert "time-monotonicity" in _names(checker)


def test_noc_sanity_invariant_fires_on_negative_link_load():
    system, checker = _fresh()
    system.noc._link_load[5] = -0.25
    checker.on_control_tick(system, 100.0, system.meter.breakdown())
    assert "noc-link-sanity" in _names(checker)
    violation = next(
        v for v in checker.violations if v.invariant == "noc-link-sanity"
    )
    assert violation.details["link"] == 5


def test_noc_sanity_invariant_fires_on_negative_noc_power():
    system, checker = _fresh()
    real = system.meter.breakdown()
    doctored = dataclasses.replace(real, noc=-1.0)
    checker.on_control_tick(system, 100.0, doctored)
    assert "noc-link-sanity" in _names(checker)


def _hot_start(abort=False):
    """Start one session on core 2 after heating it past the guard."""
    system, checker = _fresh(replace(SMALL, thermal_enabled=True))
    guard = system.config.thermal.limit_c - system.config.thermal_test_margin_c
    system.thermal._temps[2] = guard + 1.0
    core = system.chip.core(2)
    system.runner.start(core, system.chip.vf_table.min_level)
    if abort:  # pre-empted within the tick it started in
        system.runner.abort(core)
    checker.on_control_tick(system, system.sim.now, system.meter.breakdown())
    return checker, guard


def test_thermal_safety_invariant_fires_on_a_start_over_the_guard():
    checker, guard = _hot_start()
    assert _names(checker) == {"thermal-safety"}
    assert checker.violations[0].details == {
        "core": 2, "temperature_c": guard + 1.0, "guard_c": guard
    }


def test_thermal_safety_sees_a_start_pre_empted_in_its_tick():
    checker, _guard = _hot_start(abort=True)
    assert _names(checker) == {"thermal-safety"}
    assert checker.violations[0].details["core"] == 2


def test_thermal_safety_passes_cool_starts_and_thermal_off_runs():
    system, checker = _fresh(replace(SMALL, thermal_enabled=True))
    system.runner.start(system.chip.core(2), system.chip.vf_table.min_level)
    checker.on_control_tick(system, system.sim.now, system.meter.breakdown())
    assert checker.ok
    system, checker = _fresh()
    assert system.thermal is None
    system.runner.start(system.chip.core(2), system.chip.vf_table.min_level)
    checker.on_control_tick(system, system.sim.now, system.meter.breakdown())
    assert checker.ok


def test_a5_guard_binds_and_stays_thermal_safe():
    """At a 15 C margin A5's guard defers tests; no start breaks it."""
    config = replace(
        certified_config("A5", 30_000.0), thermal_test_margin_c=15.0
    )
    result, checker = verify_config(config)
    assert checker.ok, [v.message for v in checker.violations[:3]]
    unguarded = run_system(replace(config, thermal_test_margin_c=0.0))
    assert result.tests_completed < unguarded.tests_completed


#: The listener oracle's cores: four are enough, and make steps on the
#: same core likely.
_CORES = st.integers(min_value=0, max_value=3)
_EIGHT = st.integers(min_value=0, max_value=7)

#: One step of the listener oracle: (op, core, value).
_STEP = st.one_of(
    st.tuples(st.just("state"), _CORES, st.sampled_from(list(CoreState))),
    st.tuples(st.just("owner"), _CORES, st.sampled_from([None, 7, 9])),
    st.tuples(st.just("task"), _CORES, st.sampled_from([None, "task"])),
    st.tuples(st.just("level"), _CORES, _EIGHT),
    st.tuples(st.just("leak"), _CORES, _EIGHT),
    st.tuples(st.just("clock"), st.just(0), _EIGHT),
)


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_STEP, min_size=10, max_size=60))
@example(steps=[
    ("owner", 2, 9),
    ("state", 2, CoreState.TESTING),
    ("state", 0, CoreState.FAULTY),
])
@example(steps=[("task", 1, "task"), ("state", 1, CoreState.TESTING)])
@example(steps=[
    ("clock", 0, 5),
    ("level", 1, 0),
    ("clock", 0, 2),
    ("leak", 1, 3),
    ("state", 1, CoreState.BUSY),
])
def test_transition_listener_matches_reference_loop(steps):
    """The checker's one transition listener records exactly what a loop
    over the catalog's transition invariants' ``on_transition`` hooks
    records: same invariants, times, messages, details and order.

    Steps move a core to any state (legal or not), set or clear its
    owner or task (so it may enter TESTING owned), retune its level or
    leak factor (same-state callbacks), or assign the clock, backwards
    included.
    """
    system, checker = _fresh()
    reference = [
        inv
        for inv in default_invariants()
        if type(inv).on_transition is not Invariant.on_transition
    ]
    expected = []
    calls = []

    def reference_loop(core, old, new):
        now = system.sim.now
        for inv in reference:
            calls.append(inv.name)
            for message, details in inv.on_transition(
                system, core, old, new, now
            ) or ():
                expected.append((inv.name, now, message, details))

    system.chip.add_transition_listener(reference_loop)
    table = system.chip.vf_table
    for op, core_id, value in steps:
        core = system.chip.core(core_id)
        if op == "state":
            core.state = value
        elif op == "owner":
            core.owner_app = value
        elif op == "task":
            core.current_task = value
        elif op == "level":
            core.level = table[value % len(table)]
        elif op == "leak":
            core.leak_factor = 1.0 + value * 0.05
        else:
            system.sim.now = value * 100.0
    got = [
        (v.invariant, v.time, v.message, v.details)
        for v in checker.violations
    ]
    assert got == expected
    assert checker.checks_run == len(calls)


def test_power_conservation_audits_on_a_cadence():
    every = PowerConservationInvariant.AUDIT_EVERY
    assert every == 16
    invariant = PowerConservationInvariant()
    system, checker = _fresh()
    audited = []
    original = system.meter.scan_breakdown

    def counting_scan():
        audited.append(tick)
        return original()

    system.meter.scan_breakdown = counting_scan
    breakdown = system.meter.breakdown()
    for tick in range(2 * every):
        invariant.on_tick(system, float(tick), breakdown)
    assert audited == [0, every]


def test_max_violations_bounds_recording():
    assert InvariantChecker.MAX_VIOLATIONS == 1000
    system, checker = _fresh()
    breakdown = system.meter.breakdown()
    doctored = dataclasses.replace(breakdown, noc=-1.0)
    # Every tick fires noc-link-sanity; each audited tick (the first and
    # every AUDIT_EVERY-th) also fires power-conservation, whose noc
    # channel diverges from the scan.
    ticks = InvariantChecker.MAX_VIOLATIONS + 1
    audits = len(range(0, ticks, PowerConservationInvariant.AUDIT_EVERY))
    for tick in range(ticks):
        checker.on_control_tick(system, float(tick), doctored)
    assert len(checker.violations) == InvariantChecker.MAX_VIOLATIONS
    assert checker.suppressed == ticks + audits - len(checker.violations)
    assert not checker.ok
    assert checker.summary()["violations"] == ticks + audits


def test_violations_are_mirrored_into_the_journal():
    journal = Journal(level="info")
    config = replace(
        DEFAULT_CONFIG, horizon_us=20_000.0, test_policy="unaware"
    )
    _result, checker = verify_config(config, journal=journal)
    assert not checker.ok
    mirrored = journal.filter(type_prefix="verify.violation")
    assert len(mirrored) == len(checker.violations)
    assert mirrored[0].data["invariant"] == "budget-compliance"
    # ...and the journal audit roll-up counts them.
    from repro.obs import audit

    roll = audit.summarize(journal)
    assert roll["verify_violations"] == len(mirrored)
    assert roll["verify_ticks"] == checker.ticks_checked
    assert "invariant violation" in audit.format_summary(journal)


# ----------------------------------------------------------------------
# Metamorphic relations: real simulator + property tests on the checkers
# ----------------------------------------------------------------------
def test_relation_suite_holds_on_the_real_simulator():
    base = replace(SMALL, horizon_us=8_000.0, seed=11)
    report = check_relations(base)
    assert report.ok, report.failures()
    assert report.n_runs == sum(o.n_runs for o in report.outcomes)
    assert {o.name for o in report.outcomes} == {
        r.name for r in default_relations()
    }


def test_budget_monotonic_checker_accepts_monotone_samples():
    relation = BudgetMonotonicThroughput(tolerance=0.02)
    samples = [
        {"tdp_w": 40.0, "throughput": 10.0},
        {"tdp_w": 60.0, "throughput": 10.5},
        {"tdp_w": 80.0, "throughput": 10.4},  # within 2% tolerance
    ]
    assert relation.check(samples) == []


def test_budget_monotonic_checker_flags_a_real_drop():
    relation = BudgetMonotonicThroughput(tolerance=0.02)
    samples = [
        {"tdp_w": 40.0, "throughput": 10.0},
        {"tdp_w": 80.0, "throughput": 8.0},
    ]
    failures = relation.check(samples)
    assert len(failures) == 1 and "dropped" in failures[0]


@settings(max_examples=200, deadline=None)
@given(
    throughputs=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=6,
    ),
    tolerance=st.floats(min_value=0.0, max_value=0.5),
)
def test_budget_monotonic_checker_matches_reference(throughputs, tolerance):
    """check() fails iff some adjacent pair drops beyond tolerance."""
    relation = BudgetMonotonicThroughput(tolerance=tolerance)
    samples = [
        {"tdp_w": 10.0 * (i + 1), "throughput": thr}
        for i, thr in enumerate(throughputs)
    ]
    expected_bad = any(
        hi < lo * (1.0 - tolerance)
        for lo, hi in zip(throughputs, throughputs[1:])
    )
    assert bool(relation.check(samples)) == expected_bad


@settings(max_examples=100, deadline=None)
@given(
    injected=st.integers(min_value=0, max_value=5),
    detected=st.integers(min_value=0, max_value=5),
)
def test_zero_hazard_checker_matches_reference(injected, detected):
    relation = ZeroHazardZeroFaults()
    samples = [{"injected": float(injected), "detected": float(detected)}]
    assert bool(relation.check(samples)) == (injected != 0 or detected != 0)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_seed_permutation_checker_matches_reference(data):
    seeds = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=99),
            min_size=2,
            max_size=5,
            unique=True,
        )
    )
    digests = {seed: f"digest-{seed}" for seed in seeds}
    order = data.draw(st.permutations(seeds))
    corrupt = data.draw(st.booleans())
    forward = [{"seed": s, "digest": digests[s]} for s in seeds]
    backward = [{"seed": s, "digest": digests[s]} for s in order]
    if corrupt:
        backward[0] = dict(backward[0], digest="drifted")
    relation = SeedPermutationInvariance(seeds=tuple(seeds))
    failures = relation.check(forward + backward)
    assert bool(failures) == corrupt


def test_level_domain_checker_flags_out_of_ladder_and_non_top_nominal():
    relation = LevelDomainCoverage()
    ok = [
        {"policy": "rotate", "n_levels": 8, "covered": [0, 3, 7]},
        {"policy": "nominal", "n_levels": 8, "covered": [7]},
    ]
    assert relation.check(ok) == []
    bad_domain = [{"policy": "rotate", "n_levels": 8, "covered": [0, 9]}]
    assert len(relation.check(bad_domain)) == 1
    bad_nominal = [{"policy": "nominal", "n_levels": 8, "covered": [2, 7]}]
    assert len(relation.check(bad_nominal)) == 1


def test_no_test_checker_flags_any_testing_activity():
    relation = NoTestPolicyZeroTests()
    assert relation.check(
        [{"tests": 0.0, "aborted": 0.0, "test_share": 0.0}]
    ) == []
    assert relation.check(
        [{"tests": 3.0, "aborted": 0.0, "test_share": 0.01}]
    )


class _StubResult:
    """Minimal SimulationResult stand-in for relation plumbing tests."""

    def __init__(self, config, throughput, tests=0.0, per_level=None):
        self.config = config
        self.throughput_ops_per_us = throughput
        self.per_level_tests = per_level or {}
        self._tests = tests

    def summary(self):
        return {
            "throughput_ops_per_us": self.throughput_ops_per_us,
            "tests_completed": self._tests,
            "tests_aborted": 0.0,
            "test_power_share": 0.02 if self._tests else 0.0,
            "faults_injected": 0.0,
            "faults_detected": 0.0,
        }


def test_relations_flag_a_broken_scheduler_stub():
    """A policy that tests despite `none` and loses throughput with budget
    is caught by the relation suite without any golden number."""

    def broken_runner(configs, jobs, cache=None):
        results = []
        for config in configs:
            # Broken behaviour: throughput *decreases* in the budget, and
            # the `none` policy still runs tests.
            throughput = 1000.0 / config.tdp_w
            tests = 7.0 if config.test_policy == "none" else 0.0
            results.append(_StubResult(config, throughput, tests=tests))
        return results

    relations = [BudgetMonotonicThroughput(), NoTestPolicyZeroTests()]
    report = check_relations(SMALL, relations=relations, runner=broken_runner)
    assert not report.ok
    assert {o.name for o in report.outcomes if not o.ok} == {
        "budget-monotonic-throughput",
        "no-test-policy-zero-tests",
    }


def test_relations_pass_a_faithful_stub():
    def faithful_runner(configs, jobs, cache=None):
        return [
            _StubResult(
                config,
                throughput=config.tdp_w,
                tests=0.0 if config.test_policy == "none" else 5.0,
            )
            for config in configs
        ]

    relations = [BudgetMonotonicThroughput(), NoTestPolicyZeroTests()]
    report = check_relations(SMALL, relations=relations, runner=faithful_runner)
    assert report.ok, report.failures()


def test_relation_constructor_validation():
    with pytest.raises(ValueError):
        BudgetMonotonicThroughput(factors=(2.0, 1.0))
    with pytest.raises(ValueError):
        SeedPermutationInvariance(seeds=(5,))


# ----------------------------------------------------------------------
# Journal replay
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def replay_journal_events():
    """Seeded E2-style run with journal + verifier (shared, read-only)."""
    journal = Journal(level="info")
    config = replace(DEFAULT_CONFIG, horizon_us=10_000.0)
    result, checker = verify_config(config, journal=journal)
    assert checker.ok
    return journal, result, checker


def test_replay_matches_live_meter_bit_for_bit(replay_journal_events):
    journal, _result, checker = replay_journal_events
    report = replay_journal(journal)
    assert report.ok
    assert report.ticks_checked == checker.ticks_checked
    assert report.max_abs_error_w == 0.0


def test_replay_round_trips_through_jsonl(tmp_path, replay_journal_events):
    journal, _result, _checker = replay_journal_events
    path = tmp_path / "run.jsonl"
    journal.write_jsonl(str(path))
    report = replay_journal(str(path))
    assert report.ok and report.ticks_checked > 0


def test_replay_detects_a_tampered_power_record(replay_journal_events):
    journal, _result, _checker = replay_journal_events
    events = list(journal.events)
    index, target = next(
        (i, e) for i, e in enumerate(events) if e.type == "verify.power"
    )
    data = dict(target.data, workload_w=target.data["workload_w"] + 0.5)
    events[index] = JournalEvent(time=target.time, type="verify.power", data=data)
    report = replay_journal(events)
    assert not report.ok
    assert report.mismatches[0]["channel"] == "workload_w"
    assert report.mismatches[0]["error_w"] == pytest.approx(0.5)


def test_replay_flags_illegal_recorded_transitions(replay_journal_events):
    journal, _result, _checker = replay_journal_events
    events = list(journal.events) + [
        JournalEvent(
            time=99.0,
            type="core.transition",
            data={"core": 1, "from_state": "BUSY", "to_state": "FAULTY"},
        )
    ]
    report = replay_journal(events)
    assert report.transitions_checked == 1
    assert not report.ok
    assert report.transition_violations[0]["core"] == 1


def test_replay_errors_on_missing_file():
    with pytest.raises(ReplayError, match="cannot read"):
        replay_journal("/nonexistent/journal.jsonl")


def test_replay_errors_on_corrupt_jsonl(tmp_path, replay_journal_events):
    journal, _result, _checker = replay_journal_events
    path = tmp_path / "corrupt.jsonl"
    text = journal.to_jsonl()
    path.write_text(text[: len(text) // 2] + '{"broken', encoding="utf-8")
    with pytest.raises(ReplayError, match="corrupt"):
        replay_journal(str(path))


def test_replay_errors_on_truncated_snapshot_pair(replay_journal_events):
    journal, _result, _checker = replay_journal_events
    events = list(journal.events)
    last_power = max(
        i for i, e in enumerate(events) if e.type == "verify.power"
    )
    with pytest.raises(ReplayError, match="truncated"):
        replay_journal(events[:last_power])


def test_replay_errors_on_missing_platform_event(replay_journal_events):
    journal, _result, _checker = replay_journal_events
    events = [e for e in journal.events if e.type != "verify.platform"]
    with pytest.raises(ReplayError, match="verify.platform"):
        replay_journal(events)


def test_replay_errors_on_journal_without_verify_events():
    journal = Journal(level="info")
    run_system(SMALL, journal=journal)
    with pytest.raises(ReplayError, match="no verify"):
        replay_journal(journal)


def test_replay_errors_on_malformed_payload(replay_journal_events):
    journal, _result, _checker = replay_journal_events
    events = []
    for event in journal.events:
        if event.type == "verify.cores":
            event = JournalEvent(
                time=event.time,
                type="verify.cores",
                data={"cores": [["i"] for _ in event.data["cores"]]},
            )
        events.append(event)
    with pytest.raises(ReplayError, match="malformed"):
        replay_journal(events)


def test_replay_errors_on_unknown_state_code(replay_journal_events):
    journal, _result, _checker = replay_journal_events
    events = []
    for event in journal.events:
        if event.type == "verify.cores":
            cores = [["x", entry[1], entry[2]] for entry in event.data["cores"]]
            event = JournalEvent(
                time=event.time, type="verify.cores", data={"cores": cores}
            )
        events.append(event)
    with pytest.raises(ReplayError, match="unknown core state code"):
        replay_journal(events)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_verify_invariants_smoke(capsys):
    from repro.cli import main

    assert main(
        ["verify", "invariants", "--experiments", "E2", "--horizon-ms", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "invariant checks" in out and "ok" in out


def test_cli_verify_invariants_rejects_unknown_ids(capsys):
    from repro.cli import main

    assert main(["verify", "invariants", "--experiments", "E99"]) == 2
    assert "unknown experiment ids" in capsys.readouterr().err


def test_cli_verify_relations_smoke(capsys):
    from repro.cli import main

    assert main(
        [
            "verify", "relations",
            "--relations", "no-test-policy-zero-tests",
            "--horizon-ms", "2",
        ]
    ) == 0
    assert "metamorphic relations" in capsys.readouterr().out


def test_cli_verify_relations_rejects_unknown_names(capsys):
    from repro.cli import main

    assert main(["verify", "relations", "--relations", "nope"]) == 2
    assert "unknown relations" in capsys.readouterr().err


def test_cli_run_verify_and_replay_round_trip(tmp_path, capsys):
    from repro.cli import main

    journal_path = str(tmp_path / "run.jsonl")
    assert main(
        ["run", "--horizon-ms", "2", "--verify", "--journal", journal_path]
    ) == 0
    out = capsys.readouterr().out
    assert "verify:" in out and "0 violation(s)" in out
    assert main(["verify", "replay", journal_path]) == 0
    assert "replayed" in capsys.readouterr().out


def test_cli_verify_replay_reports_bad_journal(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "bad.jsonl"
    path.write_text('{"not a journal', encoding="utf-8")
    assert main(["verify", "replay", str(path)]) == 2
    assert "cannot replay" in capsys.readouterr().err
