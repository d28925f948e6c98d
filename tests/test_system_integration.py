"""Integration tests: full simulations of the wired system.

These use short horizons and the small defaults so the whole file runs in
a few seconds, but exercise every subsystem together: arrivals → mapping →
execution → power management → test scheduling → metrics.
"""

import sys
import threading
from dataclasses import replace

import pytest

from repro.core import system
from repro.core.system import ManycoreSystem, SystemConfig, run_system
from repro.platform.core import CoreState

QUICK = SystemConfig(horizon_us=15_000.0, seed=7, arrival_rate_per_ms=8.0)


@pytest.fixture(scope="module")
def quick_result():
    return run_system(QUICK)


# ----------------------------------------------------------------------
# Conservation and sanity invariants
# ----------------------------------------------------------------------
def test_apps_flow_conservation(quick_result):
    m = quick_result.metrics
    assert m.apps_arrived >= m.apps_admitted >= m.apps_completed > 0


def test_tasks_completed_matches_app_records(quick_result):
    m = quick_result.metrics
    tasks_of_completed = sum(r.n_tasks for r in m.app_records)
    assert m.tasks_completed >= tasks_of_completed  # in-flight apps add more


def test_ops_completed_at_least_completed_apps_ops(quick_result):
    m = quick_result.metrics
    ops_of_completed = sum(r.total_ops for r in m.app_records)
    assert m.ops_completed >= ops_of_completed - 1e-6


def test_waiting_times_non_negative(quick_result):
    assert all(r.waiting_time >= 0 for r in quick_result.metrics.app_records)
    assert all(
        r.turnaround >= r.waiting_time for r in quick_result.metrics.app_records
    )


def test_tests_ran_and_power_spent(quick_result):
    assert quick_result.tests_completed > 0
    assert quick_result.test_power_share > 0.0


def test_proposed_scheduler_never_violates_budget(quick_result):
    assert quick_result.metrics.audit.violation_rate == 0.0


def test_per_core_tallies_match_totals(quick_result):
    assert sum(quick_result.per_core_tests.values()) == quick_result.tests_completed
    assert (
        sum(quick_result.per_level_tests.values()) == quick_result.tests_completed
    )


def test_summary_keys_stable(quick_result):
    summary = quick_result.summary()
    expected = {
        "apps_completed", "tasks_completed", "throughput_ops_per_us",
        "mean_waiting_us", "avg_power_w", "budget_violation_rate",
        "tests_completed", "tests_aborted", "test_power_share",
        "faults_injected", "faults_detected",
    }
    assert set(summary) == expected


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_same_seed_bit_identical():
    a = run_system(QUICK)
    b = run_system(QUICK)
    assert a.summary() == b.summary()
    assert a.events_fired == b.events_fired


def test_different_seed_differs():
    a = run_system(QUICK)
    b = run_system(replace(QUICK, seed=8))
    assert a.summary() != b.summary()


def test_workload_identical_across_test_policies():
    """Paired-comparison guarantee: arrivals don't depend on the policy."""
    a = ManycoreSystem(replace(QUICK, test_policy="none")).generate_arrivals()
    b = ManycoreSystem(replace(QUICK, test_policy="unaware")).generate_arrivals()
    assert [x.time for x in a] == [x.time for x in b]
    assert [len(x.graph) for x in a] == [len(x.graph) for x in b]


def test_arrival_memo_is_thread_safe():
    """Threads that build systems at once (``repro serve``'s thread pool,
    served campaigns) share the arrival memo: with a thread switch
    forced every microsecond, 8 threads x 400 distinct seeds raise
    nothing and leave the memo at its cap."""
    base = SystemConfig(width=2, height=2, horizon_us=200.0)
    errors = []

    def build(first_seed):
        for seed in range(first_seed, first_seed + 400):
            try:
                ManycoreSystem(replace(base, seed=seed)).generate_arrivals()
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

    threads = [
        threading.Thread(target=build, args=(1000 * i,)) for i in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert system.arrival_trace.cache_info().currsize == 64


# ----------------------------------------------------------------------
# Policy wiring
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["none", "unaware", "round-robin", "power-aware"])
def test_all_test_policies_run(policy):
    result = run_system(replace(QUICK, horizon_us=5_000.0, test_policy=policy))
    assert result.scheduler_name == policy
    if policy == "none":
        assert result.tests_completed == 0


@pytest.mark.parametrize("policy", ["pid", "tsp", "naive", "none", "worst-case"])
def test_all_power_policies_run(policy):
    config = replace(
        QUICK,
        horizon_us=5_000.0,
        power_policy=policy,
        profile_names=("small",),
        profile_weights=(1.0,),
    )
    result = run_system(config)
    assert result.power_policy_name == policy
    assert result.metrics.apps_completed > 0


@pytest.mark.parametrize(
    "mapper", ["contiguous", "scatter", "random", "mappro", "test-aware"]
)
def test_all_mappers_run(mapper):
    result = run_system(replace(QUICK, horizon_us=5_000.0, mapper=mapper))
    assert result.mapper_name == mapper
    assert result.metrics.apps_completed > 0


def test_unknown_policy_names_raise():
    with pytest.raises(ValueError):
        run_system(replace(QUICK, mapper="bogus"))
    with pytest.raises(ValueError):
        run_system(replace(QUICK, test_policy="bogus"))
    with pytest.raises(ValueError):
        run_system(replace(QUICK, power_policy="bogus"))


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(horizon_us=0.0)
    with pytest.raises(ValueError):
        SystemConfig(profile_names=("small",), profile_weights=(1.0, 2.0))
    with pytest.raises(ValueError):
        SystemConfig(test_preemption="sometimes")


# ----------------------------------------------------------------------
# Preemption semantics
# ----------------------------------------------------------------------
def test_auto_preemption_follows_scheduler():
    proposed = ManycoreSystem(replace(QUICK, test_policy="power-aware"))
    assert proposed.preemption_policy() == "abort"
    baseline = ManycoreSystem(replace(QUICK, test_policy="unaware"))
    assert baseline.preemption_policy() == "reserve"


def test_explicit_preemption_overrides():
    system = ManycoreSystem(
        replace(QUICK, test_policy="power-aware", test_preemption="reserve")
    )
    assert system.preemption_policy() == "reserve"


def test_abort_policy_preempts_tests():
    result = run_system(replace(QUICK, test_policy="power-aware"))
    assert result.test_stats.aborted > 0


def test_reserve_policy_never_aborts():
    result = run_system(replace(QUICK, test_policy="round-robin"))
    assert result.test_stats.aborted == 0


# ----------------------------------------------------------------------
# Final-state consistency
# ----------------------------------------------------------------------
def test_final_core_states_consistent():
    system = ManycoreSystem(QUICK)
    result = system.run()
    for core in system.chip:
        if core.state is CoreState.BUSY:
            assert system.executor.execution_on(core) is not None
        if core.state is CoreState.TESTING:
            assert system.runner.session_of(core) is not None
        if core.is_idle() and core.owner_app is None:
            assert system.executor.execution_on(core) is None


def test_fault_injection_and_detection_pipeline():
    config = replace(
        QUICK,
        horizon_us=30_000.0,
        fault_hazard_per_us=5e-6,
        test_policy="power-aware",
    )
    result = run_system(config)
    assert len(result.fault_records) > 0
    detected = [r for r in result.fault_records if r.detected]
    if detected:  # detection requires a test to land on the faulty core
        assert result.mean_detection_latency_us() > 0
        assert all(r.detection_latency() >= 0 for r in detected)


def test_detected_faulty_cores_are_retired():
    config = replace(
        QUICK,
        horizon_us=30_000.0,
        fault_hazard_per_us=5e-6,
    )
    system = ManycoreSystem(config)
    result = system.run()
    detected_ids = {r.core_id for r in result.fault_records if r.detected}
    for core_id in detected_ids:
        assert system.chip.core(core_id).state is CoreState.FAULTY


def test_throughput_penalty_headline_quick():
    """<1% penalty claim holds even at a short horizon (coarse check)."""
    off = run_system(replace(QUICK, test_policy="none"))
    on = run_system(replace(QUICK, test_policy="power-aware"))
    penalty = 1.0 - on.throughput_ops_per_us / off.throughput_ops_per_us
    assert penalty < 0.02  # generous bound for the short horizon


def test_bursty_workload_runs():
    result = run_system(replace(QUICK, horizon_us=10_000.0, bursty=True))
    assert result.metrics.apps_arrived > 0


# ----------------------------------------------------------------------
# Mixed-criticality priorities
# ----------------------------------------------------------------------
def test_rt_priorities_cut_hard_rt_waiting():
    mixed = replace(
        QUICK,
        horizon_us=20_000.0,
        profile_names=("hard-rt-small", "soft-rt-medium", "large"),
        profile_weights=(0.3, 0.4, 0.3),
    )
    fifo = run_system(mixed)
    prio = run_system(replace(mixed, rt_priorities=True))
    fifo_waits = fifo.metrics.mean_waiting_by_class()
    prio_waits = prio.metrics.mean_waiting_by_class()
    assert prio_waits["hard-rt"] <= fifo_waits["hard-rt"]


def test_rt_priorities_off_is_fifo():
    """Default config ignores rt classes entirely (bit-identical path)."""
    mixed = replace(
        QUICK,
        horizon_us=8_000.0,
        profile_names=("hard-rt-small", "soft-rt-medium"),
        profile_weights=(0.5, 0.5),
    )
    a = run_system(mixed)
    b = run_system(mixed)
    assert a.summary() == b.summary()


def test_waiting_by_class_keys():
    mixed = replace(
        QUICK,
        horizon_us=15_000.0,
        profile_names=("hard-rt-small", "large"),
        profile_weights=(0.5, 0.5),
        rt_priorities=True,
    )
    result = run_system(mixed)
    waits = result.metrics.mean_waiting_by_class()
    assert set(waits) <= {"hard-rt", "soft-rt", "best-effort"}
    assert all(v >= 0 for v in waits.values())
