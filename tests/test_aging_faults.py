"""Tests for the aging model and fault injection."""

import random

import pytest

from repro.aging.faults import FaultInjector, FaultParameters
from repro.aging.model import AgingModel, AgingParameters
from repro.platform.chip import Chip
from repro.platform.dvfs import build_vf_table
from repro.platform.technology import get_node


@pytest.fixture
def aging(node16):
    return AgingModel(node16)


@pytest.fixture
def table(node16):
    return build_vf_table(node16)


# ----------------------------------------------------------------------
# AgingModel
# ----------------------------------------------------------------------
def test_stress_rate_higher_at_higher_voltage(aging, table):
    assert aging.stress_rate(table.max_level) > aging.stress_rate(table.min_level)


def test_stress_rate_scales_with_activity(aging, table):
    full = aging.stress_rate(table.max_level, 1.0)
    assert aging.stress_rate(table.max_level, 0.5) == pytest.approx(0.5 * full)


def test_stress_rate_at_nominal_equals_base_rate(aging, table):
    assert aging.stress_rate(table.max_level, 1.0) == pytest.approx(
        aging.params.base_rate
    )


def test_accrue_busy_updates_both_sinks(aging, table, chip44):
    core = chip44.core(0)
    delta = aging.accrue_busy(core, 1000.0, table.max_level, 1.0)
    assert delta > 0
    assert core.age_stress == pytest.approx(delta)
    assert core.stress_since_test == pytest.approx(delta)


def test_accrue_test_does_not_touch_stress_since_test(aging, table, chip44):
    core = chip44.core(0)
    delta = aging.accrue_test(core, 1000.0, table.max_level)
    assert delta > 0
    assert core.age_stress == pytest.approx(delta)
    assert core.stress_since_test == 0.0


def test_accrue_test_reduced_by_fraction(aging, table, chip44):
    busy = aging.accrue_busy(chip44.core(0), 100.0, table.max_level, 1.0)
    test = aging.accrue_test(chip44.core(1), 100.0, table.max_level)
    assert test == pytest.approx(busy * aging.params.test_stress_fraction)


def test_accrue_rejects_negative_duration(aging, table, chip44):
    with pytest.raises(ValueError):
        aging.accrue_busy(chip44.core(0), -1.0, table.max_level, 1.0)
    with pytest.raises(ValueError):
        aging.accrue_test(chip44.core(0), -1.0, table.max_level)


def test_aging_parameters_validation():
    with pytest.raises(ValueError):
        AgingParameters(base_rate=0.0)
    with pytest.raises(ValueError):
        AgingParameters(test_stress_fraction=1.5)


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
def make_injector(chip, hazard, seed=1, **kwargs):
    return FaultInjector(
        chip,
        FaultParameters(base_hazard_per_us=hazard, **kwargs),
        random.Random(seed),
    )


def test_zero_hazard_never_injects(chip44):
    injector = make_injector(chip44, 0.0)
    for _ in range(100):
        assert injector.tick(0.0, 100.0) == []
    assert injector.records == []


def test_huge_hazard_injects_everywhere(chip44):
    injector = make_injector(chip44, 1.0)
    injected = injector.tick(5.0, 100.0)
    assert len(injected) == 16
    assert all(chip44.core(r.core_id).fault_present for r in injected)
    assert all(r.injected_at == 5.0 for r in injected)


def test_no_double_injection(chip44):
    injector = make_injector(chip44, 1.0)
    injector.tick(0.0, 100.0)
    assert injector.tick(1.0, 100.0) == []


def test_hazard_grows_with_age_stress(chip44):
    injector = make_injector(chip44, 1e-6, stress_scale=10.0)
    fresh = injector.hazard(chip44.core(0))
    chip44.core(1).age_stress = 20.0
    assert injector.hazard(chip44.core(1)) == pytest.approx(3.0 * fresh)


def test_detection_requires_manifest_corner_high(chip44):
    injector = make_injector(chip44, 1.0)
    injector.tick(0.0, 100.0)
    core = chip44.core(0)
    record = injector.open_record(core)
    record.kind = "high"
    # A high-corner fault never shows strictly below its manifest level.
    assert (
        injector.try_detect(core, 10.0, record.manifest_level - 1, coverage=1.0)
        is None
    )
    detected = injector.try_detect(core, 10.0, record.manifest_level, coverage=1.0)
    assert detected is record
    assert record.detected_at == 10.0
    assert record.detection_latency() == pytest.approx(10.0)


def test_detection_requires_manifest_corner_low(chip44):
    injector = make_injector(chip44, 1.0)
    injector.tick(0.0, 100.0)
    core = chip44.core(0)
    record = injector.open_record(core)
    record.kind = "low"
    # A low-corner fault never shows strictly above its manifest level.
    assert (
        injector.try_detect(core, 10.0, record.manifest_level + 1, coverage=1.0)
        is None
    )
    assert (
        injector.try_detect(core, 10.0, record.manifest_level, coverage=1.0)
        is record
    )


def test_manifests_at_directions():
    from repro.aging.faults import FaultRecord

    high = FaultRecord(core_id=0, injected_at=0.0, manifest_level=4, kind="high")
    assert high.manifests_at(4) and high.manifests_at(7)
    assert not high.manifests_at(3)
    low = FaultRecord(core_id=0, injected_at=0.0, manifest_level=4, kind="low")
    assert low.manifests_at(4) and low.manifests_at(0)
    assert not low.manifests_at(5)


def test_fault_kind_validation():
    from repro.aging.faults import FaultRecord

    with pytest.raises(ValueError):
        FaultRecord(core_id=0, injected_at=0.0, manifest_level=1, kind="weird")


def test_low_corner_fraction_extremes(chip44):
    all_low = make_injector(chip44, 1.0, low_corner_fraction=1.0)
    all_low.tick(0.0, 100.0)
    assert all(r.kind == "low" for r in all_low.records)
    from repro.platform.chip import Chip

    chip2 = Chip.build(4, 4)
    all_high = FaultInjector(
        chip2,
        FaultParameters(base_hazard_per_us=1.0, low_corner_fraction=0.0),
        random.Random(2),
    )
    all_high.tick(0.0, 100.0)
    assert all(r.kind == "high" for r in all_high.records)


def test_detection_respects_coverage_draw(chip44):
    injector = make_injector(chip44, 1.0, seed=3)
    injector.tick(0.0, 100.0)
    core = chip44.core(0)
    record = injector.open_record(core)
    record.kind = "high"
    # Coverage 0 can never detect.
    assert injector.try_detect(core, 1.0, record.manifest_level, coverage=0.0) is None
    assert not record.detected


def test_detection_on_healthy_core_is_none(chip44):
    injector = make_injector(chip44, 0.0)
    assert injector.try_detect(chip44.core(0), 1.0, 7, coverage=1.0) is None


def test_detected_and_undetected_partitions(chip44):
    injector = make_injector(chip44, 1.0)
    injector.tick(0.0, 100.0)
    core = chip44.core(0)
    record = injector.open_record(core)
    injector.try_detect(core, 5.0, record.manifest_level, coverage=1.0)
    assert record in injector.detected_records()
    assert len(injector.detected_records()) + len(injector.undetected_records()) == 16


def test_mean_detection_latency(chip44):
    injector = make_injector(chip44, 1.0)
    injector.tick(0.0, 100.0)
    assert injector.mean_detection_latency() is None
    for core_id in (0, 1):
        core = chip44.core(core_id)
        record = injector.open_record(core)
        injector.try_detect(core, 10.0, record.manifest_level, coverage=1.0)
    assert injector.mean_detection_latency() == pytest.approx(10.0)


def test_manifest_levels_within_table(chip44):
    injector = make_injector(chip44, 1.0)
    injector.tick(0.0, 100.0)
    n = len(chip44.vf_table)
    assert all(0 <= r.manifest_level < n for r in injector.records)


def test_manifest_fraction_restricts_range(chip44):
    injector = make_injector(chip44, 1.0, max_manifest_fraction=0.25)
    injector.tick(0.0, 100.0)
    assert all(r.manifest_level < 2 for r in injector.records)


def test_fault_parameters_validation():
    with pytest.raises(ValueError):
        FaultParameters(base_hazard_per_us=-1.0)
    with pytest.raises(ValueError):
        FaultParameters(stress_scale=0.0)
    with pytest.raises(ValueError):
        FaultParameters(max_manifest_fraction=0.0)


# ----------------------------------------------------------------------
# Property tests (hypothesis)
# ----------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st

_stress = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
_hazard = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
_time = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None)
@given(a=_stress, b=_stress, base=_hazard)
def test_hazard_monotone_in_age_stress(a, b, base):
    # More accumulated aging stress never lowers the fault hazard.
    lo, hi = sorted((a, b))
    chip = Chip.build(2, 2)
    injector = FaultInjector(
        chip,
        FaultParameters(base_hazard_per_us=base),
        random.Random(0),
    )
    core_lo, core_hi = chip.core(0), chip.core(1)
    core_lo.age_stress = lo
    core_hi.age_stress = hi
    assert injector.hazard(core_hi) >= injector.hazard(core_lo)
    # Fresh core pins the intercept: hazard == base hazard exactly.
    assert injector.hazard(chip.core(2)) == pytest.approx(base)


@settings(max_examples=50, deadline=None)
@given(injected_at=_time, delay=_time, level=st.integers(0, 7))
def test_detection_latency_none_until_detected(injected_at, delay, level):
    from repro.aging.faults import FaultRecord

    record = FaultRecord(
        core_id=0, injected_at=injected_at, manifest_level=level
    )
    # Latent fault: no latency, whatever the clock says.
    assert record.detection_latency() is None
    assert not record.detected
    record.detected_at = injected_at + delay
    assert record.detected
    latency = record.detection_latency()
    assert latency is not None
    assert latency >= 0.0
    assert latency == pytest.approx(delay, abs=1e-6)


# ----------------------------------------------------------------------
# Oracle: tick == one hazard() draw per healthy core, in core-id order
# ----------------------------------------------------------------------
import math
from types import SimpleNamespace

from repro.aging import faults as faults_module
from repro.aging.faults import FaultRecord
from repro.platform.core import CoreState
from repro.platform.coretypes import CORE_TYPES, CoreType

#: A tile type whose hazard is exactly zero; registered for this module.
ZERO_HAZARD = "zero-hazard-oracle"
ORACLE_TYPES = ("std", "io", "o3", "accel", ZERO_HAZARD)


@pytest.fixture(scope="module", autouse=True)
def zero_hazard_type():
    CORE_TYPES[ZERO_HAZARD] = CoreType(
        ZERO_HAZARD, "fault-draw oracle tile", fault_hazard_scale=0.0
    )
    yield
    CORE_TYPES.pop(ZERO_HAZARD, None)


def reference_tick(injector, now, dt):
    """The injection epoch written plainly around ``hazard()``."""
    params = injector.params
    if params.base_hazard_per_us == 0.0:
        return []
    n_levels = len(injector.chip.vf_table)
    max_manifest = max(1, int(round(n_levels * params.max_manifest_fraction)))
    injected = []
    for core in injector.chip:
        if core.is_faulty() or core.fault_present:
            continue
        p = 1.0 - math.exp(-injector.hazard(core) * dt)
        if injector.rng.random() < p:
            kind = (
                "low"
                if injector.rng.random() < params.low_corner_fraction
                else "high"
            )
            record = FaultRecord(
                core_id=core.core_id,
                injected_at=now,
                manifest_level=injector.rng.randrange(max_manifest),
                kind=kind,
            )
            core.fault_present = True
            core.fault_injected_at = now
            injector.records.append(record)
            injected.append(record)
    return injected


@st.composite
def fault_scenes(draw):
    """A typed chip with stressed, faulty and latent-fault cores."""
    width, height = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    n = width * height
    grid = draw(
        st.one_of(
            st.just(()),
            st.lists(st.sampled_from(ORACLE_TYPES), min_size=n, max_size=n).map(
                tuple
            ),
        )
    )
    cores = [
        (
            draw(st.sampled_from([0.0, 3.0, 50.0, 400.0])),  # age_stress
            draw(st.sampled_from(["ok", "ok", "ok", "faulty", "latent"])),
        )
        for _ in range(n)
    ]
    params = FaultParameters(
        base_hazard_per_us=draw(st.sampled_from([0.0, 1e-5, 1e-3, 5e-3])),
        stress_scale=draw(st.sampled_from([10.0, 50.0])),
        max_manifest_fraction=draw(st.sampled_from([0.5, 1.0])),
        low_corner_fraction=draw(st.sampled_from([0.0, 0.35, 1.0])),
    )
    stress_steps = draw(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=6)
    )
    return width, height, grid, cores, params, stress_steps


def build_fault_chip(width, height, grid, cores):
    chip = Chip.build(width, height, type_grid=grid)
    for core, (stress, fate) in zip(chip, cores):
        core.age_stress = stress
        if fate == "faulty":
            core.state = CoreState.FAULTY
        elif fate == "latent":
            core.fault_present = True
    return chip


@settings(max_examples=60, deadline=None)
@given(scene=fault_scenes(), seed=st.integers(0, 2**16))
def test_tick_draws_as_a_loop_over_hazard(scene, seed):
    width, height, grid, cores, params, stress_steps = scene
    chips = [build_fault_chip(width, height, grid, cores) for _ in range(2)]
    fast, slow = (
        FaultInjector(chip, params, random.Random(seed)) for chip in chips
    )
    dt = 100.0
    for step, stress in enumerate(stress_steps):
        now = dt * (step + 1)
        got = fast.tick(now, dt)
        want = reference_tick(slow, now, dt)
        assert got == want
        assert fast.rng.getstate() == slow.rng.getstate()
        for a, b in zip(*chips):
            a.age_stress += stress * (a.core_id % 3)
            b.age_stress += stress * (b.core_id % 3)
    assert fast.records == slow.records
    assert [
        (c.fault_present, c.fault_injected_at) for c in chips[0]
    ] == [(c.fault_present, c.fault_injected_at) for c in chips[1]]


def test_tick_evaluates_hazard_bit_for_bit(monkeypatch):
    # The tick writes hazard()'s expression out inline; the exponent it
    # hands to exp for each healthy core must be -hazard(core) * dt.
    cores = [
        (float(7 * i), ("faulty", "latent", "ok", "ok")[i % 4] if i % 5 else "ok")
        for i in range(36)
    ]
    grid = tuple(ORACLE_TYPES[i % len(ORACLE_TYPES)] for i in range(36))
    chip = build_fault_chip(6, 6, grid, cores)
    injector = FaultInjector(
        chip, FaultParameters(base_hazard_per_us=3e-4), random.Random(5)
    )
    exponents = []

    def recording_exp(x):
        exponents.append(x)
        return math.exp(x)

    monkeypatch.setattr(faults_module, "math", SimpleNamespace(exp=recording_exp))
    dt = 100.0
    healthy = [c for c in chip if not c.is_faulty() and not c.fault_present]
    expected = [-injector.hazard(core) * dt for core in healthy]
    injector.tick(0.0, dt)
    assert exponents == expected
    assert any(
        core.core_type.fault_hazard_scale == 0.0 for core in healthy
    )
