"""Golden regression pins.

A deterministic simulator should produce bit-identical results for a
fixed seed until someone *intentionally* changes model behaviour.  These
pins catch silent behavioural drift (a reordered event, an accidental RNG
draw) that the invariant-based tests would miss.  If you change the model
on purpose, update the pinned values and say so in the commit.
"""

import builtins
import json
import math
from pathlib import Path

import pytest

from repro.core.system import SystemConfig, run_system
from repro.obs.journal import Journal
from repro.obs.provenance import digest_of

from tests.conftest import small_system_config

GOLDEN_CONFIG = small_system_config(
    horizon_us=8_000.0,
    profile_names=("small",),
    profile_weights=(1.0,),
    seed=1234,
)


@pytest.fixture(scope="module")
def golden():
    return run_system(GOLDEN_CONFIG)


def test_golden_counters_are_integers_and_stable(golden):
    s = golden.summary()
    assert s["apps_completed"] == golden.metrics.apps_completed
    assert s["tasks_completed"] == golden.metrics.tasks_completed


def test_golden_run_reproduces_itself(golden):
    again = run_system(GOLDEN_CONFIG)
    assert again.summary() == golden.summary()
    assert again.events_fired == golden.events_fired
    assert again.per_core_tests == golden.per_core_tests
    assert again.per_core_busy_us == golden.per_core_busy_us


def test_golden_structural_expectations(golden):
    """Loose structural pins that any correct model version satisfies."""
    s = golden.summary()
    assert s["apps_completed"] > 20
    assert s["tests_completed"] > 5
    assert s["budget_violation_rate"] == 0.0
    assert 0.0 < s["test_power_share"] < 0.2
    assert 0.0 < s["avg_power_w"] <= GOLDEN_CONFIG.tdp_w


def test_golden_trace_integrals_consistent(golden):
    """Channel energies must sum to the total energy."""
    horizon = GOLDEN_CONFIG.horizon_us
    total = golden.metrics.energy_uj("total", horizon)
    parts = sum(
        golden.metrics.energy_uj(ch, horizon)
        for ch in ("workload", "test", "leakage", "noc")
    )
    assert parts == pytest.approx(total, rel=1e-9)


# ----------------------------------------------------------------------
# Per-subsystem mini-goldens
#
# The summary pins above catch *whole-run* drift but cannot localise it.
# These digests pin one subsystem's decision stream each — the test
# scheduler's launch/defer sequence, the PID/DVFS control trace, and the
# mapper's placements — so a regression points at the layer that moved.
# Recompute a digest with the projection below after an intentional
# model change.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_journal(golden):
    journal = Journal(level="info")
    result = run_system(GOLDEN_CONFIG, journal=journal)
    # Journaling is read-only: same run as the unjournaled golden.
    assert result.summary() == golden.summary()
    return journal


#: Digests of the journal's scheduler, PID/DVFS and mapping streams.
SCHEDULER_STREAM = "9c6e80d0a318e65e997ca234f7b2432e682a921dc74170f981233d5d54bb3d89"
PID_STREAM = "f6140ba7deaf1266aa21e13efe4f83477cd9621c1c7a3be7a94a5ca6f8764287"
MAPPING_STREAM = "e3a16b2616c51defe111081a5f6f23aae17f1ae57f45a760b096bb8932e33e70"


def _stream_digest(journal, types):
    """Order-preserving digest of the full payloads of selected events."""
    return digest_of(
        (event.time, event.type, tuple(sorted(event.data.items())))
        for event in journal.events
        if event.type in types
    )


def test_golden_scheduler_decision_stream(golden_journal):
    counts = golden_journal.counts()
    assert counts["test.launch"] == 25
    assert "test.defer" not in counts  # budget never forces a deferral here
    assert _stream_digest(
        golden_journal, {"test.launch", "test.defer"}
    ) == SCHEDULER_STREAM


def test_golden_pid_control_trace(golden_journal):
    counts = golden_journal.counts()
    assert counts["pid.step"] == 80
    assert counts["dvfs.change"] == 1
    assert _stream_digest(
        golden_journal, {"pid.step", "dvfs.change"}
    ) == PID_STREAM


def test_golden_mapping_placements(golden_journal):
    counts = golden_journal.counts()
    assert counts["app.map"] == 73
    assert counts["app.map"] == counts["app.arrival"]
    assert _stream_digest(golden_journal, {"app.map"}) == MAPPING_STREAM


def test_golden_seed_sensitivity():
    """A one-off seed change must actually change the run."""
    from dataclasses import replace

    other = run_system(replace(GOLDEN_CONFIG, seed=1235))
    base = run_system(GOLDEN_CONFIG)
    assert other.summary() != base.summary()


# ----------------------------------------------------------------------
# The same bytes whichever way the interpreter's ``sum`` adds floats
# ----------------------------------------------------------------------
_BUILTIN_SUM = builtins.sum


def _compensated_sum(values, start=0):
    """``sum`` that adds floats exactly (``math.fsum``), as Python 3.12's
    compensated ``sum`` does here; int sums stay exact."""
    items = list(values)
    numbers = all(type(x) in (bool, int, float) for x in items + [start])
    if numbers and any(type(x) is float for x in items):
        return math.fsum([start, *items])
    return _BUILTIN_SUM(items, start)


def test_outputs_do_not_depend_on_how_builtin_sum_adds_floats(monkeypatch):
    """``repro`` adds floats left to right itself (``repro._sum.lsum``),
    so a compensating builtin ``sum`` (Python 3.12 and later) moves no
    journal stream and no experiment row."""
    from repro.experiments import run_experiment

    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    journal = Journal(level="info")
    run_system(GOLDEN_CONFIG, journal=journal)
    assert _stream_digest(journal, {"test.launch", "test.defer"}) == (
        SCHEDULER_STREAM
    )
    assert _stream_digest(journal, {"pid.step", "dvfs.change"}) == PID_STREAM
    goldens = Path(__file__).parent / "goldens" / "experiment_goldens.json"
    want = json.loads(goldens.read_text(encoding="utf-8"))
    e2 = run_experiment("E2", horizon_us=12_000.0)
    assert e2.provenance["rows_digest"] == (
        want["experiments"]["E2"]["rows_digest"]
    )
