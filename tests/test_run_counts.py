"""Goldens for :func:`repro.telemetry.count_run`: what one run counts.

``tests/goldens/telemetry_goldens.json`` holds, per case, the counters
and gauges one run adds to a registry (``sim.*``, ``test.sessions.*``,
``test.detections``, ``test.defer.no-level-fits`` and the ``power.*``
gauges), with every gauge's last/min/max/count.  They were frozen from
the registry the simulator used to write into while it ran, over the
four test policies, a tight 50 W budget, checkpointing, faults,
thermal, a queued NoC with test-aware mapping and a heterogeneous
near-threshold grid; counting the finished result must reproduce them
exactly.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.system import SystemConfig, run_system
from repro.experiments.parallel import run_many
from repro.experiments.runners import E11_TYPE_GRID
from repro.telemetry import MetricsRegistry, count_run

GOLDENS = Path(__file__).parent / "goldens" / "telemetry_goldens.json"

_PAPER = SystemConfig(horizon_us=10_000.0, seed=1)

CASES = {
    "power-aware": _PAPER,
    "unaware": replace(_PAPER, test_policy="unaware"),
    "round-robin": replace(_PAPER, test_policy="round-robin"),
    "none": replace(_PAPER, test_policy="none"),
    "tdp50": replace(_PAPER, tdp_w=50.0),
    "checkpointing": replace(_PAPER, tdp_w=50.0, test_checkpointing=True),
    "faults": replace(
        _PAPER, seed=3, fault_hazard_per_us=2e-4, fault_stress_scale=50.0
    ),
    "thermal": replace(_PAPER, seed=2, thermal_enabled=True),
    "queued-test-aware": replace(
        _PAPER, seed=4, noc_mode="queued", mapper="test-aware"
    ),
    "hetero-ntv": SystemConfig(
        width=4,
        height=4,
        tdp_w=25.0,
        horizon_us=8_000.0,
        seed=11,
        type_grid=E11_TYPE_GRID,
        tech_model="ntv",
    ),
}


def counts_of(config: SystemConfig):
    """The counters and gauges one run of ``config`` adds to a registry."""
    registry = MetricsRegistry()
    count_run(registry, run_system(config))
    snapshot = registry.snapshot()
    assert snapshot["histograms"] == {}
    return {"counters": snapshot["counters"], "gauges": snapshot["gauges"]}


def test_goldens_cover_every_case():
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert set(goldens) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_counts_match_golden(case):
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert counts_of(CASES[case]) == goldens[case]


def test_a_sweep_counts_the_same_serial_and_pooled():
    """``run_many`` counts fresh results in index order on both paths,
    so even each gauge's ``last`` agrees."""
    cases = ("power-aware", "tdp50", "faults")
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    snapshots = []
    for jobs in (None, 2):
        registry = MetricsRegistry()
        configs = [CASES[case] for case in cases]
        run_many(configs, jobs=jobs, telemetry=registry)
        snapshots.append(registry.snapshot())
    assert snapshots[0] == snapshots[1]
    expected = Counter()
    for case in cases:
        expected.update(goldens[case]["counters"])
    assert snapshots[0]["counters"] == dict(expected)


def test_a_run_shorter_than_an_epoch_samples_no_power():
    counts = counts_of(SystemConfig(width=4, height=4, horizon_us=50.0))
    assert counts["counters"]["sim.runs"] == 1
    assert "sim.epochs" not in counts["counters"]
    assert counts["gauges"] == {}
