"""Shared fixtures and config factories for the test suite."""

from __future__ import annotations

import functools

import pytest

from repro.core.system import SystemConfig
from repro.platform.chip import Chip
from repro.platform.technology import get_node
from repro.sim.engine import Simulator

#: The 4x4/16nm/25W workload most integration tests share.  Keeping one
#: definition here stops the per-file copies from drifting apart; tests
#: override only what they actually vary.
SMALL_SYSTEM_BASE = dict(
    width=4,
    height=4,
    node_name="16nm",
    tdp_w=25.0,
    arrival_rate_per_ms=10.0,
    min_test_interval_us=1_000.0,
)


def small_system_config(**overrides) -> SystemConfig:
    """A :class:`SystemConfig` on the shared small 4x4 workload."""
    merged = dict(SMALL_SYSTEM_BASE)
    merged.update(overrides)
    return SystemConfig(**merged)


def small_sweep_base(**overrides) -> dict:
    """The tiny 2x2 base *dict* the serve/sweep request tests layer on."""
    merged = {"width": 2, "height": 2, "horizon_us": 1_500.0}
    merged.update(overrides)
    return merged


@functools.lru_cache(maxsize=None)
def experiment_12ms(experiment_id: str):
    """``run_experiment(experiment_id, horizon_us=12_000.0)``, run once
    per session and shared by every test that reads it (tests must not
    mutate the result)."""
    from repro.experiments import run_experiment

    return run_experiment(experiment_id, horizon_us=12_000.0)


@pytest.fixture
def node16():
    return get_node("16nm")


@pytest.fixture
def node45():
    return get_node("45nm")


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def chip44():
    """Small 4x4 chip at 16 nm with a tight-ish 20 W budget."""
    return Chip.build(4, 4, "16nm", tdp_w=20.0)


@pytest.fixture
def chip88():
    return Chip.build(8, 8, "16nm", tdp_w=80.0)


@pytest.fixture
def closes():
    """Wraps a cache or store so that it is closed when the test ends."""
    opened = []

    def track(store):
        opened.append(store)
        return store

    yield track
    for store in opened:
        store.close()
