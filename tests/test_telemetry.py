"""Tests for the runtime telemetry pipeline (``repro.telemetry``).

The contract pinned here is the digest-identity guarantee: no registry
enters a run, so counting never changes what a run, a sweep or a
campaign computes — and every path counts each computed run the same
way (:func:`repro.telemetry.count_run`), so serial and pooled execution
of the same work agree on every invariant
(``sim.*``/``power.*``/``test.*``/``cache.*``) counter.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import replace

import pytest

from repro.campaign import CampaignInterrupted, CampaignSpec, run_campaign
from repro.campaign.report import build_report
from repro.campaign.store import ResultStore, record_from_result
from repro.cli import main
from repro.core.system import SystemConfig, run_system
from repro.experiments.parallel import run_many
from repro.obs.provenance import config_digest, result_digest
from repro.telemetry import (
    MetricsRegistry,
    count_run,
    invariant_view,
)
from repro.telemetry import status as status_module
from repro.telemetry.export import atomic_write_text, prometheus_text
from repro.telemetry.status import (
    STATUS_FILE,
    CampaignStatusWriter,
    degraded_status,
    load_status,
    read_status,
    render_status,
    render_top,
)


def small_config(**overrides) -> SystemConfig:
    base = {
        "width": 4,
        "height": 4,
        "horizon_us": 2000.0,
        "arrival_rate_per_ms": 8.0,
        "fault_hazard_per_us": 2e-4,
        "seed": 1,
    }
    base.update(overrides)
    return SystemConfig(**base)


def small_spec(**overrides) -> CampaignSpec:
    data = {
        "name": "tm-test",
        "base": {
            "width": 4,
            "height": 4,
            "horizon_us": 1500.0,
            "arrival_rate_per_ms": 8.0,
        },
        "grid": {"tdp_w": [30.0, 40.0]},
        "seeds": {"start": 1, "count": 2},
    }
    data.update(overrides)
    return CampaignSpec.from_dict(data)


# ----------------------------------------------------------------------
# Registry primitives
# ----------------------------------------------------------------------
def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    reg.counter("a.count").inc()
    reg.counter("a.count").inc(4)
    reg.gauge("a.level").set(2.0)
    reg.gauge("a.level").set(7.0)
    reg.gauge("a.level").set(3.0)
    reg.histogram("a.size").observe(1.5)
    reg.histogram("a.size").observe(1.5)
    snap = reg.snapshot()
    assert snap["counters"]["a.count"] == 5
    gauge = snap["gauges"]["a.level"]
    assert (gauge["last"], gauge["min"], gauge["max"], gauge["count"]) == (
        3.0, 2.0, 7.0, 3,
    )
    hist = snap["histograms"]["a.size"]
    assert hist["count"] == 2
    assert (hist["min"], hist["max"]) == (1.5, 1.5)
    assert sum(hist["counts"]) == 2


def test_registry_handles_are_cached_per_name():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert reg.gauge("y") is reg.gauge("y")
    assert reg.histogram("z") is reg.histogram("z")


def test_snapshot_omits_untouched_metrics():
    reg = MetricsRegistry()
    reg.counter("touched").inc()
    reg.counter("untouched")
    reg.gauge("never.set")
    reg.histogram("never.observed")
    snap = reg.snapshot()
    assert list(snap["counters"]) == ["touched"]
    assert snap["gauges"] == {}
    assert snap["histograms"] == {}


def test_invariant_view_filters_machinery_namespaces():
    reg = MetricsRegistry()
    reg.counter("sim.events").inc(10)
    reg.counter("test.launch").inc(2)
    reg.counter("cache.hits").inc(1)
    reg.gauge("power.headroom_w").set(5.0)
    reg.counter("exec.completed").inc(3)
    reg.counter("batch.dispatches").inc(1)
    reg.counter("campaign.points").inc(4)
    view = invariant_view(reg.snapshot())
    assert set(view["counters"]) == {"sim.events", "test.launch", "cache.hits"}
    # A gauge's ``last`` is which value arrived last, not data.
    assert view["gauges"] == {
        "power.headroom_w": {"min": 5.0, "max": 5.0, "count": 1}
    }


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def test_prometheus_text_format():
    reg = MetricsRegistry()
    reg.counter("sim.events").inc(42)
    reg.gauge("power.headroom_w").set(3.5)
    reg.histogram("test.session_us", bounds=(10.0, 100.0)).observe(50.0)
    text = prometheus_text(reg.snapshot())
    assert "# TYPE repro_sim_events_total counter" in text
    assert "repro_sim_events_total 42" in text
    assert "repro_power_headroom_w 3.5" in text
    assert 'repro_test_session_us_bucket{le="100"} 1' in text
    assert 'repro_test_session_us_bucket{le="+Inf"} 1' in text
    assert text.endswith("\n")


def test_atomic_write_text(tmp_path):
    path = str(tmp_path / "out.txt")
    atomic_write_text(path, "hello\n")
    atomic_write_text(path, "world\n")
    with open(path) as handle:
        assert handle.read() == "world\n"
    # No temp litter left behind.
    assert os.listdir(str(tmp_path)) == ["out.txt"]


# ----------------------------------------------------------------------
# Single-run instrumentation: digest identity + expected counters
# ----------------------------------------------------------------------
def test_none_counts_nothing(tmp_path, closes, monkeypatch):
    """``None`` is the one "count nothing" registry: ``count_run`` and
    every cache call take it, and no registry counts anything."""
    from repro.cache import RunCache

    config = small_config()
    result = run_system(config)
    digest = config_digest(config)

    def forbidden(*args, **kwargs):
        raise AssertionError("something counted into a registry")

    for name in ("counter", "gauge", "histogram"):
        monkeypatch.setattr(MetricsRegistry, name, forbidden)
    count_run(None, result)
    cache = closes(RunCache(cache_dir=str(tmp_path / "cache"), max_bytes=1))
    assert cache.get_result(digest, None) is None  # a miss
    cache.put_result(digest, result, None)
    cache.put_result("other", result, None)  # evicts the first
    cache.store.put(cache.key_for(digest), b"not a pickle")  # and "other"
    assert cache.get_result(digest, None) is None  # corrupt
    cache.note_bypass(None)
    served, hit = cache.get_or_run(config, None)
    assert not hit and result_digest(served) == result_digest(result)
    assert cache.get_result(digest, None) is not None  # a hit
    stats = cache.stats
    assert (stats.misses, stats.puts, stats.evictions, stats.corrupt) == (
        3, 3, 1, 1,
    )
    assert (stats.hits, stats.bypasses) == (1, 1)


def test_run_system_digest_identical_with_telemetry():
    config = small_config()
    baseline = result_digest(run_system(config))
    reg = MetricsRegistry()
    result = run_system(config)
    count_run(reg, result)
    assert result_digest(result) == baseline
    snap = reg.snapshot()
    assert snap["counters"]["sim.runs"] == 1
    assert snap["counters"]["sim.events"] > 0
    assert snap["counters"]["sim.epochs"] > 0
    assert snap["gauges"]["power.measured_w"]["count"] > 0
    assert snap["gauges"]["power.headroom_w"]["count"] > 0


# ----------------------------------------------------------------------
# Sweeps: serial == pooled
# ----------------------------------------------------------------------
def _sweep_configs():
    base = small_config(max_concurrent_tests=1)
    return [replace(base, seed=s) for s in (1, 2, 3, 4)]


def _sweep_snapshot(**kwargs):
    reg = MetricsRegistry()
    results = run_many(_sweep_configs(), telemetry=reg, **kwargs)
    return [result_digest(r) for r in results], reg.snapshot()


def test_sweep_paths_merge_to_identical_invariants():
    serial_rows, serial_snap = _sweep_snapshot()
    pooled_rows, pooled_snap = _sweep_snapshot(jobs=2)
    baseline = [result_digest(r) for r in run_many(_sweep_configs())]
    assert serial_rows == pooled_rows == baseline
    serial_view = invariant_view(serial_snap)
    assert serial_view == invariant_view(pooled_snap)
    assert serial_view["counters"]["sim.runs"] == 4


def test_concurrent_sweeps_count_into_their_own_registries():
    """Two threads sweep disjoint configs at once, each into its own
    registry: each snapshot counts exactly that thread's runs."""
    configs = {
        "a": [small_config(seed=s) for s in (11, 12, 13)],
        "b": [small_config(seed=s) for s in (21, 22)],
    }
    registries = {name: MetricsRegistry() for name in configs}
    errors = []

    def sweep(name):
        try:
            run_many(configs[name], telemetry=registries[name])
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [
        threading.Thread(target=sweep, args=(name,)) for name in configs
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for name, registry in registries.items():
        counters = registry.snapshot()["counters"]
        assert counters["sim.runs"] == len(configs[name])


# ----------------------------------------------------------------------
# Campaign status surface
# ----------------------------------------------------------------------
def test_campaign_digest_identical_with_telemetry(tmp_path):
    """A campaign counts into its registry and flushes its status; its
    aggregate is that of its points run straight through ``run_system``,
    with no registry anywhere, and the status is its one extra file."""
    spec = small_spec()
    report = run_campaign(str(tmp_path / "camp"), spec=spec)
    straight = ResultStore(str(tmp_path / "straight.jsonl"))
    straight.extend(
        record_from_result(point, run_system(point.config))
        for point in spec.fixed_points()
    )
    assert report.aggregate == build_report(spec, straight).aggregate
    assert sorted(os.listdir(str(tmp_path / "camp"))) == [
        "manifest.json", "results.jsonl", "spec.json", STATUS_FILE,
    ]


def test_campaign_status_lifecycle_interrupt_then_resume(tmp_path):
    cdir = str(tmp_path / "camp")
    with pytest.raises(CampaignInterrupted):
        run_campaign(cdir, spec=small_spec(), interrupt_after=2)
    status = read_status(cdir)
    assert status is not None
    assert status["schema"] == "repro.campaign.status/1"
    assert status["state"] == "interrupted"
    assert status["points_done"] == 2
    assert status["points_planned"] == 4
    assert status["rate_per_s"] > 0
    assert status["events_per_s"] > 0
    run_campaign(cdir, resume=True)
    status = read_status(cdir)
    assert status["state"] == "complete"
    assert status["points_done"] == 4
    assert status["workers"], "no worker heartbeats recorded"
    metrics = status["metrics"]
    assert metrics["counters"]["exec.completed"] == 2  # this run only
    assert "repro_sim_events_total" in prometheus_text(metrics)


def test_campaign_paths_merge_to_identical_invariants(tmp_path):
    def snapshot_for(name, **kwargs):
        run_campaign(str(tmp_path / name), spec=small_spec(), **kwargs)
        return read_status(str(tmp_path / name))["metrics"]

    serial = snapshot_for("serial")
    pooled = snapshot_for("pooled", jobs=2)
    assert invariant_view(serial) == invariant_view(pooled)


def test_campaign_status_counts_only_its_own_cache_traffic(tmp_path, closes):
    """One cache serves a cold pass and two warm ones (as under ``repro
    serve``): the last pass's status reports its own 4 hits, not the
    cache object's lifetime lookups."""
    from repro.cache import RunCache

    cache = closes(RunCache(cache_dir=str(tmp_path / "cache")))
    for name in ("cold", "warm1", "warm2"):
        run_campaign(str(tmp_path / name), spec=small_spec(), cache=cache)
    status = read_status(str(tmp_path / "warm2"))
    assert status["metrics"]["counters"]["cache.hits"] == 4
    assert "cache.misses" not in status["metrics"]["counters"]
    assert "cache" not in status
    assert "cache      4/4 hits (100%)" in render_status(status).splitlines()


def test_status_flush_makes_no_call_into_the_run_cache(
    tmp_path, closes, monkeypatch
):
    """A flush reads the campaign's own counters only: through a cold
    and a warm pass over one cache, no flush calls a cache method."""
    from repro.cache import RunCache

    cache = closes(RunCache(cache_dir=str(tmp_path / "cache")))
    flushing, calls = [], []
    real_write = CampaignStatusWriter.write

    def write(self, *args, **kwargs):
        flushing.append(True)
        try:
            return real_write(self, *args, **kwargs)
        finally:
            flushing.pop()

    def spy(name, method):
        def call(*args, **kwargs):
            if flushing:
                calls.append(name)
            return method(*args, **kwargs)

        return call

    monkeypatch.setattr(CampaignStatusWriter, "write", write)
    for name, method in list(vars(RunCache).items()):
        if callable(method) and not name.startswith("__"):
            monkeypatch.setattr(RunCache, name, spy(name, method))
    for name in ("cold", "warm"):
        run_campaign(str(tmp_path / name), spec=small_spec(), cache=cache)
        assert read_status(str(tmp_path / name))["state"] == "complete"
    assert cache.stats.hits == 4
    assert calls == []


def test_degraded_status_for_pre_telemetry_dir(tmp_path):
    """A PR-3-era checkpoint dir (no status file) stays inspectable."""
    cdir = str(tmp_path / "old")
    run_campaign(cdir, spec=small_spec())
    # Emulate the pre-telemetry layout exactly: spec + results only.
    for name in ("manifest.json", "failures.jsonl", STATUS_FILE):
        path = os.path.join(cdir, name)
        if os.path.exists(path):
            os.unlink(path)
    assert sorted(os.listdir(cdir)) == ["results.jsonl", "spec.json"]
    status = load_status(cdir)
    assert status["degraded"] is True
    assert status["state"] == "unknown"
    assert status["points_done"] == 4
    assert status["points_planned"] == 4
    rendered = render_status(status)
    assert "results.jsonl" in rendered
    assert "4/4" in rendered


def test_degraded_status_rejects_non_campaign_dir(tmp_path):
    with pytest.raises(OSError):
        degraded_status(str(tmp_path))


def test_status_writer_throttles_and_forces(tmp_path, monkeypatch):
    monkeypatch.setattr(status_module, "FLUSH_INTERVAL_S", 3600.0)
    reg = MetricsRegistry()
    writer = CampaignStatusWriter(str(tmp_path), "t", reg, planned=10)
    assert writer.write("running") is True
    writer.note_points(3)
    assert writer.write("running") is False  # throttled
    assert read_status(str(tmp_path))["points_done"] == 0
    assert writer.write("complete", force=True) is True
    assert read_status(str(tmp_path))["points_done"] == 3


def test_render_top_lists_every_campaign():
    rows = [
        {
            "name": "a", "state": "running", "points_done": 1,
            "points_planned": 4, "rate_per_s": 2.0, "eta_s": 1.5,
            "events_per_s": 1000.0, "workers": {"1": {}},
        },
        {
            "name": "b", "state": "unknown", "points_done": 2,
            "points_planned": None, "rate_per_s": None, "eta_s": None,
            "events_per_s": None, "workers": {},
        },
    ]
    text = render_top(rows)
    lines = text.splitlines()
    assert len(lines) == 3
    assert "CAMPAIGN" in lines[0]
    assert "2/?" in lines[2]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_campaign_status_and_top(tmp_path, capsys):
    cdir = str(tmp_path / "camp")
    run_campaign(cdir, spec=small_spec())
    assert main(["campaign", "status", cdir]) == 0
    assert "complete" in capsys.readouterr().out
    assert main(["campaign", "status", cdir, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.campaign.status/1"
    assert main(["top", cdir]) == 0
    assert "CAMPAIGN" in capsys.readouterr().out


def test_cli_status_missing_dir_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope")
    assert main(["campaign", "status", missing]) == 2
    assert main(["top", missing]) == 2
    capsys.readouterr()


def test_cli_run_telemetry_flag(capsys):
    assert main(["run", "--horizon-ms", "2", "--telemetry"]) == 0
    out = capsys.readouterr().out
    assert "telemetry:" in out
    assert "sim.events" in out
