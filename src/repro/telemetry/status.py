"""The live campaign status surface.

A running campaign periodically flushes three files into its campaign
directory, each written atomically so readers in other processes never
see a torn document:

* ``status.json``     — progress, ETA, worker health, the cache store's
  state, and the campaign's registry snapshot;
* ``telemetry.prom``  — the registry in Prometheus text format;
* ``telemetry.json``  — the registry as a JSON snapshot.

``repro campaign status <dir>`` and ``repro top`` read these files
read-only.  For a campaign directory created before the telemetry
pipeline existed (or a run with ``--no-telemetry``), there is no status
file: :func:`load_status` degrades gracefully to row-count progress
derived from the ``results.jsonl`` checkpoint store, so old checkpoint
dirs stay inspectable forever.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional

from repro.telemetry.export import (
    atomic_write_text,
    prometheus_text,
    snapshot_json,
)
from repro.telemetry.registry import MetricsRegistry

__all__ = [
    "PROM_FILE",
    "SNAPSHOT_FILE",
    "STATUS_FILE",
    "CampaignStatusWriter",
    "degraded_status",
    "load_status",
    "read_status",
    "render_status",
    "render_top",
]

STATUS_FILE = "status.json"
PROM_FILE = "telemetry.prom"
SNAPSHOT_FILE = "telemetry.json"

#: Minimum seconds between throttled status flushes.
DEFAULT_FLUSH_INTERVAL_S = 0.25


class CampaignStatusWriter:
    """Accumulates campaign progress and flushes the status files.

    One writer per ``run_campaign`` invocation.  ``note_*`` calls are
    cheap; :meth:`write` throttles itself to at most one flush per
    ``min_interval_s`` unless forced (the final flush in the runner's
    ``finally`` block is always forced, with state ``complete`` or
    ``interrupted``).
    """

    def __init__(
        self,
        campaign_dir: str,
        name: str,
        registry: MetricsRegistry,
        planned: Optional[int] = None,
        already_done: int = 0,
        cache=None,
        min_interval_s: float = DEFAULT_FLUSH_INTERVAL_S,
    ) -> None:
        self.campaign_dir = campaign_dir
        self.name = name
        self.registry = registry
        self.planned = planned
        self.already_done = already_done
        self.cache = cache
        self.min_interval_s = min_interval_s
        self.started_at = time.time()
        self.done_this_run = 0
        self.quarantined = 0
        self.workers: Dict[int, Dict[str, object]] = {}
        self._last_flush = 0.0

    # ------------------------------------------------------------------
    # Progress notes
    # ------------------------------------------------------------------
    def note_points(self, n: int = 1) -> None:
        """Count ``n`` points as completed in this invocation."""
        self.done_this_run += n

    def note_quarantine(self, n: int = 1) -> None:
        """Count ``n`` points as quarantined in this invocation."""
        self.quarantined += n

    def note_worker(self, pid: int, wall_s: float) -> None:
        """Record a heartbeat: worker ``pid`` ran a point in ``wall_s``."""
        entry = self.workers.setdefault(pid, {"completed": 0, "wall_s": 0.0})
        entry["completed"] = int(entry["completed"]) + 1
        entry["wall_s"] = float(entry["wall_s"]) + wall_s  # type: ignore[arg-type]
        entry["last_seen"] = time.time()

    # ------------------------------------------------------------------
    # Status document
    # ------------------------------------------------------------------
    def status(self, state: str) -> Dict[str, object]:
        """Build the status document for ``state`` (not written to disk)."""
        now = time.time()
        elapsed = max(now - self.started_at, 1e-9)
        done = self.already_done + self.done_this_run
        rate = self.done_this_run / elapsed
        eta_s: Optional[float] = None
        if self.planned is not None and rate > 0:
            eta_s = max(self.planned - done, 0) / rate
        snapshot = self.registry.snapshot()
        events = snapshot.get("counters", {}).get("sim.events", 0)  # type: ignore[union-attr]
        cache_info: Optional[Dict[str, object]] = None
        if self.cache is not None:
            # The store's on-disk state.  The cache object's own session
            # counters span every campaign that shared it (all of a
            # server's); this campaign's lookups are its ``cache.*``
            # counters in ``metrics``.
            cache_info = self.cache.stats_dict()
            del cache_info["session"]
        return {
            "schema": "repro.campaign.status/1",
            "name": self.name,
            "state": state,
            "pid": os.getpid(),
            "started_at": self.started_at,
            "updated_at": now,
            "points_done": done,
            "points_planned": self.planned,
            "points_done_this_run": self.done_this_run,
            "quarantined": self.quarantined,
            "rate_per_s": rate,
            "eta_s": eta_s,
            "events_per_s": int(events) / elapsed,
            "cache": cache_info,
            "workers": {
                str(pid): dict(entry) for pid, entry in sorted(self.workers.items())
            },
            "metrics": snapshot,
        }

    def write(self, state: str = "running", force: bool = False) -> bool:
        """Flush status + exports; returns whether a flush happened."""
        now = time.time()
        if not force and now - self._last_flush < self.min_interval_s:
            return False
        self._last_flush = now
        status = self.status(state)
        snapshot = status["metrics"]
        atomic_write_text(
            os.path.join(self.campaign_dir, STATUS_FILE),
            json.dumps(status, indent=2, sort_keys=True) + "\n",
        )
        atomic_write_text(
            os.path.join(self.campaign_dir, PROM_FILE),
            prometheus_text(snapshot),  # type: ignore[arg-type]
        )
        atomic_write_text(
            os.path.join(self.campaign_dir, SNAPSHOT_FILE),
            snapshot_json(snapshot, state=state, name=self.name),  # type: ignore[arg-type]
        )
        return True


# ----------------------------------------------------------------------
# Read side
# ----------------------------------------------------------------------
def read_status(campaign_dir: str) -> Optional[Dict[str, object]]:
    """The parsed status file, or ``None`` if absent or unreadable."""
    path = os.path.join(campaign_dir, STATUS_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    return data


def degraded_status(campaign_dir: str) -> Dict[str, object]:
    """Row-count progress for a campaign dir without a status file.

    Works on checkpoint directories from before the telemetry pipeline
    existed: reads ``spec.json`` and counts ``results.jsonl`` rows.
    Raises ``OSError`` if the directory is not a campaign dir at all.
    """
    from repro.campaign.runner import load_spec
    from repro.campaign.store import RESULTS_FILE, ResultStore

    spec = load_spec(campaign_dir)
    store = ResultStore(os.path.join(campaign_dir, RESULTS_FILE))
    records = store.load()
    return {
        "schema": "repro.campaign.status/1",
        "name": spec.name,
        "state": "unknown",
        "degraded": True,
        "points_done": len(records),
        "points_planned": spec.n_planned_points(),
        "quarantined": None,
        "rate_per_s": None,
        "eta_s": None,
        "events_per_s": None,
        "cache": None,
        "workers": {},
        "metrics": None,
    }


def load_status(campaign_dir: str) -> Dict[str, object]:
    """Status file if present, else the degraded row-count view."""
    status = read_status(campaign_dir)
    if status is not None:
        return status
    return degraded_status(campaign_dir)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def _progress(status: Dict[str, object]) -> str:
    done = status.get("points_done")
    planned = status.get("points_planned")
    if planned:
        pct = 100.0 * int(done) / int(planned)  # type: ignore[arg-type]
        return f"{done}/{planned} ({pct:.0f}%)"
    return f"{done}/?"


def render_status(status: Dict[str, object]) -> str:
    """Human-readable multi-line view of one campaign's status."""
    lines: List[str] = []
    state = status.get("state", "unknown")
    lines.append(f"campaign   {status.get('name', '?')}  [{state}]")
    if status.get("degraded"):
        lines.append(
            "           (no status file - progress derived from results.jsonl)"
        )
    lines.append(f"progress   {_progress(status)}")
    quarantined = status.get("quarantined")
    if quarantined:
        lines.append(f"quarantine {quarantined}")
    rate = status.get("rate_per_s")
    if rate is not None:
        lines.append(f"rate       {float(rate):.2f} points/s")  # type: ignore[arg-type]
    if status.get("eta_s") is not None:
        lines.append(f"eta        {_fmt_duration(float(status['eta_s']))}")  # type: ignore[arg-type]
    events = status.get("events_per_s")
    if events is not None:
        lines.append(f"sim        {float(events):,.0f} events/s")  # type: ignore[arg-type]
    metrics = status.get("metrics")
    if isinstance(metrics, dict):
        # This campaign's own lookups, not the shared cache's lifetime.
        counters = metrics.get("counters", {})
        hits = int(counters.get("cache.hits", 0))
        total = hits + int(counters.get("cache.misses", 0))
        if total:
            lines.append(
                f"cache      {hits}/{total} hits ({100.0 * hits / total:.0f}%)"
            )
    workers = status.get("workers")
    if isinstance(workers, dict) and workers:
        now = time.time()
        parts = []
        for pid, entry in sorted(workers.items()):
            age = now - float(entry.get("last_seen", now))
            parts.append(f"{pid} ({int(entry.get('completed', 0))} done, "
                         f"{_fmt_duration(age)} ago)")
        lines.append(f"workers    {len(workers)}: " + ", ".join(parts))
    return "\n".join(lines)


def render_top(statuses: List[Dict[str, object]]) -> str:
    """Compact one-line-per-campaign table for ``repro top``."""
    header = (
        f"{'CAMPAIGN':<24} {'STATE':<12} {'PROGRESS':<16} "
        f"{'RATE':>9} {'ETA':>8} {'EVENTS/S':>10} {'WORKERS':>8}"
    )
    lines = [header]
    for status in statuses:
        rate = status.get("rate_per_s")
        events = status.get("events_per_s")
        workers = status.get("workers") or {}
        lines.append(
            f"{str(status.get('name', '?'))[:24]:<24} "
            f"{str(status.get('state', '?'))[:12]:<12} "
            f"{_progress(status):<16} "
            f"{(f'{float(rate):.2f}/s' if rate is not None else '-'):>9} "
            f"{_fmt_duration(status.get('eta_s')):>8} "  # type: ignore[arg-type]
            f"{(f'{float(events):,.0f}' if events is not None else '-'):>10} "
            f"{len(workers):>8}"
        )
    return "\n".join(lines)
