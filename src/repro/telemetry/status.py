"""The live status surface: one ``status.json`` per flush.

A running campaign periodically flushes one file into its campaign
directory, ``status.json``: progress, ETA, worker health and, under
``metrics``, the campaign's registry snapshot.  ``repro serve`` flushes
the same file into its state directory on shutdown.  Both write it with
:func:`write_status`, atomically, so readers in other processes never
see a torn document.

``repro campaign status <dir>`` and ``repro top`` read it read-only.
For a campaign directory created before the telemetry pipeline existed
there is no status file: :func:`load_status` degrades gracefully to
row-count progress derived from the ``results.jsonl`` checkpoint store,
so old checkpoint dirs stay inspectable forever.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Mapping, Optional

from repro.telemetry.export import atomic_write_text
from repro.telemetry.registry import MetricsRegistry

__all__ = [
    "FLUSH_INTERVAL_S",
    "STATUS_FILE",
    "CampaignStatusWriter",
    "degraded_status",
    "load_status",
    "read_status",
    "render_status",
    "render_top",
    "write_status",
]

#: The campaign directory's checkpoint files (written by
#: :mod:`repro.campaign.store`), named here so that readers such as
#: ``repro serve`` can find campaigns without importing the campaign stack.
RESULTS_FILE = "results.jsonl"
FAILURES_FILE = "failures.jsonl"
SPEC_FILE = "spec.json"
MANIFEST_FILE = "manifest.json"
STATUS_FILE = "status.json"

#: Minimum seconds between throttled status flushes.
FLUSH_INTERVAL_S = 0.25


def write_status(directory: str, status: Mapping[str, object]) -> None:
    """Atomically write ``status`` as ``directory/status.json``."""
    atomic_write_text(
        os.path.join(directory, STATUS_FILE),
        json.dumps(status, indent=2, sort_keys=True) + "\n",
    )


class CampaignStatusWriter:
    """Accumulates campaign progress and flushes ``status.json``.

    One writer per ``run_campaign`` invocation.  ``note_*`` calls are
    cheap; :meth:`write` throttles itself to at most one flush per
    :data:`FLUSH_INTERVAL_S` unless forced (the final flush in the
    runner's ``finally`` block is always forced, with state
    ``complete`` or ``interrupted``).
    """

    def __init__(
        self,
        campaign_dir: str,
        name: str,
        registry: MetricsRegistry,
        planned: Optional[int] = None,
        already_done: int = 0,
    ) -> None:
        self.campaign_dir = campaign_dir
        self.name = name
        self.registry = registry
        self.planned = planned
        self.already_done = already_done
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
            "workers": {
                str(pid): dict(entry) for pid, entry in sorted(self.workers.items())
            },
            "metrics": snapshot,
        }

    def write(self, state: str = "running", force: bool = False) -> bool:
        """Flush ``status.json``; returns whether a flush happened."""
        now = time.time()
        if not force and now - self._last_flush < FLUSH_INTERVAL_S:
            return False
        self._last_flush = now
        write_status(self.campaign_dir, self.status(state))
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
    from repro.campaign.store import ResultStore

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
