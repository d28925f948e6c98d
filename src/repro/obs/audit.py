"""Decision-audit reports reconstructed from a run journal.

These helpers answer, *from the journal alone*, the questions the paper's
evaluation makes claims about:

* every test launch/deferral with its reason and the power headroom at
  decision time (``test_decisions`` / ``deferral_reasons``);
* per-core test intervals — when each core's tests completed and the
  gaps between them (``core_test_intervals`` / ``core_test_gaps``);
* the set of V/F levels each core was tested at, i.e. the TC'16
  "all levels covered" claim (``vf_coverage`` / ``all_levels_covered``).

All functions accept either a :class:`~repro.obs.journal.Journal` or a
plain iterable of :class:`~repro.obs.journal.JournalEvent` (e.g. the
output of ``Journal.load_jsonl``), so reports work identically on live
runs and archived JSONL files.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro._sum import lsum
from repro.obs.journal import JournalEvent, events_of


def test_decisions(journal) -> List[Dict[str, object]]:
    """Chronological launch/defer decisions of the test scheduler."""
    out: List[Dict[str, object]] = []
    for event in events_of(journal):
        if event.type == "test.launch":
            out.append(
                {
                    "time": event.time,
                    "action": "launch",
                    "core": event.data.get("core"),
                    "level": event.data.get("level"),
                    "headroom_w": event.data.get("headroom_w"),
                    "criticality": event.data.get("criticality"),
                    "reason": "downgraded" if event.data.get("downgraded") else "fits",
                }
            )
        elif event.type == "test.defer":
            out.append(
                {
                    "time": event.time,
                    "action": "defer",
                    "core": event.data.get("core"),
                    "level": None,
                    "headroom_w": event.data.get("headroom_w"),
                    "criticality": event.data.get("criticality"),
                    "reason": event.data.get("reason"),
                }
            )
    return out


def deferral_reasons(journal) -> Dict[str, int]:
    """How often each deferral reason occurred."""
    out: Dict[str, int] = {}
    for event in events_of(journal):
        if event.type == "test.defer":
            reason = str(event.data.get("reason"))
            out[reason] = out.get(reason, 0) + 1
    return out


def core_test_intervals(journal) -> Dict[int, List[float]]:
    """Completion times of every finished test, per core."""
    out: Dict[int, List[float]] = {}
    for event in events_of(journal):
        if event.type == "test.complete":
            core = int(event.data["core"])
            out.setdefault(core, []).append(event.time)
    return out


def core_test_gaps(journal) -> Dict[int, List[float]]:
    """Gaps (µs) between successive completed tests, per core.

    The first gap is measured from t=0 (cores start never-tested), which
    matches ``TestStats.test_gaps_us`` accounting.
    """
    gaps: Dict[int, List[float]] = {}
    for core, times in core_test_intervals(journal).items():
        previous = 0.0
        out = []
        for t in times:
            out.append(t - previous)
            previous = t
        gaps[core] = out
    return gaps


def vf_coverage(journal) -> Dict[int, List[int]]:
    """Sorted V/F level indexes each core completed a test at."""
    seen: Dict[int, set] = {}
    for event in events_of(journal):
        if event.type == "test.complete":
            core = int(event.data["core"])
            seen.setdefault(core, set()).add(int(event.data["level"]))
    return {core: sorted(levels) for core, levels in seen.items()}


def all_levels_covered(journal, n_levels: int) -> bool:
    """True iff every core that was tested covered all ``n_levels`` levels."""
    coverage = vf_coverage(journal)
    if not coverage:
        return False
    return all(len(levels) == n_levels for levels in coverage.values())


def dvfs_changes(journal) -> Dict[int, int]:
    """Number of DVFS level changes applied, per core."""
    out: Dict[int, int] = {}
    for event in events_of(journal):
        if event.type == "dvfs.change":
            core = int(event.data["core"])
            out[core] = out.get(core, 0) + 1
    return out


def summarize(journal) -> Dict[str, object]:
    """Flat roll-up of a journal: spans, decision counts, coverage."""
    events = list(events_of(journal))
    counts: Dict[str, int] = {}
    for event in events:
        counts[event.type] = counts.get(event.type, 0) + 1
    intervals = core_test_intervals(events)
    coverage = vf_coverage(events)
    return {
        "events": len(events),
        "t_first": events[0].time if events else 0.0,
        "t_last": events[-1].time if events else 0.0,
        "counts": counts,
        "test_launches": counts.get("test.launch", 0),
        "test_deferrals": counts.get("test.defer", 0),
        "deferral_reasons": deferral_reasons(events),
        "tests_completed": counts.get("test.complete", 0),
        "tests_aborted": counts.get("test.abort", 0),
        "cores_tested": len(intervals),
        "levels_covered": sorted(
            {level for levels in coverage.values() for level in levels}
        ),
        "budget_violations": counts.get("budget.violation", 0),
        "dvfs_changes": counts.get("dvfs.change", 0),
        "verify_violations": counts.get("verify.violation", 0),
        "verify_ticks": counts.get("verify.power", 0),
    }


def format_summary(journal, n_levels: Optional[int] = None) -> str:
    """Render the roll-up plus per-core tables for terminal output."""
    from repro.metrics.report import format_table

    events = list(events_of(journal))
    roll = summarize(events)
    parts = [
        format_table(
            ["event_type", "count"],
            sorted(roll["counts"].items()),
            title=(
                f"journal: {roll['events']} events over "
                f"[{roll['t_first']:g}, {roll['t_last']:g}] us"
            ),
        )
    ]
    if roll["test_deferrals"]:
        parts.append(
            format_table(
                ["deferral_reason", "count"],
                sorted(roll["deferral_reasons"].items()),
            )
        )
    if roll["verify_violations"]:
        parts.append(
            f"VERIFY: {roll['verify_violations']} invariant violation(s) "
            "recorded (filter with --type verify.)"
        )
    intervals = core_test_intervals(events)
    if intervals:
        coverage = vf_coverage(events)
        gaps = core_test_gaps(events)
        rows = []
        for core in sorted(intervals):
            core_gaps = gaps[core]
            rows.append(
                [
                    core,
                    len(intervals[core]),
                    lsum(core_gaps) / len(core_gaps),
                    max(core_gaps),
                    ",".join(str(level) for level in coverage.get(core, [])),
                ]
            )
        parts.append(
            format_table(
                ["core", "tests", "mean_gap_us", "max_gap_us", "levels_tested"],
                rows,
            )
        )
        if n_levels is not None:
            parts.append(
                f"all {n_levels} V/F levels covered on every tested core: "
                f"{all_levels_covered(events, n_levels)}"
            )
    return "\n\n".join(parts)
