"""Offline re-simulation of a run journal (differential cross-check).

A journal written with both the journal *and* the invariant checker
enabled carries one ``verify.platform`` event (node, mesh, V/F ladder,
per-core leakage factors) plus per-epoch ``verify.cores`` /
``verify.power`` snapshots.  :func:`replay_journal` re-derives every
epoch's power breakdown **independently** — straight through the
technology model, knowing nothing of the live meter's incremental
bookkeeping or leakage table — and compares against the recorded
channels.  Because the recomputation accumulates in the same ascending
core-id order as the reference full scan, agreement is expected to be
*bit-exact*, and any drift localises to an epoch and a channel.

When the journal also carries ``core.transition`` events (debug-level
journals), each recorded transition is checked against the core
lifecycle's legal-transition table.

Malformed input — unreadable file, truncated/corrupted JSONL, missing
platform event, torn snapshot pairs — raises a clean
:class:`ReplayError`; a *mismatch* is a finding, reported in the
returned :class:`ReplayReport`, not an exception.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.journal import Journal, JournalEvent, events_of
from repro.platform.core import CoreState
from repro.platform.coretypes import DEFAULT_CORE_TYPE, get_core_type
from repro.platform.technology import (
    DEFAULT_TECH_MODEL,
    get_node,
    get_tech_model,
)
from repro.verify.invariants import LEGAL_TRANSITIONS


class ReplayError(ValueError):
    """The journal cannot be replayed (missing, truncated or corrupt)."""


@dataclass
class ReplayReport:
    """Outcome of one journal replay."""

    ticks_checked: int = 0
    #: Per-channel disagreements beyond tolerance: dicts with ``time``,
    #: ``channel``, ``recorded_w``, ``replayed_w``, ``error_w``.
    mismatches: List[Dict[str, object]] = field(default_factory=list)
    #: Illegal transitions found in ``core.transition`` events.
    transition_violations: List[Dict[str, object]] = field(default_factory=list)
    transitions_checked: int = 0
    max_abs_error_w: float = 0.0

    @property
    def ok(self) -> bool:
        """True iff the replay agreed with every recorded epoch."""
        return not self.mismatches and not self.transition_violations


#: Channels a replay recomputes (noc power has no per-link journal
#: source, so it is only sanity-checked for sign).
_CHANNELS = ("workload_w", "test_w", "leakage_w")


def _load_events(source) -> List[JournalEvent]:
    if isinstance(source, str):
        try:
            return Journal.load_jsonl(source)
        except OSError as exc:
            raise ReplayError(f"cannot read journal {source!r}: {exc}") from exc
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ReplayError(
                f"journal {source!r} is corrupt: {exc}"
            ) from exc
    try:
        return list(events_of(source))
    except (ValueError, KeyError, TypeError) as exc:
        raise ReplayError(f"journal events are corrupt: {exc}") from exc


def _recompute(
    node,
    tech_model,
    core_types: List,
    vf_levels: List[Tuple[float, float]],
    leak_factors: List[float],
    gated_leak_fraction: float,
    default_activity: float,
    cores: List,
) -> Tuple[float, float, float]:
    """One epoch's (workload, test, leakage) from a ``verify.cores`` payload.

    Accumulates in ascending core-id order straight through the
    technology model — the reference full scan's float order — so the
    result is bit-comparable to the live meter.
    """
    workload = 0.0
    test = 0.0
    leakage = 0.0
    for core_id, entry in enumerate(cores):
        code, level_index, activity = entry
        vdd, f_mhz = vf_levels[level_index]
        ctype = core_types[core_id]
        if code in ("b", "t"):
            act = activity if activity is not None else default_activity
            dyn = tech_model.dynamic_power(node, ctype, vdd, f_mhz, act)
            if code == "b":
                workload += dyn
            else:
                test += dyn
        elif code not in ("i", "f"):
            raise ReplayError(
                f"unknown core state code {code!r} for core {core_id}"
            )
        if code == "f":
            leak = 0.0
        else:
            leak = (
                tech_model.leakage_power(node, ctype, vdd)
                * leak_factors[core_id]
            )
            if code == "i":
                leak = leak * gated_leak_fraction
        leakage += leak
    return workload, test, leakage


def replay_journal(source, tolerance_w: float = 1e-9) -> ReplayReport:
    """Re-simulate a journal's power/state stream and cross-check it.

    ``source`` is a JSONL path, a :class:`~repro.obs.journal.Journal`,
    or an event list.  Raises :class:`ReplayError` on malformed input;
    returns a :class:`ReplayReport` whose ``mismatches`` /
    ``transition_violations`` hold any disagreements found.
    """
    events = _load_events(source)
    report = ReplayReport()
    platform: Optional[Dict[str, object]] = None
    node = None
    pending_cores: Optional[Tuple[float, List]] = None
    legal_names = {
        (old.name, new.name) for old, new in LEGAL_TRANSITIONS
    }
    state_names = {state.name for state in CoreState}
    try:
        for event in events:
            if event.type == "verify.platform":
                data = event.data
                n_cores = int(data["width"]) * int(data["height"])
                # Degenerate journals carry no hetero keys: they replay
                # through the baseline model over all-std tiles.
                platform = {
                    "vf_levels": [
                        (float(vdd), float(f_mhz))
                        for vdd, f_mhz in data["vf_levels"]
                    ],
                    "leak_factors": [float(v) for v in data["leak_factors"]],
                    "gated_leak_fraction": float(data["gated_leak_fraction"]),
                    "default_activity": float(data["default_activity"]),
                    "n_cores": n_cores,
                    "tech_model": get_tech_model(
                        str(data.get("tech_model", DEFAULT_TECH_MODEL))
                    ),
                    "core_types": [
                        get_core_type(str(name))
                        for name in data.get(
                            "core_types", [DEFAULT_CORE_TYPE] * n_cores
                        )
                    ],
                }
                node = get_node(str(data["node"]))
            elif event.type == "verify.cores":
                if pending_cores is not None:
                    raise ReplayError(
                        f"verify.cores at t={event.time:g} before the "
                        f"t={pending_cores[0]:g} snapshot was consumed"
                    )
                pending_cores = (event.time, event.data["cores"])
            elif event.type == "verify.power":
                if platform is None or node is None:
                    raise ReplayError(
                        "verify.power before any verify.platform event"
                    )
                if pending_cores is None or pending_cores[0] != event.time:
                    raise ReplayError(
                        f"verify.power at t={event.time:g} has no matching "
                        "verify.cores snapshot"
                    )
                cores = pending_cores[1]
                pending_cores = None
                if len(cores) != platform["n_cores"]:
                    raise ReplayError(
                        f"snapshot at t={event.time:g} has {len(cores)} "
                        f"core(s), platform declared {platform['n_cores']}"
                    )
                replayed = _recompute(
                    node,
                    platform["tech_model"],
                    platform["core_types"],
                    platform["vf_levels"],
                    platform["leak_factors"],
                    platform["gated_leak_fraction"],
                    platform["default_activity"],
                    cores,
                )
                report.ticks_checked += 1
                for channel, value in zip(_CHANNELS, replayed):
                    recorded = float(event.data[channel])
                    error = abs(recorded - value)
                    report.max_abs_error_w = max(
                        report.max_abs_error_w, error
                    )
                    if error > tolerance_w:
                        report.mismatches.append(
                            {
                                "time": event.time,
                                "channel": channel,
                                "recorded_w": recorded,
                                "replayed_w": value,
                                "error_w": recorded - value,
                            }
                        )
                noc_w = float(event.data["noc_w"])
                if noc_w < -tolerance_w:
                    report.mismatches.append(
                        {
                            "time": event.time,
                            "channel": "noc_w",
                            "recorded_w": noc_w,
                            "replayed_w": 0.0,
                            "error_w": noc_w,
                        }
                    )
            elif event.type == "core.transition":
                old = str(event.data["from_state"])
                new = str(event.data["to_state"])
                if old not in state_names or new not in state_names:
                    raise ReplayError(
                        f"unknown core state in transition event: "
                        f"{old!r} -> {new!r}"
                    )
                report.transitions_checked += 1
                if (old, new) not in legal_names:
                    report.transition_violations.append(
                        {
                            "time": event.time,
                            "core": event.data.get("core"),
                            "from_state": old,
                            "to_state": new,
                        }
                    )
    except ReplayError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ReplayError(f"journal payload is malformed: {exc!r}") from exc
    if report.ticks_checked == 0:
        raise ReplayError(
            "journal carries no verify.cores/verify.power snapshots "
            "(was the run made with both --journal and --verify?)"
        )
    if pending_cores is not None:
        raise ReplayError(
            f"journal is truncated: verify.cores at t={pending_cores[0]:g} "
            "has no verify.power"
        )
    return report
