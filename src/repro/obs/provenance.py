"""Run provenance: manifests that make a result self-describing.

A :class:`RunManifest` is attached to every ``SimulationResult`` (and,
as a plain dict, to every ``ExperimentResult``) so any archived result
answers: which code version produced it, from which config and seed,
with which digest over the computed numbers, and where the wall time
went.  Manifests are plain picklable dataclasses because results cross
process boundaries in ``repro.experiments.run_many``.

This module must stay import-light: it is imported by ``repro.core``
machinery, so it cannot import ``repro`` (version) or ``repro.core``
(config) itself — callers pass the version string in, and configs are
walked by duck typing (:func:`field_dict`).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

if TYPE_CHECKING:
    from repro.metrics.collectors import SimulationResult


def digest_of(parts: Iterable[object]) -> str:
    """sha256 hex digest over ``repr`` of each part.

    ``repr`` of a float round-trips its bit pattern, so digests over
    result rows detect any numeric drift.  This is the same construction
    the perf-kernel benchmark uses for its ``rows_digest``.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
    return h.hexdigest()


def rows_digest(rows: Iterable[object]) -> str:
    """Digest over an iterable of result rows (dicts, tuples, ...)."""
    return digest_of(rows)


#: Field value types :func:`field_dict` shares with the config as-is:
#: immutable, and equal by ``repr`` to the copy ``dataclasses.asdict``
#: would make.  Tuples must hold only the scalar ones.
_SCALAR_TYPES = frozenset({bool, int, float, str, type(None)})


def field_dict(config: object) -> Dict[str, object]:
    """The ``dataclasses.asdict`` dict of a config, from one field walk.

    Same keys, order and value reprs as ``asdict`` for the field types
    :class:`~repro.core.system.SystemConfig` has: scalars, tuples of
    scalars, and nested parameter dataclasses (which become dicts).
    Scalars and tuples are immutable, so they are shared with the
    config rather than deep-copied.  Any other field type raises
    ``TypeError``.
    """
    out: Dict[str, object] = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        kind = type(value)
        if kind not in _SCALAR_TYPES:
            if hasattr(kind, "__dataclass_fields__"):
                value = field_dict(value)
            elif kind is not tuple or not all(
                type(item) in _SCALAR_TYPES for item in value
            ):
                raise TypeError(
                    f"{type(config).__name__}.{f.name}: cannot walk a "
                    f"field of type {kind.__name__}"
                )
        out[f.name] = value
    return out


def config_digest(config: object) -> str:
    """Stable identity of a config dataclass (any one, by duck typing).

    Digest over the sorted :func:`field_dict` items, so two configs are
    identical iff every field (nested parameter blocks included)
    compares equal by ``repr`` — ``80`` and ``80.0`` differ.  This is
    the point identity used by the campaign checkpoint store, the run
    cache and sweep failure attribution.
    """
    return digest_of(sorted(field_dict(config).items()))


def seed_digests(config: object, seeds: Iterable[int]) -> List[str]:
    """``config_digest(dataclasses.replace(config, seed=s))`` per seed.

    Configs that differ only in ``seed`` share every other sorted item,
    so one field walk serves them all: the items before ``seed`` are
    hashed once, and each seed hashes its own item and the items after
    it, encoded once.  Byte-identical to the per-config digest (a
    campaign cell's points are keyed by it).
    """
    items = sorted(field_dict(config).items())
    at = [name for name, _ in items].index("seed")
    head = hashlib.sha256()
    for part in items[:at]:
        head.update(repr(part).encode("utf-8"))
    tail = "".join(repr(part) for part in items[at + 1:]).encode("utf-8")
    digests: List[str] = []
    for seed in seeds:
        h = head.copy()
        h.update(repr(("seed", seed)).encode("utf-8"))
        h.update(tail)
        digests.append(h.hexdigest())
    return digests


def result_digest(result: SimulationResult) -> str:
    """Stable digest over everything a run observably produced.

    Covers the scalar summary row, per-core busy/aging/test tallies,
    per-level test counts, NoC stats, event/abort/skip counters, policy
    names and the full fault-record list — everything except the run
    manifest's journal counts, which legitimately differ between two
    bit-identical runs.  Served-vs-direct identity and the frozen
    heterogeneity goldens are asserted on this digest.
    """
    faults = tuple(
        (r.core_id, r.injected_at, r.manifest_level, r.kind, r.detected_at)
        for r in result.fault_records
    )
    return digest_of(
        [
            sorted(result.summary().items()),
            sorted(result.per_core_busy_us.items()),
            sorted(result.per_core_age_stress.items()),
            sorted(result.per_core_tests.items()),
            sorted(result.per_level_tests.items()),
            result.noc_avg_hops,
            result.peak_temperature_c,
            result.events_fired,
            result.emergency_aborts,
            result.skipped_no_budget,
            result.scheduler_name,
            result.mapper_name,
            result.power_policy_name,
            faults,
        ]
    )


@dataclass
class RunManifest:
    """Provenance attached to a single simulation run."""

    version: str
    seed: int
    horizon_us: float
    config: Dict[str, object] = field(default_factory=dict)
    summary_digest: str = ""
    journal_events: int = 0
    journal_dropped: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form of the manifest."""
        return {
            "version": self.version,
            "seed": self.seed,
            "horizon_us": self.horizon_us,
            "config": self.config,
            "summary_digest": self.summary_digest,
            "journal_events": self.journal_events,
            "journal_dropped": self.journal_dropped,
        }


def experiment_provenance(
    experiment_id: str,
    version: str,
    rows: Iterable[object],
    kwargs: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Provenance dict for an ``ExperimentResult``."""
    return {
        "experiment_id": experiment_id,
        "version": version,
        "kwargs": dict(kwargs or {}),
        "rows_digest": rows_digest(rows),
    }
