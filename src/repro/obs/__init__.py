"""Structured run observability: journal, audit, profiler, provenance.

The subsystem is off by default and obeys the no-op-sink invariant:
instrumentation sites default to the disabled :data:`NULL_JOURNAL` /
:data:`NULL_PROFILER` singletons and cost one attribute read when
observability is off.  Enabling it must never change what a run
computes — journaling and profiling are strictly read-only.

Two ways to turn it on:

* pass ``journal=`` / ``profiler=`` explicitly to ``ManycoreSystem`` /
  ``run_system`` (preferred; no global state), or
* install process-wide defaults with :func:`configure` — used by the CLI
  flags (``--journal``, ``--profile``) and the ``@profiled`` decorator.

Note the globals do not propagate to ``run_many`` worker processes;
journaled runs should use the serial path (``jobs=1``).
"""

from __future__ import annotations

from typing import Optional

from repro.obs import audit
from repro.obs.journal import (
    DEBUG_TYPES,
    LEVELS,
    NULL_JOURNAL,
    SAMPLED_TYPES,
    Journal,
    JournalEvent,
    events_of,
)
from repro.obs.profiler import NULL_PROFILER, PhaseProfiler, profiled
from repro.obs.provenance import (
    RunManifest,
    config_digest,
    digest_of,
    experiment_provenance,
    result_digest,
    rows_digest,
)

__all__ = [
    "DEBUG_TYPES",
    "LEVELS",
    "NULL_JOURNAL",
    "NULL_PROFILER",
    "SAMPLED_TYPES",
    "Journal",
    "JournalEvent",
    "PhaseProfiler",
    "RunManifest",
    "active_journal",
    "active_profiler",
    "audit",
    "config_digest",
    "configure",
    "digest_of",
    "events_of",
    "experiment_provenance",
    "profiled",
    "result_digest",
    "rows_digest",
]

_active_journal: Journal = NULL_JOURNAL
_active_profiler: PhaseProfiler = NULL_PROFILER


def configure(
    journal: Optional[Journal] = None,
    profiler: Optional[PhaseProfiler] = None,
) -> None:
    """Install process-wide default sinks (``None`` resets to disabled)."""
    global _active_journal, _active_profiler
    _active_journal = journal if journal is not None else NULL_JOURNAL
    _active_profiler = profiler if profiler is not None else NULL_PROFILER


def active_journal() -> Journal:
    """The process-wide default journal (NULL_JOURNAL unless configured)."""
    return _active_journal


def active_profiler() -> PhaseProfiler:
    """The process-wide default profiler (NULL_PROFILER unless configured)."""
    return _active_profiler
