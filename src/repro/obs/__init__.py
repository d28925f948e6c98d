"""Structured run observability: journal, audit, profile, provenance.

The journal is off by default and obeys the no-op-sink invariant:
instrumentation sites default to the disabled :data:`NULL_JOURNAL`
singleton and cost one attribute read when it is off.  Turn it on by
passing ``journal=`` to ``ManycoreSystem`` / ``run_system`` (what
``repro run --journal`` does), or install a process-wide default with
:func:`configure`.  The default does not propagate to ``run_many``
worker processes, so journaled sweeps should use the serial path
(``jobs=1``).

:class:`Profile` needs no instrumentation site at all: it profiles a
``with`` block from outside (``repro run --profile`` wraps the whole
command in one).  Enabling either must never change what a run
computes — journaling and profiling are strictly read-only.
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
from repro.obs.profile import Profile
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
    "SAMPLED_TYPES",
    "Journal",
    "JournalEvent",
    "Profile",
    "RunManifest",
    "active_journal",
    "audit",
    "config_digest",
    "configure",
    "digest_of",
    "events_of",
    "experiment_provenance",
    "result_digest",
    "rows_digest",
]

_active_journal: Journal = NULL_JOURNAL


def configure(journal: Optional[Journal] = None) -> None:
    """Install the process-wide default journal (``None`` disables it)."""
    global _active_journal
    _active_journal = journal if journal is not None else NULL_JOURNAL


def active_journal() -> Journal:
    """The process-wide default journal (NULL_JOURNAL unless configured)."""
    return _active_journal
