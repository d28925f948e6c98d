"""Structured run observability: journal, audit, profile, provenance.

The journal is off by default and obeys the no-op-sink invariant:
instrumentation sites default to the disabled :data:`NULL_JOURNAL`
singleton and cost one attribute read when it is off.  Turn it on by
passing ``journal=`` to ``ManycoreSystem`` / ``run_system`` (what
``repro run --journal`` does); a journal records only the run it was
handed.

:class:`Profile` needs no instrumentation site at all: it profiles a
``with`` block from outside (``repro run --profile`` wraps the whole
command in one).  Enabling either must never change what a run
computes — journaling and profiling are strictly read-only.  How this
package, ``repro.metrics`` and ``repro.telemetry`` split the work:
``docs/observability.md``.
"""

from __future__ import annotations

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
    "audit",
    "config_digest",
    "digest_of",
    "events_of",
    "experiment_provenance",
    "result_digest",
    "rows_digest",
]

