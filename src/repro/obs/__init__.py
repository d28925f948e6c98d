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

from repro._lazy import lazy_exports

_EXPORTS = {
    "DEBUG_TYPES": "journal",
    "LEVELS": "journal",
    "NULL_JOURNAL": "journal",
    "Journal": "journal",
    "JournalEvent": "journal",
    "Profile": "profile",
    "RunManifest": "provenance",
    "audit": "audit",
    "config_digest": "provenance",
    "digest_of": "provenance",
    "events_of": "journal",
    "experiment_provenance": "provenance",
    "result_digest": "provenance",
    "rows_digest": "provenance",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
