"""Append-only JSONL checkpoint store for campaign results.

Every completed point becomes one JSON line in ``results.jsonl``, keyed
by the point's config digest.  An append writes one or more lines with
one open and one flush, and usually one fsync: the records of a wave
the cache served go in one batch with one fsync, and a computed point
whose result the run cache already holds durably is appended without
one (the runner fsyncs the file once its wave ends), since any record
a crash loses the cache serves again.  A computed point with no cached
copy is appended alone and fsynced, so a crash loses at most the run
being checkpointed.  A crash mid-append leaves whole records plus at
most one torn final line; that line is ignored on load, then cut off
before the next append so that a resumed run never writes a record
onto it.  Records are plain JSON (no pickles): the report layer
recomputes every aggregate from them, which is what makes an
interrupted-then-resumed campaign byte-identical to an uninterrupted
one.

Failures get the same treatment in ``failures.jsonl``: one line per
failed attempt, with the digest, attempt number, error string and
whether the point was quarantined.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional

from repro.campaign.spec import CampaignPoint
from repro.core.config_io import config_to_dict
from repro.core.system import SimulationResult
from repro.obs.provenance import digest_of
from repro.telemetry.status import (  # noqa: F401  (the directory layout)
    FAILURES_FILE,
    MANIFEST_FILE,
    RESULTS_FILE,
    SPEC_FILE,
)

_RECORD_SCHEMA = 1


def record_from_result(
    point: CampaignPoint, result: SimulationResult
) -> Dict[str, object]:
    """Flatten one run into the JSON record the store keeps.

    The record carries everything the campaign report needs — scalar
    summary, per-fault lifecycle, per-level test counts — so reports
    never have to re-run or unpickle anything.
    """
    return {
        "schema": _RECORD_SCHEMA,
        "digest": point.digest,
        "cell": [[name, value] for name, value in point.cell],
        "seed": point.seed,
        "config": config_to_dict(point.config),
        "summary": result.summary(),
        "faults": [
            {
                "core": r.core_id,
                "injected_at": r.injected_at,
                "detected_at": r.detected_at,
                "manifest_level": r.manifest_level,
                "kind": r.kind,
            }
            for r in result.fault_records
        ],
        "per_level_tests": {
            str(level): count
            for level, count in sorted(result.per_level_tests.items())
        },
        "n_levels": point.config.n_vf_levels,
        "names": {
            "scheduler": result.scheduler_name,
            "mapper": result.mapper_name,
            "power": result.power_policy_name,
        },
    }


def record_line(record: Dict[str, object]) -> str:
    """Canonical serialized form of one record (sorted keys, one line)."""
    return json.dumps(record, sort_keys=True)


def aggregate_digest(records: Iterable[Dict[str, object]]) -> str:
    """Digest over the canonical lines of all records, sorted by point.

    Execution order (parallelism, retries, resume) must not matter, so
    the digest sorts by the point digest before hashing.
    """
    lines = sorted(
        (str(record.get("digest", "")), record_line(record))
        for record in records
    )
    return digest_of(line for _, line in lines)


class _JsonlFile:
    """One append-only JSONL file with durable, crash-safe appends."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._tail_checked = False
        self._unsynced = False

    def _append_lines(self, lines: Iterable[str], sync: bool = True) -> None:
        """Append each of ``lines`` plus a newline: one open, one fsync
        (none when ``sync`` is false; :meth:`sync` makes them durable).

        Nothing is written for no lines.  A crash mid-append leaves the
        lines before the cut whole and a final line with no newline.
        Before its first append, the store repairs such a torn tail (see
        :func:`_repair_torn_tail`); otherwise the next line would be
        glued onto the fragment, and that mid-file garbage would fail
        every later load.
        """
        text = "".join(line + "\n" for line in lines)
        if not text:
            return
        if not self._tail_checked:
            _repair_torn_tail(self.path)
            self._tail_checked = True
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            if sync:
                os.fsync(handle.fileno())
        self._unsynced = not sync

    def sync(self) -> None:
        """Fsync the lines appended without one, if there are any."""
        if self._unsynced:
            with open(self.path, "ab") as handle:
                os.fsync(handle.fileno())
            self._unsynced = False


def _repair_torn_tail(path: str) -> None:
    """End ``path`` with a newline, cutting off a torn final line.

    A final line that already parses is a whole record that lost only
    its newline (and ``load`` counts it), so it gets the newline back;
    any other fragment is truncated back to the last newline.
    """
    try:
        handle = open(path, "rb+")
    except FileNotFoundError:
        return
    with handle:
        size = handle.seek(0, os.SEEK_END)
        if size == 0:
            return
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        data = handle.read()
        cut = data.rfind(b"\n") + 1
        try:
            json.loads(data[cut:])
        except ValueError:
            handle.truncate(cut)
        else:
            handle.write(b"\n")
        handle.flush()
        os.fsync(handle.fileno())


class ResultStore(_JsonlFile):
    """The ``results.jsonl`` checkpoint file of one campaign directory."""

    def load(self) -> Dict[str, Dict[str, object]]:
        """All checkpointed records, keyed by point digest (first wins).

        Tolerates exactly one torn line at the end of the file — the
        signature of a crash mid-append.  Corruption anywhere else is an
        error: that is not a crash artefact, and silently dropping good
        results would break resume identity.
        """
        if not os.path.exists(self.path):
            return {}
        records: Dict[str, Dict[str, object]] = {}
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                if lineno == len(lines):
                    break  # torn final line from a crash mid-write
                raise ValueError(
                    f"{self.path}:{lineno}: corrupt record: {exc}"
                ) from exc
            digest = record.get("digest")
            if not isinstance(digest, str) or not digest:
                raise ValueError(
                    f"{self.path}:{lineno}: record has no digest"
                )
            records.setdefault(digest, record)
        return records

    def append(self, record: Dict[str, object], sync: bool = True) -> None:
        """Append one completed-point record, fsynced unless ``sync`` is
        false (then a later :meth:`sync` makes it durable)."""
        self._append_lines([record_line(record)], sync)

    def extend(self, records: Iterable[Dict[str, object]]) -> None:
        """Durably append ``records``, in order, with one fsync."""
        self._append_lines(record_line(record) for record in records)


class FailureLog(_JsonlFile):
    """The ``failures.jsonl`` attempt/quarantine log (append-only)."""

    def append(
        self,
        digest: str,
        seed: int,
        cell: Iterable[Iterable[object]],
        attempt: int,
        error: str,
        quarantined: bool,
    ) -> None:
        """Append one attempt failure (fsynced), marking quarantine."""
        entry = {
            "digest": digest,
            "seed": seed,
            "cell": [list(pair) for pair in cell],
            "attempt": attempt,
            "error": error,
            "quarantined": quarantined,
        }
        self._append_lines([json.dumps(entry, sort_keys=True)])

    def load(self) -> List[Dict[str, object]]:
        """All failure records, in append order."""
        if not os.path.exists(self.path):
            return []
        entries: List[Dict[str, object]] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                entries.append(json.loads(line))
            except ValueError:
                if lineno == len(lines):
                    break  # torn final line; attempts are best-effort data
                raise
        return entries

    def quarantined(
        self, completed: Optional[Dict[str, object]] = None
    ) -> List[Dict[str, object]]:
        """Quarantine entries whose point never completed afterwards.

        A later resume may have successfully rerun a quarantined point;
        passing the completed-records map filters those out.
        """
        done = set(completed or ())
        out: List[Dict[str, object]] = []
        seen = set()
        for entry in self.load():
            digest = entry.get("digest")
            if not entry.get("quarantined") or digest in done:
                continue
            if digest in seen:
                continue
            seen.add(digest)
            out.append(entry)
        return out
