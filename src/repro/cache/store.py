"""Content-addressed blob store with a durable JSONL index.

Layout of one store directory::

    <root>/index.jsonl      append-only op log (the index)
    <root>/blobs/ab/abcd…   blob files, named by the sha256 of their bytes
    <root>/tmp/             write-then-rename staging area (same filesystem)
    <root>/quarantine/      blobs that failed their integrity recheck

**Durability.**  Blob insertion is write → flush → fsync → atomic
``os.replace`` into ``blobs/``, so a crash never leaves a partial blob
under its final name.  Index mutations (``put``/``del``) are one
flushed+fsynced JSON line each; LRU ``touch`` lines are flushed but not
fsynced (losing recency hints in a crash is harmless).  The loader
tolerates a torn final line — the signature of a crash mid-append — and
self-heals from corruption anywhere else by replaying every parseable
line and compacting the log (a cache, unlike a checkpoint store, may
always drop entries safely).

**Integrity.**  ``get`` re-hashes the blob bytes and compares them with
the content address; a mismatch (bit rot, truncation, manual tampering)
moves the blob to ``quarantine/``, deletes the index entry, and reports
a miss so the caller transparently recomputes.

**Eviction.**  With ``max_bytes`` set, every insertion evicts
least-recently-used entries (by op sequence number: a ``get`` refreshes
recency) until the store fits.  Blob files are reference-counted across
entries, so deduplicated blobs survive until their last key is evicted.

The store is single-writer by design: on every path the *supervisor*
owns it and workers never touch it.  Concurrent read-only opens of one
directory are fine.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

INDEX_FILE = "index.jsonl"
BLOBS_DIR = "blobs"
TMP_DIR = "tmp"
QUARANTINE_DIR = "quarantine"

#: ``del`` op reasons kept in the index (and counted by ``stats``).
DEL_REASONS = ("evict", "corrupt", "gc", "clear", "explicit")


def blob_digest(data: bytes) -> str:
    """Content address of a blob: sha256 hex of its bytes."""
    return hashlib.sha256(data).hexdigest()


def blob_path(root: str, digest: str) -> str:
    """Path of a blob inside a store rooted at ``root``."""
    return os.path.join(root, BLOBS_DIR, digest[:2], digest)


def write_blob(root: str, data: bytes) -> Tuple[str, int]:
    """Atomically deposit ``data`` under its content address.

    Returns ``(digest, size)``.  The write goes to a temp file first
    and ``os.replace`` onto the content-addressed name is atomic, so a
    crash never leaves a partial blob under its final name and two
    writers of identical content converge on one file.  This touches
    only the blob area — never the index.
    """
    digest = blob_digest(data)
    final = blob_path(root, digest)
    if os.path.exists(final):
        return digest, len(data)
    tmp_dir = os.path.join(root, TMP_DIR)
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(os.path.dirname(final), exist_ok=True)
    tmp = os.path.join(tmp_dir, f"{digest}.{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)
    return digest, len(data)


@dataclass
class Entry:
    """One live index entry: a key bound to a content-addressed blob."""

    key: str
    blob: str
    size: int
    seq: int  # last-use sequence number (monotonic; drives LRU order)


class ContentStore:
    """The content-addressed store behind :class:`repro.cache.RunCache`."""

    def __init__(self, root: str, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.root = root
        self.max_bytes = max_bytes
        os.makedirs(os.path.join(root, BLOBS_DIR), exist_ok=True)
        os.makedirs(os.path.join(root, QUARANTINE_DIR), exist_ok=True)
        os.makedirs(os.path.join(root, TMP_DIR), exist_ok=True)
        self._entries: Dict[str, Entry] = {}
        self._seq = 0
        #: lifetime op counters replayed from the index (survive restarts)
        self.counters: Dict[str, int] = {
            "puts": 0,
            "touches": 0,
            "evictions": 0,
            "corrupt": 0,
            "deleted": 0,
        }
        self._index_handle = None
        self._load_index()

    # ------------------------------------------------------------------
    # Index log
    # ------------------------------------------------------------------
    @property
    def index_path(self) -> str:
        """Path of the store's ``index.jsonl`` op log."""
        return os.path.join(self.root, INDEX_FILE)

    def _replay(self, op: Dict[str, object]) -> None:
        kind = op.get("op")
        key = op.get("key")
        seq = int(op.get("seq", 0))
        self._seq = max(self._seq, seq)
        if kind == "put" and isinstance(key, str):
            self._entries[key] = Entry(
                key=key,
                blob=str(op.get("blob", "")),
                size=int(op.get("size", 0)),
                seq=seq,
            )
            self.counters["puts"] += 1
        elif kind == "touch" and isinstance(key, str):
            entry = self._entries.get(key)
            if entry is not None:
                entry.seq = seq
            self.counters["touches"] += 1
        elif kind == "del" and isinstance(key, str):
            self._entries.pop(key, None)
            reason = op.get("reason")
            if reason == "evict":
                self.counters["evictions"] += 1
            elif reason == "corrupt":
                self.counters["corrupt"] += 1
            self.counters["deleted"] += 1

    def _load_index(self) -> None:
        """Replay the op log; self-heal a corrupt one by compaction.

        A torn final line is the normal crash artefact and is silently
        dropped.  Corruption elsewhere still only costs the unparseable
        lines: every valid op is replayed and the log is immediately
        rewritten in compacted form.
        """
        path = self.index_path
        if not os.path.exists(path):
            return
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        bad_mid_file = False
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                op = json.loads(line)
            except ValueError:
                if lineno != len(lines):
                    bad_mid_file = True
                continue
            if not isinstance(op, dict):
                bad_mid_file = bad_mid_file or lineno != len(lines)
                continue
            self._replay(op)
        if bad_mid_file:
            self.compact()

    def _append(self, op: Dict[str, object], sync: bool) -> None:
        if self._index_handle is None or self._index_handle.closed:
            self._index_handle = open(
                self.index_path, "a", encoding="utf-8"
            )
        handle = self._index_handle
        handle.write(json.dumps(op, sort_keys=True))
        handle.write("\n")
        handle.flush()
        if sync:
            os.fsync(handle.fileno())

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def compact(self) -> None:
        """Atomically rewrite the op log to just the live entries.

        Preserves relative LRU order (entries are re-emitted oldest
        first with fresh consecutive sequence numbers).  Lifetime
        counters live in memory only across a compaction; the log is a
        cache artefact, not an audit trail.
        """
        if self._index_handle is not None and not self._index_handle.closed:
            self._index_handle.close()
        self._index_handle = None
        tmp = os.path.join(self.root, TMP_DIR, f"index.{os.getpid()}")
        ordered = sorted(self._entries.values(), key=lambda e: e.seq)
        self._seq = 0
        with open(tmp, "w", encoding="utf-8") as handle:
            for entry in ordered:
                entry.seq = self._next_seq()
                handle.write(
                    json.dumps(
                        {
                            "op": "put",
                            "key": entry.key,
                            "blob": entry.blob,
                            "size": entry.size,
                            "seq": entry.seq,
                        },
                        sort_keys=True,
                    )
                )
                handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.index_path)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def get(self, key: str) -> Tuple[str, Optional[bytes]]:
        """Look a key up; returns ``(status, data)``.

        ``status`` is ``"hit"`` (data returned, recency refreshed),
        ``"miss"`` (unknown key) or ``"corrupt"`` (the blob failed its
        digest recheck or vanished; it has been quarantined and the
        entry deleted — callers treat this as a miss and recompute).
        """
        entry = self._entries.get(key)
        if entry is None:
            return "miss", None
        path = blob_path(self.root, entry.blob)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self._quarantine(entry)
            return "corrupt", None
        if blob_digest(data) != entry.blob:
            self._quarantine(entry)
            return "corrupt", None
        entry.seq = self._next_seq()
        self._append(
            {"op": "touch", "key": key, "seq": entry.seq}, sync=False
        )
        self.counters["touches"] += 1
        return "hit", data

    def put(self, key: str, data: bytes) -> Tuple[str, List[str]]:
        """Insert (or overwrite) a key; returns ``(blob_digest, evicted)``.

        The blob lands atomically under its content address before the
        index line is fsynced, so a crash between the two leaves only an
        orphan blob (reclaimed by :meth:`gc`), never a dangling entry.
        """
        digest, size = write_blob(self.root, data)
        seq = self._next_seq()
        self._append(
            {"op": "put", "key": key, "blob": digest, "size": size,
             "seq": seq},
            sync=True,
        )
        self._entries[key] = Entry(key=key, blob=digest, size=size, seq=seq)
        self.counters["puts"] += 1
        return digest, self._evict_over_cap()

    def delete(self, key: str, reason: str = "explicit") -> bool:
        """Remove one entry (and its blob, if unshared)."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        self._delete_entry(entry, reason)
        return True

    # ------------------------------------------------------------------
    # Eviction / integrity / maintenance
    # ------------------------------------------------------------------
    def _refcount(self, digest: str) -> int:
        return sum(1 for e in self._entries.values() if e.blob == digest)

    def _delete_entry(self, entry: Entry, reason: str) -> None:
        self._append(
            {"op": "del", "key": entry.key, "reason": reason,
             "seq": self._next_seq()},
            sync=True,
        )
        self._entries.pop(entry.key, None)
        self.counters["deleted"] += 1
        if reason == "evict":
            self.counters["evictions"] += 1
        elif reason == "corrupt":
            self.counters["corrupt"] += 1
        if self._refcount(entry.blob) == 0:
            try:
                os.remove(blob_path(self.root, entry.blob))
            except OSError:
                pass

    def _quarantine(self, entry: Entry) -> None:
        """Move a failed blob aside and drop its entry (a "corrupt" del)."""
        src = blob_path(self.root, entry.blob)
        dst = os.path.join(self.root, QUARANTINE_DIR, entry.blob)
        try:
            os.replace(src, dst)
        except OSError:
            pass  # blob already gone; the del below still heals the index
        self._append(
            {"op": "del", "key": entry.key, "reason": "corrupt",
             "seq": self._next_seq()},
            sync=True,
        )
        self._entries.pop(entry.key, None)
        self.counters["corrupt"] += 1
        self.counters["deleted"] += 1

    def _evict_over_cap(
        self, max_bytes: Optional[int] = None
    ) -> List[str]:
        """Evict LRU entries until the store fits; returns evicted keys.

        The newest entry is never evicted on behalf of itself: a single
        blob larger than the cap stays (evicting it would make the
        cache permanently useless for that workload).
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap is None:
            return []
        evicted: List[str] = []
        while self.total_bytes() > cap and len(self._entries) > 1:
            victim = min(self._entries.values(), key=lambda e: e.seq)
            evicted.append(victim.key)
            self._delete_entry(victim, "evict")
        return evicted

    def verify(self) -> Dict[str, object]:
        """Re-hash every blob; quarantine failures.

        Returns ``{"checked": n, "ok": n, "corrupt": [keys...]}``.
        """
        corrupt: List[str] = []
        for entry in list(self._entries.values()):
            path = blob_path(self.root, entry.blob)
            try:
                with open(path, "rb") as handle:
                    ok = blob_digest(handle.read()) == entry.blob
            except OSError:
                ok = False
            if not ok:
                corrupt.append(entry.key)
                self._quarantine(entry)
        checked = len(corrupt) + len(self._entries)
        return {
            "checked": checked,
            "ok": checked - len(corrupt),
            "corrupt": corrupt,
        }

    def gc(self, max_bytes: Optional[int] = None) -> Dict[str, object]:
        """Evict to a size cap, drop orphan blobs/temp files, compact.

        ``max_bytes`` overrides the configured cap for this collection
        only (``None`` keeps the configured cap, which may also be
        ``None`` — then only orphans and the log are collected).
        """
        evicted = self._evict_over_cap(
            self.max_bytes if max_bytes is None else max_bytes
        )
        live = {entry.blob for entry in self._entries.values()}
        orphans = 0
        blobs_root = os.path.join(self.root, BLOBS_DIR)
        for dirpath, _dirnames, filenames in os.walk(blobs_root):
            for name in filenames:
                if name not in live:
                    try:
                        os.remove(os.path.join(dirpath, name))
                        orphans += 1
                    except OSError:
                        pass
        tmp_root = os.path.join(self.root, TMP_DIR)
        for name in os.listdir(tmp_root):
            try:
                os.remove(os.path.join(tmp_root, name))
            except OSError:
                pass
        self.compact()
        return {
            "evicted": evicted,
            "orphan_blobs_removed": orphans,
            "entries": len(self._entries),
            "bytes": self.total_bytes(),
        }

    def clear(self) -> int:
        """Delete every entry and blob; returns how many entries died."""
        n = len(self._entries)
        for entry in list(self._entries.values()):
            self._delete_entry(entry, "clear")
        self.gc()
        return n

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> List[str]:
        """Live keys, least recently used first."""
        return [
            e.key
            for e in sorted(self._entries.values(), key=lambda e: e.seq)
        ]

    def total_bytes(self) -> int:
        """Sum of live entry sizes (shared blobs counted once per key)."""
        return sum(entry.size for entry in self._entries.values())

    def stats(self) -> Dict[str, object]:
        """Store-level stats: live state plus lifetime op counters."""
        return {
            "entries": len(self._entries),
            "bytes": self.total_bytes(),
            "max_bytes": self.max_bytes,
            **self.counters,
        }

    def close(self) -> None:
        """Close the index handle (the store stays usable; it reopens)."""
        if self._index_handle is not None and not self._index_handle.closed:
            self._index_handle.close()
        self._index_handle = None
