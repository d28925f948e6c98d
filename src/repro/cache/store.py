"""Append-only pack file: the store behind the run cache.

A store directory holds one file, ``<root>/cache.pack``: every op in
order, each a JSON header line with the fields ``op`` (``put``,
``touch`` or ``del``), ``key``, ``seq`` and, for a put, ``blob`` (the
sha256 of the bytes) and ``size``, or for a del its ``reason``.  A put
header is followed by exactly ``size`` bytes and a newline.

**Durability.**  A put is one ``os.write`` of header, bytes and newline
to an ``O_APPEND`` descriptor, then one fsync.  A ``del`` is fsynced
too; an LRU ``touch`` is only written (losing recency hints in a crash
is harmless).  A crash mid-write leaves a torn final record (a partial
header, short data or no final newline): loading ignores it, and the
next writing process cuts it off before its first append.  A process
that only reads never truncates the pack.  An unparseable header line
mid-file costs only itself: the loader resumes at the next newline,
and the next write compacts the pack (a cache, unlike a checkpoint
store, may always drop entries).

**Integrity.**  ``get`` re-hashes the bytes it reads against the
header's ``blob``; a short read or a mismatch (bit rot, truncation,
tampering) appends a ``corrupt`` del and reports a miss, so the caller
transparently recomputes.

**Space.**  With ``max_bytes`` set, every put evicts least-recently-used
entries (by op sequence number: a hit refreshes recency) until the
store fits.  Deleted, evicted and replaced records and the touch and
del lines are dead bytes; when a put leaves more of them than live
ones, the pack is compacted, so a capped store stays within about twice
its cap on disk.

One process writes a directory at a time.  Within it one lock
serializes the store's operations, so threads may share it (``repro
serve`` does).  A second writer can lose entries, but no process is
ever served bytes that fail their digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro._sum import lsum

PACK_FILE = "cache.pack"

#: What a store directory of the earlier blob-per-file layout held;
#: ``gc`` and ``clear`` delete them.
LEGACY_INDEX = "index.jsonl"
LEGACY_DIRS = ("blobs", "tmp", "quarantine")


def blob_digest(data: bytes) -> str:
    """Digest of a blob: sha256 hex of its bytes."""
    return hashlib.sha256(data).hexdigest()


def _line(op: Dict[str, object]) -> bytes:
    return json.dumps(op, sort_keys=True).encode("utf-8") + b"\n"


def _header(line: bytes) -> Optional[Dict[str, object]]:
    """The op a header line holds, or ``None`` for a damaged line."""
    try:
        op = json.loads(line)
    except ValueError:
        return None
    if not (
        isinstance(op, dict)
        and isinstance(op.get("key"), str)
        and isinstance(op.get("seq"), int)
    ):
        return None
    if op.get("op") == "put" and not (
        isinstance(op.get("blob"), str)
        and isinstance(op.get("size"), int)
        and op["size"] >= 0
    ):
        return None
    return op


def _layout_bytes(root: str) -> int:
    """Bytes on disk of the pack and of any earlier layout in ``root``."""
    paths = [os.path.join(root, name) for name in (PACK_FILE, LEGACY_INDEX)]
    for name in LEGACY_DIRS:
        for dirpath, _dirnames, names in os.walk(os.path.join(root, name)):
            paths.extend(os.path.join(dirpath, n) for n in names)
    return lsum(os.path.getsize(p) for p in paths if os.path.isfile(p))


@dataclass
class Entry:
    """One live entry: a key bound to a blob stored in the pack."""

    key: str
    blob: str
    size: int
    seq: int  # last-use sequence number (monotonic; drives LRU order)
    offset: int  # where the blob's bytes start in the pack
    span: int  # bytes of the whole put record: header, blob, newline


class ContentStore:
    """The pack-file store behind :class:`repro.cache.RunCache`."""

    def __init__(self, root: str, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.root = root
        self.max_bytes = max_bytes
        self.path = os.path.join(root, PACK_FILE)
        os.makedirs(root, exist_ok=True)
        self._entries: Dict[str, Entry] = {}
        self._seq = 0
        #: lifetime op counters replayed from the pack (survive restarts)
        self.counters: Dict[str, int] = {
            "puts": 0,
            "touches": 0,
            "evictions": 0,
            "corrupt": 0,
            "deleted": 0,
        }
        self._lock = threading.RLock()
        self._handle = None
        self._end = 0  # length of the pack's whole records
        self._live = 0  # bytes of the live entries' put records
        self._repair: Optional[str] = None  # "cut" or "compact" pending
        self._load()

    # ------------------------------------------------------------------
    # The pack
    # ------------------------------------------------------------------
    def _replay(self, op: Dict[str, object], offset: int, span: int) -> None:
        """Apply one op whose record spans ``span`` bytes, its blob (if
        any) starting at ``offset``."""
        kind, key, seq = op.get("op"), op["key"], op["seq"]
        self._seq = max(self._seq, seq)
        if kind in ("put", "del") and key in self._entries:
            self._live -= self._entries.pop(key).span
        if kind == "put":
            self._entries[key] = Entry(
                key, op["blob"], op["size"], seq, offset, span
            )
            self._live += span
            self.counters["puts"] += 1
        elif kind == "touch":
            entry = self._entries.get(key)
            if entry is not None:
                entry.seq = seq
            self.counters["touches"] += 1
        elif kind == "del":
            self.counters["deleted"] += 1
            if op.get("reason") == "evict":
                self.counters["evictions"] += 1
            elif op.get("reason") == "corrupt":
                self.counters["corrupt"] += 1

    def _load(self) -> None:
        """Replay the headers, seeking over the blob bytes.

        A torn final record is left out of ``_end``, for the first write
        to cut off; a damaged header mid-file is skipped up to the next
        newline, and the first write compacts the pack.
        """
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return
        with handle:
            size = os.fstat(handle.fileno()).st_size
            pos = 0
            while pos < size:
                line = handle.readline()
                if not line.endswith(b"\n"):
                    break  # torn header
                start, pos = pos, pos + len(line)
                op = _header(line)
                if op is None:
                    self._repair = "compact"
                    continue
                if op.get("op") == "put":
                    end = pos + op["size"] + 1
                    if end > size:
                        break  # short blob or missing newline: torn
                    handle.seek(end - 1)
                    if handle.read(1) != b"\n":
                        self._repair = "compact"
                        handle.seek(pos)
                        continue
                    pos = end
                self._replay(op, start + len(line), pos - start)
                self._end = pos
        if self._end < size and self._repair is None:
            self._repair = "cut"

    def _fd(self) -> int:
        if self._handle is None:
            self._handle = open(self.path, "a+b", buffering=0)
        return self._handle.fileno()

    def _write(
        self, op: Dict[str, object], sync: bool, blob: Optional[bytes] = None
    ) -> None:
        """Append ``op`` (and a put's ``blob``) with one write, then apply it.

        Before the process's first write a torn tail is cut off, or a
        damaged pack compacted, so that no record lands on a fragment.
        """
        if self._repair == "compact":
            self.compact()
        elif self._repair == "cut":
            os.truncate(self.path, self._end)
            self._repair = None
        self._seq += 1
        op["seq"] = self._seq
        head = _line(op)
        record = head if blob is None else head + blob + b"\n"
        fd = self._fd()
        if os.write(fd, record) != len(record):
            self._repair = "cut"  # a full disk: cut the fragment off next
            raise OSError(f"short write to {self.path}")
        if sync:
            os.fsync(fd)
        self._end = os.lseek(fd, 0, os.SEEK_CUR)
        self._replay(op, self._end - len(record) + len(head), len(record))

    def _read(self, entry: Entry) -> Optional[bytes]:
        """The entry's bytes, or ``None`` when short or not its blob."""
        data = os.pread(self._fd(), entry.size, entry.offset)
        return data if blob_digest(data) == entry.blob else None

    def compact(self) -> None:
        """Atomically rewrite the pack to just the live entries.

        Preserves relative LRU order (entries are re-emitted oldest
        first with fresh consecutive sequence numbers).  Lifetime
        counters live in memory only across a compaction; the pack is a
        cache, not an audit trail.
        """
        with self._lock:
            tmp = self.path + ".tmp"
            ordered = sorted(self._entries.values(), key=lambda e: e.seq)
            placed = []
            pos = 0
            with open(tmp, "wb") as out:
                for seq, entry in enumerate(ordered, start=1):
                    data = os.pread(self._fd(), entry.size, entry.offset)
                    head = _line({"op": "put", "key": entry.key,
                                  "blob": entry.blob, "size": len(data),
                                  "seq": seq})
                    out.write(head + data + b"\n")
                    span = len(head) + len(data) + 1
                    placed.append(
                        (entry, seq, pos + len(head), len(data), span)
                    )
                    pos += span
                out.flush()
                os.fsync(out.fileno())
            os.replace(tmp, self.path)
            self.close()
            for entry, seq, offset, size, span in placed:
                entry.seq, entry.offset, entry.size, entry.span = (
                    seq, offset, size, span
                )
            self._seq = len(placed)
            self._end = self._live = pos
            self._repair = None

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def get(self, key: str) -> Tuple[str, Optional[bytes]]:
        """Look a key up; returns ``(status, data)``.

        ``status`` is ``"hit"`` (data returned, recency refreshed),
        ``"miss"`` (unknown key) or ``"corrupt"`` (the bytes were short
        or failed their digest; the entry has been deleted — callers
        treat this as a miss and recompute).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return "miss", None
            data = self._read(entry)
            if data is None:
                self.delete(key, "corrupt")
                return "corrupt", None
            self._write({"op": "touch", "key": key}, sync=False)
            return "hit", data

    def put(self, key: str, data: bytes) -> Tuple[str, List[str]]:
        """Insert (or overwrite) a key; returns ``(blob_digest, evicted)``.

        Header, bytes and newline land with one write and one fsync, so
        a crash leaves the put whole or a torn tail that the next writer
        cuts off, never an entry without its bytes.
        """
        digest = blob_digest(data)
        with self._lock:
            self._write(
                {"op": "put", "key": key, "blob": digest, "size": len(data)},
                sync=True,
                blob=data,
            )
            evicted = self._evict_over_cap()
            if self._end - self._live > self._live:
                self.compact()
            return digest, evicted

    def delete(self, key: str, reason: str = "explicit") -> bool:
        """Remove one entry (a fsynced ``del``)."""
        with self._lock:
            if key not in self._entries:
                return False
            self._write({"op": "del", "key": key, "reason": reason}, True)
            return True

    # ------------------------------------------------------------------
    # Eviction / integrity / maintenance
    # ------------------------------------------------------------------
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
            self.delete(victim.key, "evict")
        return evicted

    def verify(self) -> Dict[str, object]:
        """Re-hash every entry's bytes; delete failures as corrupt.

        Returns ``{"checked": n, "ok": n, "corrupt": [keys...]}``.
        """
        with self._lock:
            corrupt: List[str] = []
            for entry in list(self._entries.values()):
                if self._read(entry) is None:
                    corrupt.append(entry.key)
                    self.delete(entry.key, "corrupt")
            checked = len(corrupt) + len(self._entries)
            return {
                "checked": checked,
                "ok": checked - len(corrupt),
                "corrupt": corrupt,
            }

    def gc(self, max_bytes: Optional[int] = None) -> Dict[str, object]:
        """Evict to a size cap, compact, delete an earlier layout.

        ``max_bytes`` overrides the configured cap for this collection
        only (``None`` keeps the configured cap, which may also be
        ``None`` — then the pack is only compacted).
        """
        with self._lock:
            before = _layout_bytes(self.root)
            evicted = self._evict_over_cap(
                self.max_bytes if max_bytes is None else max_bytes
            )
            self.compact()
            for name in LEGACY_DIRS:
                shutil.rmtree(os.path.join(self.root, name),
                              ignore_errors=True)
            legacy_index = os.path.join(self.root, LEGACY_INDEX)
            if os.path.exists(legacy_index):
                os.remove(legacy_index)
            return {
                "evicted": evicted,
                "reclaimed_bytes": before - _layout_bytes(self.root),
                "entries": len(self._entries),
                "bytes": self.total_bytes(),
            }

    def clear(self) -> int:
        """Delete every entry; returns how many entries died."""
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
            self.counters["deleted"] += n
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
        with self._lock:
            ordered = sorted(self._entries.values(), key=lambda e: e.seq)
            return [e.key for e in ordered]

    def total_bytes(self) -> int:
        """Sum of live entry sizes."""
        with self._lock:
            return lsum(entry.size for entry in self._entries.values())

    def stats(self) -> Dict[str, object]:
        """Store-level stats: live state plus lifetime op counters."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.total_bytes(),
                "max_bytes": self.max_bytes,
                **self.counters,
            }

    def close(self) -> None:
        """Close the pack descriptor (the store stays usable; it reopens)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
            self._handle = None
