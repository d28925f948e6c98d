"""Prometheus text exposition, and the atomic file write every export uses.

:func:`prometheus_text` is a pure function of a registry snapshot (the
plain-dict form from ``MetricsRegistry.snapshot()``), so it can run
in-process or over a snapshot loaded from disk.  Files are written with
the same tmp → fsync → rename dance the checkpoint store uses, so a
reader never sees a torn file.
"""

from __future__ import annotations

import os
import tempfile
from typing import List, Mapping

__all__ = ["atomic_write_text", "prometheus_text"]


def _sanitize(name: str) -> str:
    """Dotted metric name → Prometheus-legal identifier."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    ident = "".join(out)
    if ident and ident[0].isdigit():
        ident = "_" + ident
    return ident


def _fmt(value: object) -> str:
    """Prometheus sample value formatting (ints without trailing .0)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def prometheus_text(snapshot: Mapping[str, object], prefix: str = "repro") -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Counters become ``<prefix>_<name>_total``; gauges expose their last
    value plus ``_min``/``_max`` companions; histograms expose the
    standard cumulative ``_bucket{le="..."}`` series with ``+Inf`` and a
    ``_count``.  Output is deterministic: snapshot keys are already
    sorted and no timestamps are attached.
    """
    lines: List[str] = []

    for name, value in snapshot.get("counters", {}).items():  # type: ignore[union-attr]
        ident = f"{prefix}_{_sanitize(name)}_total"
        lines.append(f"# TYPE {ident} counter")
        lines.append(f"{ident} {_fmt(value)}")

    for name, data in snapshot.get("gauges", {}).items():  # type: ignore[union-attr]
        ident = f"{prefix}_{_sanitize(name)}"
        lines.append(f"# TYPE {ident} gauge")
        last = data.get("last")
        if last is not None:
            lines.append(f"{ident} {_fmt(last)}")
        lines.append(f"{ident}_min {_fmt(data['min'])}")
        lines.append(f"{ident}_max {_fmt(data['max'])}")
        lines.append(f"{ident}_count {_fmt(data['count'])}")

    for name, data in snapshot.get("histograms", {}).items():  # type: ignore[union-attr]
        ident = f"{prefix}_{_sanitize(name)}"
        lines.append(f"# TYPE {ident} histogram")
        cumulative = 0
        for bound, count in zip(data["bounds"], data["counts"]):
            cumulative += count
            lines.append(f'{ident}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
        lines.append(f'{ident}_bucket{{le="+Inf"}} {data["count"]}')
        lines.append(f"{ident}_count {_fmt(data['count'])}")

    return "\n".join(lines) + ("\n" if lines else "")


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp file → fsync → rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".export")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
