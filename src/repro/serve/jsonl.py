"""JSONL framing of the serve protocol: one compact JSON object per line.

Standard library only, so a client speaks the protocol without
importing the simulator.
"""

from __future__ import annotations

import json
from typing import Dict

__all__ = ["SpecError", "decode_line", "encode_line"]


class SpecError(ValueError):
    """A request document that fails validation (HTTP 400)."""


def encode_line(obj: Dict[str, object]) -> bytes:
    """One event dict -> one compact, key-sorted JSONL line (bytes).

    Compact separators keep frames small; sorted keys make streams
    deterministic so tests can pin byte-identical payloads.
    """
    return (
        json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


def decode_line(data: bytes) -> Dict[str, object]:
    """One JSONL line (bytes, with or without trailing newline) -> dict."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise SpecError(f"undecodable JSONL line: {exc}") from exc
    if not isinstance(obj, dict):
        raise SpecError("JSONL line must encode a JSON object")
    return obj
