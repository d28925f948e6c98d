"""Wire protocol of the simulation service: specs in, JSONL events out.

Requests are JSON documents; responses to submissions are **JSONL event
streams** — one compact JSON object per line, written as each point
completes, so a client watching a thousand-point sweep sees results
live instead of waiting for the slowest straggler.  The framing is
deliberately trivial (``\\n``-delimited, no length prefixes, no
continuation lines) so any language can consume it with a line reader.

Validation happens here, before anything touches a queue: a sweep
request is resolved into fully-materialized
:class:`~repro.core.system.SystemConfig` points (defaults < ``base`` <
per-point overrides < ``seeds`` cross-product), reusing the strict
``config_from_dict`` round-trip so unknown fields and illegal values
are rejected with the same errors a local caller would see.  Every
resolved point carries its :func:`~repro.obs.provenance.config_digest`
— the identity the engine dedupes, coalesces and caches on.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config_io import config_from_dict, config_to_dict
from repro.core.system import SystemConfig
from repro.obs.provenance import config_digest

__all__ = [
    "MAX_POINTS_PER_REQUEST",
    "PROTOCOL_SCHEMA",
    "CampaignRequest",
    "SpecError",
    "SweepPoint",
    "SweepRequest",
    "decode_line",
    "encode_line",
]

#: Protocol schema tag carried by every streamed event.
PROTOCOL_SCHEMA = "repro.serve/1"

#: Default per-request point ceiling (servers may lower it).
MAX_POINTS_PER_REQUEST = 4096

_TENANT_MAX_LEN = 64


class SpecError(ValueError):
    """A request document that fails validation (HTTP 400)."""


# ----------------------------------------------------------------------
# JSONL framing
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# Sweep requests
# ----------------------------------------------------------------------
def _validate_tenant(tenant: object) -> str:
    if not isinstance(tenant, str) or not tenant:
        raise SpecError("'tenant' must be a non-empty string")
    if len(tenant) > _TENANT_MAX_LEN:
        raise SpecError(
            f"'tenant' longer than {_TENANT_MAX_LEN} characters"
        )
    if not all(ch.isalnum() or ch in "-_." for ch in tenant):
        raise SpecError(
            "'tenant' may only contain alphanumerics, '-', '_' and '.'"
        )
    return tenant


#: Scalar field types we can check on an untrusted config document.
#: ``config_from_dict`` validates structure (unknown keys, nested
#: dataclasses) but not scalar types — fine for trusted local files,
#: not for network input that ends up inside a worker process.
_SCALAR_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: (
        isinstance(v, (int, float)) and not isinstance(v, bool)
    ),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
}


def _validate_config_types(config: SystemConfig) -> None:
    """Reject top-level scalar fields of the wrong JSON type."""
    for fld in dataclasses.fields(SystemConfig):
        type_name = (
            fld.type if isinstance(fld.type, str)
            else getattr(fld.type, "__name__", "")
        )
        check = _SCALAR_CHECKS.get(type_name)
        if check is None:
            continue
        value = getattr(config, fld.name)
        if not check(value):
            raise SpecError(
                f"field {fld.name!r} must be {type_name}, got {value!r}"
            )


@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved point of a sweep request."""

    index: int
    config: SystemConfig
    digest: str


@dataclass(frozen=True)
class SweepRequest:
    """A validated sweep submission: who is asking, and for what points."""

    tenant: str
    request_id: Optional[str]
    points: Tuple[SweepPoint, ...] = field(default=())

    _KNOWN_KEYS = frozenset(
        {"tenant", "request_id", "base", "points", "seeds"}
    )

    @classmethod
    def parse(
        cls,
        data: Dict[str, object],
        max_points: int = MAX_POINTS_PER_REQUEST,
    ) -> "SweepRequest":
        """Validate a request document into resolved config points.

        Layering, least to most specific: ``SystemConfig`` defaults,
        then the optional ``base`` object, then each entry of
        ``points`` (a list of partial-config objects; ``[{}]`` means
        "just the base"), then — when ``seeds`` is given — the
        cross-product of every point with every seed.  Raises
        :class:`SpecError` on unknown keys, illegal values, an empty
        point list, or more than ``max_points`` resolved points.
        """
        if not isinstance(data, dict):
            raise SpecError("request body must be a JSON object")
        unknown = set(data) - cls._KNOWN_KEYS
        if unknown:
            raise SpecError(f"unknown request keys: {sorted(unknown)}")
        tenant = _validate_tenant(data.get("tenant", "default"))
        request_id = data.get("request_id")
        if request_id is not None and (
            not isinstance(request_id, str) or len(request_id) > 128
        ):
            raise SpecError("'request_id' must be a string of <= 128 chars")
        base = data.get("base") or {}
        if not isinstance(base, dict):
            raise SpecError("'base' must be a JSON object")
        raw_points = data.get("points")
        if not isinstance(raw_points, list) or not raw_points:
            raise SpecError("'points' must be a non-empty JSON array")
        seeds = data.get("seeds")
        if seeds is not None:
            if (
                not isinstance(seeds, list)
                or not seeds
                or not all(
                    isinstance(s, int) and not isinstance(s, bool)
                    for s in seeds
                )
            ):
                raise SpecError("'seeds' must be a non-empty array of ints")
        n_resolved = len(raw_points) * (len(seeds) if seeds else 1)
        if n_resolved > max_points:
            raise SpecError(
                f"request resolves to {n_resolved} points, over the "
                f"per-request ceiling of {max_points}"
            )
        defaults = config_to_dict(SystemConfig())
        points: List[SweepPoint] = []
        for p_index, overrides in enumerate(raw_points):
            if not isinstance(overrides, dict):
                raise SpecError(
                    f"points[{p_index}] must be a JSON object of "
                    f"SystemConfig overrides"
                )
            merged = dict(defaults)
            merged.update(base)
            merged.update(overrides)
            for seed in seeds if seeds else (None,):
                if seed is not None:
                    merged_seeded = dict(merged)
                    merged_seeded["seed"] = seed
                else:
                    merged_seeded = merged
                try:
                    config = config_from_dict(merged_seeded)
                    _validate_config_types(config)
                except (TypeError, ValueError) as exc:
                    raise SpecError(
                        f"points[{p_index}]"
                        + (f" seed {seed}" if seed is not None else "")
                        + f": {exc}"
                    ) from exc
                points.append(
                    SweepPoint(
                        index=len(points),
                        config=config,
                        digest=config_digest(config),
                    )
                )
        return cls(
            tenant=tenant,
            request_id=request_id,
            points=tuple(points),
        )


# ----------------------------------------------------------------------
# Campaign requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignRequest:
    """A validated campaign submission (spec plus execution knobs)."""

    tenant: str
    spec: "object"  # repro.campaign.CampaignSpec (kept untyped: lazy import)
    jobs: Optional[int] = None

    _KNOWN_KEYS = frozenset({"tenant", "spec", "jobs"})

    @classmethod
    def parse(cls, data: Dict[str, object]) -> "CampaignRequest":
        """Validate a campaign document into a spec + execution options.

        The ``spec`` object is handed to
        :meth:`repro.campaign.CampaignSpec.from_dict`, so the server
        rejects exactly what the CLI would reject.  ``jobs`` overrides
        the server default for this campaign only.
        """
        from repro.campaign import CampaignSpec

        if not isinstance(data, dict):
            raise SpecError("request body must be a JSON object")
        unknown = set(data) - cls._KNOWN_KEYS
        if unknown:
            raise SpecError(f"unknown request keys: {sorted(unknown)}")
        tenant = _validate_tenant(data.get("tenant", "default"))
        spec_data = data.get("spec")
        if not isinstance(spec_data, dict):
            raise SpecError("'spec' must be a campaign spec JSON object")
        try:
            spec = CampaignSpec.from_dict(spec_data)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid campaign spec: {exc}") from exc
        jobs = data.get("jobs")
        if jobs is not None and (
            not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 0
        ):
            raise SpecError("'jobs' must be a non-negative integer")
        return cls(tenant=tenant, spec=spec, jobs=jobs)
