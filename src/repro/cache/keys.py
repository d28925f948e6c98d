"""Cache-key derivation: what makes two runs "the same run".

A simulation is a pure function of its
:class:`~repro.core.system.SystemConfig` (every random draw flows from
``config.seed``), so the cache key of a run is a digest over

* the config's content digest
  (:func:`repro.obs.provenance.config_digest` — every field, nested
  parameter blocks included), which the caller derives once per point
  and passes in, and
* a **code-version salt**: the package version plus a cache schema
  number, so upgrading the simulator (which may legitimately change
  what a config computes) or the blob format silently invalidates every
  old entry instead of serving stale numbers.

Keys are plain sha256 hex strings; the blob a key points at is stored
with the digest of its own bytes, so key integrity and blob integrity
are verified independently.
"""

from __future__ import annotations

import hashlib
import os

#: Bump when the blob format (pickled ``SimulationResult``) or the key
#: derivation changes incompatibly: old entries become unreachable
#: instead of mis-deserialised.  Schema 2: a result's metrics, manifest
#: and config ride as one nested, lazily decoded pickle.
CACHE_SCHEMA = 2

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def code_version() -> str:
    """The running package version (imported lazily to avoid cycles)."""
    import repro

    return getattr(repro, "__version__", "0")


def default_salt(extra: str = "") -> str:
    """The default code-version salt: ``<version>/s<schema>[/<extra>]``.

    ``extra`` lets callers partition the cache further (for example per
    experiment family) without touching the key derivation.
    """
    salt = f"{code_version()}/s{CACHE_SCHEMA}"
    return f"{salt}/{extra}" if extra else salt


def run_key(digest: str, salt: str) -> str:
    """Cache key of one run: sha256 over the salted config digest.

    ``digest`` is :func:`repro.obs.provenance.config_digest` of the
    run's config.
    """
    h = hashlib.sha256()
    h.update(b"repro.cache.run\x00")
    h.update(salt.encode("utf-8"))
    h.update(b"\x00")
    h.update(digest.encode("ascii"))
    return h.hexdigest()


def default_cache_dir() -> str:
    """The default cache directory.

    ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro`` (honouring
    ``$XDG_CACHE_HOME``).
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")
