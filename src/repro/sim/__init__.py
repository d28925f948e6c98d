"""Discrete-event simulation kernel (engine, events, traces, RNG streams)."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Event": "events",
    "PRIORITY_CONTROL": "events",
    "PRIORITY_EARLY": "events",
    "PRIORITY_NORMAL": "events",
    "SimulationError": "engine",
    "Simulator": "engine",
    "StreamRegistry": "rng",
    "Trace": "trace",
    "derive_seed": "rng",
    "make_rng": "rng",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
