"""Experiment harness: reconstructed tables/figures (E1..E9), the E10
lifetime extension, the E11 heterogeneous-platform family, and
design-choice ablations (A1..A8), each declared once as an
:class:`ExperimentSpec` and run by :func:`run_experiment`."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ABLATIONS": "ablations",
    "DEFAULT_CONFIG": "runners",
    "E11_TYPE_GRID": "runners",
    "EXPERIMENTS": "runners",
    "ExperimentResult": "result",
    "ExperimentSpec": "result",
    "Outcome": "parallel",
    "RunFailed": "parallel",
    "WorkerPool": "parallel",
    "execute": "parallel",
    "run_experiment": "runners",
    "run_many": "parallel",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
