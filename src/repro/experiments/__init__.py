"""Experiment harness: reconstructed tables/figures (E1..E9), the E10
lifetime extension, the E11 heterogeneous-platform family, and
design-choice ablations (A1..A6)."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ABLATIONS": "ablations",
    "DEFAULT_CONFIG": "runners",
    "E11_TYPE_GRID": "runners",
    "EXPERIMENTS": "runners",
    "ExperimentResult": "result",
    "Outcome": "parallel",
    "RunFailed": "parallel",
    "WorkerPool": "parallel",
    "execute": "parallel",
    "run_a1_criticality_weights": "ablations",
    "run_a2_guard_band": "ablations",
    "run_a3_test_concurrency": "ablations",
    "run_a4_preemption": "ablations",
    "run_a5_thermal_guard": "ablations",
    "run_a6_variation": "ablations",
    "run_a7_rt_priorities": "ablations",
    "run_a8_noc_fidelity": "ablations",
    "run_e10_lifetime": "ablations",
    "run_e1_power_trace": "runners",
    "run_e2_throughput_penalty": "runners",
    "run_e3_tech_nodes": "runners",
    "run_e4_adaptivity": "runners",
    "run_e5_test_power_share": "runners",
    "run_e6_vf_coverage": "runners",
    "run_e7_mapping": "runners",
    "run_e8_detection_latency": "runners",
    "run_e9_pid_ablation": "runners",
    "run_e11_hetero": "runners",
    "run_experiment": "runners",
    "run_many": "parallel",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
