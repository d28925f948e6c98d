"""Experiment harness: reconstructed tables/figures (E1..E9), the E10
lifetime extension, the E11 heterogeneous-platform family, and
design-choice ablations (A1..A6)."""

from repro.experiments.ablations import (
    ABLATIONS,
    run_a1_criticality_weights,
    run_a2_guard_band,
    run_a3_test_concurrency,
    run_a4_preemption,
    run_a5_thermal_guard,
    run_a6_variation,
    run_a7_rt_priorities,
    run_a8_noc_fidelity,
    run_e10_lifetime,
)
from repro.experiments.parallel import (
    Outcome,
    RunFailed,
    WorkerPool,
    execute,
    run_many,
)
from repro.experiments.result import ExperimentResult
from repro.experiments.runners import (
    DEFAULT_CONFIG,
    EXPERIMENTS,
    E11_TYPE_GRID,
    run_e1_power_trace,
    run_e2_throughput_penalty,
    run_e3_tech_nodes,
    run_e4_adaptivity,
    run_e5_test_power_share,
    run_e6_vf_coverage,
    run_e7_mapping,
    run_e8_detection_latency,
    run_e9_pid_ablation,
    run_e11_hetero,
    run_experiment,
)

EXPERIMENTS.update(ABLATIONS)

__all__ = [
    "ABLATIONS",
    "DEFAULT_CONFIG",
    "E11_TYPE_GRID",
    "EXPERIMENTS",
    "ExperimentResult",
    "Outcome",
    "RunFailed",
    "WorkerPool",
    "execute",
    "run_a1_criticality_weights",
    "run_a2_guard_band",
    "run_a3_test_concurrency",
    "run_a4_preemption",
    "run_a5_thermal_guard",
    "run_a6_variation",
    "run_a7_rt_priorities",
    "run_a8_noc_fidelity",
    "run_e10_lifetime",
    "run_e1_power_trace",
    "run_e2_throughput_penalty",
    "run_e3_tech_nodes",
    "run_e4_adaptivity",
    "run_e5_test_power_share",
    "run_e6_vf_coverage",
    "run_e7_mapping",
    "run_e8_detection_latency",
    "run_e9_pid_ablation",
    "run_e11_hetero",
    "run_experiment",
    "run_many",
]
