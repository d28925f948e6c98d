"""Extension experiment (E10) and design-choice ablations (A1..A8).

DESIGN.md calls out the design choices of the reproduction; each ablation
here isolates one of them.  Each is declared as an
:class:`~repro.experiments.result.ExperimentSpec` and run by
:func:`repro.experiments.run_experiment`, like E1..E9:

* **E10** — lifetime extension from utilization-oriented mapping (the
  DATE'16 companion claim: wear-levelled mapping prolongs system life).
* **A1** — criticality metric composition (stress-only / balanced /
  time-only): what each term buys.
* **A2** — budget guard band: violation rate vs. throughput.
* **A3** — concurrent-test cap: campaign speed vs. intrusiveness.
* **A4** — test preemption (abort vs. reserve) for the proposed
  scheduler: where the non-intrusiveness actually comes from.
* **A5** — thermal guard margin (with the RC thermal model enabled).
* **A6** — process variation on/off: robustness of the scheduling claims
  on a non-uniform die.
* **A7** — hard/soft/no real-time priorities vs. FIFO service.
* **A8** — analytic vs. queued NoC: what the NoC substitution costs.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from typing import Dict, Sequence

from repro._sum import lsum
from repro.aging.lifetime import LifetimeAnalyzer, LifetimeParameters
from repro.core.criticality import CriticalityParameters
from repro.experiments.result import (
    DEFAULT_CONFIG,
    ExperimentResult,
    ExperimentSpec,
    _cells,
    _penalty_pct,
)
from repro.platform.thermal import ThermalParameters
from repro.workload.scenarios import scenario_config_kwargs


# ----------------------------------------------------------------------
# E10 — lifetime extension from wear-levelling mapping (DATE'16 claim)
# ----------------------------------------------------------------------
def e10_lifetime(
    horizon_us: float = 60_000.0,
    seeds: Sequence[int] = (11, 23, 47),
    scenario: str = "moderate",
) -> ExperimentSpec:
    """Expected chip lifetime under contiguous vs. utilization-oriented
    mapping.

    The DATE'16 companion reports up to 62% end-of-life reliability
    improvement from reliability-aware mapping; the mechanism our mapper
    shares with it is wear levelling — spreading stress so the worst core
    ages slower.
    """
    base = replace(
        DEFAULT_CONFIG, horizon_us=horizon_us, **scenario_config_kwargs(scenario)
    )
    cells = _cells("mapper", ("contiguous", "scatter", "test-aware"))
    return ExperimentSpec(base, cells, tuple(seeds), _e10_table)


def _e10_table(spec, runs) -> ExperimentResult:
    analyzer = LifetimeAnalyzer(LifetimeParameters())
    rows = []
    reports = {}
    for cell, cell_runs in zip(spec.cells, spec.per_cell(runs)):
        per_seed = [
            analyzer.analyze(result.per_core_age_stress, spec.base.horizon_us)
            for result in cell_runs
        ]
        reports[cell["mapper"]] = per_seed
        rows.append(
            [
                cell["mapper"],
                statistics.mean(r.stress_max for r in per_seed),
                statistics.mean(r.wear_imbalance for r in per_seed),
                statistics.mean(r.min_reliability for r in per_seed),
                statistics.mean(r.expected_lifetime_hours for r in per_seed),
            ]
        )
    gains = [
        LifetimeAnalyzer.lifetime_gain_pct(b, i)
        for b, i in zip(reports["contiguous"], reports["test-aware"])
    ]
    return ExperimentResult(
        experiment_id="E10",
        title="Lifetime extension from utilization-oriented mapping",
        claim="wear-levelled runtime mapping prolongs system lifetime (DATE'16)",
        headers=[
            "mapper", "max_stress", "wear_imbalance",
            "min_reliability", "lifetime_hours",
        ],
        rows=rows,
        scalars={"lifetime_gain_pct": statistics.mean(gains)},
    )


# ----------------------------------------------------------------------
# A1 — criticality metric composition
# ----------------------------------------------------------------------
#: A1's criticality variants, in row order.
A1_VARIANTS: Dict[str, CriticalityParameters] = {
    "stress-only": CriticalityParameters(
        stress_weight=1.0, time_weight=0.0,
        stress_reference=4.0, time_reference_us=3000.0,
    ),
    "balanced": CriticalityParameters(),
    "time-only": CriticalityParameters(
        stress_weight=0.0, time_weight=1.0,
        stress_reference=4.0, time_reference_us=3000.0,
    ),
}


def a1_criticality_weights(
    horizon_us: float = 60_000.0, seed: int = 11
) -> ExperimentSpec:
    """Stress-only vs. balanced vs. time-only criticality."""
    base = replace(
        DEFAULT_CONFIG, horizon_us=horizon_us,
        fault_hazard_per_us=1e-6, fault_stress_scale=10.0,
    )
    cells = _cells("criticality", A1_VARIANTS.values())
    return ExperimentSpec(base, cells, (seed,), _a1_table)


def _a1_table(spec, runs) -> ExperimentResult:
    rows = []
    corr_by_variant = {}
    for name, result in zip(A1_VARIANTS, runs):
        busy = result.per_core_busy_us
        tests = result.per_core_tests
        ids = sorted(busy)
        xs = [busy[i] for i in ids]
        ys = [float(tests.get(i, 0)) for i in ids]
        corr = (
            statistics.correlation(xs, ys)
            if statistics.pstdev(xs) > 0 and statistics.pstdev(ys) > 0
            else 0.0
        )
        corr_by_variant[name] = corr
        detected = lsum(1 for r in result.fault_records if r.detected)
        rows.append(
            [
                name,
                result.tests_completed,
                corr,
                len(result.fault_records),
                detected,
                result.test_power_share,
            ]
        )
    return ExperimentResult(
        experiment_id="A1",
        title="Ablation: criticality metric composition",
        claim="the stress term drives adaptivity; the time term bounds staleness",
        headers=[
            "criticality", "tests", "corr_busy_tests",
            "injected", "detected", "test_energy_share",
        ],
        rows=rows,
        scalars={f"corr[{k}]": v for k, v in corr_by_variant.items()},
    )


# ----------------------------------------------------------------------
# A2 — guard band sweep
# ----------------------------------------------------------------------
def a2_guard_band(
    horizon_us: float = 60_000.0,
    seed: int = 11,
    fractions: Sequence[float] = (0.0, 0.02, 0.05, 0.10),
) -> ExperimentSpec:
    """TDP guard band: safety margin vs. throughput given away."""
    base = replace(DEFAULT_CONFIG, horizon_us=horizon_us)
    cells = _cells("guard_fraction", fractions)
    return ExperimentSpec(base, cells, (seed,), _a2_table)


def _a2_table(spec, runs) -> ExperimentResult:
    rows = [
        [
            cell["guard_fraction"],
            result.throughput_ops_per_us,
            result.metrics.average_power(spec.base.horizon_us),
            result.metrics.audit.violation_rate,
            result.tests_completed,
        ]
        for cell, result in zip(spec.cells, runs)
    ]
    return ExperimentResult(
        experiment_id="A2",
        title="Ablation: TDP guard band",
        claim="a small guard band absorbs inter-epoch wiggle without costing throughput",
        headers=[
            "guard_fraction", "throughput_ops_per_us", "avg_power_w",
            "violation_rate", "tests",
        ],
        rows=rows,
        scalars={
            "violations_at_zero_guard": rows[0][3],
            "violations_at_default_guard": rows[1][3],
        },
    )


# ----------------------------------------------------------------------
# A3 — concurrent-test cap
# ----------------------------------------------------------------------
def a3_test_concurrency(
    horizon_us: float = 60_000.0,
    seed: int = 11,
    caps: Sequence[int] = (1, 2, 4, 8, 16),
) -> ExperimentSpec:
    """How many simultaneous SBST sessions the chip should allow.

    The first cell runs without testing: the throughput baseline.
    """
    base = replace(DEFAULT_CONFIG, horizon_us=horizon_us)
    off = {"test_policy": "none"}
    cells = (off,) + _cells("max_concurrent_tests", caps)
    return ExperimentSpec(base, cells, (seed,), _a3_table)


def _a3_table(spec, runs) -> ExperimentResult:
    off = runs[0]
    rows = [
        [
            cell["max_concurrent_tests"],
            result.tests_completed,
            result.test_stats.mean_gap_us(),
            _penalty_pct(
                off.throughput_ops_per_us, result.throughput_ops_per_us
            ),
            result.test_power_share,
            result.metrics.audit.violation_rate,
        ]
        for cell, result in zip(spec.cells[1:], runs[1:])
    ]
    return ExperimentResult(
        experiment_id="A3",
        title="Ablation: concurrent test sessions cap",
        claim="test campaign speed saturates while the penalty stays flat",
        headers=[
            "max_concurrent", "tests", "mean_gap_us",
            "penalty_pct", "test_energy_share", "violation_rate",
        ],
        rows=rows,
    )


# ----------------------------------------------------------------------
# A4 — preemption policy
# ----------------------------------------------------------------------
def a4_preemption(
    horizon_us: float = 60_000.0, seed: int = 11
) -> ExperimentSpec:
    """Abort-on-demand vs. reserved sessions for the proposed scheduler.

    The first cell runs without testing: the throughput baseline.
    """
    base = replace(DEFAULT_CONFIG, horizon_us=horizon_us)
    off = {"test_policy": "none"}
    cells = (off,) + _cells("test_preemption", ("abort", "reserve"))
    return ExperimentSpec(base, cells, (seed,), _a4_table)


def _a4_table(spec, runs) -> ExperimentResult:
    off = runs[0]
    rows = [
        [
            cell["test_preemption"],
            _penalty_pct(
                off.throughput_ops_per_us, result.throughput_ops_per_us
            ),
            result.tests_completed,
            result.test_stats.aborted,
            result.metrics.mean_waiting_time() or 0.0,
        ]
        for cell, result in zip(spec.cells[1:], runs[1:])
    ]
    return ExperimentResult(
        experiment_id="A4",
        title="Ablation: test preemption (abort vs. reserve)",
        claim="preemptable tests are where the non-intrusiveness comes from",
        headers=["preemption", "penalty_pct", "tests", "aborted", "mean_wait_us"],
        rows=rows,
        scalars={
            "abort_penalty_pct": rows[0][1],
            "reserve_penalty_pct": rows[1][1],
        },
    )


# ----------------------------------------------------------------------
# A5 — thermal guard margin (RC thermal model enabled)
# ----------------------------------------------------------------------
#: A5's thermally tight package (higher self resistance, 72 °C limit).
TIGHT_PACKAGE = ThermalParameters(
    r_self_c_per_w=18.0, r_lateral_c_per_w=10.0, limit_c=72.0
)


def a5_thermal_guard(
    horizon_us: float = 60_000.0,
    seed: int = 11,
    margins: Sequence[float] = (0.0, 5.0, 15.0),
) -> ExperimentSpec:
    """Defer tests when the die is within ``margin`` °C of the limit.

    Uses a thermally tight package (higher self resistance, 72 °C limit)
    so the saturating workload genuinely approaches the junction limit —
    with the roomy default package the guard never binds and the ablation
    would be vacuous.  The certified config is the tight package at the
    default 5 °C margin.
    """
    base = replace(
        DEFAULT_CONFIG,
        horizon_us=horizon_us,
        thermal_enabled=True,
        thermal=TIGHT_PACKAGE,
    )
    cells = _cells("thermal_test_margin_c", margins)
    return ExperimentSpec(base, cells, (seed,), _a5_table, certified=({},))


def _a5_table(spec, runs) -> ExperimentResult:
    rows = [
        [
            cell["thermal_test_margin_c"],
            result.peak_temperature_c,
            result.tests_completed,
            result.throughput_ops_per_us,
        ]
        for cell, result in zip(spec.cells, runs)
    ]
    return ExperimentResult(
        experiment_id="A5",
        title="Ablation: thermal guard margin for test admission",
        claim="testing defers on a hot die; a few degrees of margin suffice",
        headers=["margin_c", "peak_temp_c", "tests", "throughput_ops_per_us"],
        rows=rows,
        scalars={"peak_temp_at_default": rows[1][1]},
    )


# ----------------------------------------------------------------------
# A6 — process variation on/off
# ----------------------------------------------------------------------
def a6_variation(
    horizon_us: float = 60_000.0, seed: int = 11
) -> ExperimentSpec:
    """Do the headline claims survive a non-uniform die?

    Per die, a run without testing (the baseline) and one with.
    """
    base = replace(DEFAULT_CONFIG, horizon_us=horizon_us)
    cells = tuple(
        cell
        for enabled in (False, True)
        for cell in (
            {"variation_enabled": enabled, "test_policy": "none"},
            {"variation_enabled": enabled},
        )
    )
    return ExperimentSpec(base, cells, (seed,), _a6_table)


def _a6_table(spec, runs) -> ExperimentResult:
    rows = []
    penalties = {}
    for off, on in zip(runs[0::2], runs[1::2]):
        penalty = _penalty_pct(
            off.throughput_ops_per_us, on.throughput_ops_per_us
        )
        label = "varied-die" if on.config.variation_enabled else "uniform-die"
        penalties[label] = penalty
        rows.append(
            [
                label,
                on.throughput_ops_per_us,
                penalty,
                on.tests_completed,
                on.metrics.audit.violation_rate,
            ]
        )
    return ExperimentResult(
        experiment_id="A6",
        title="Ablation: process variation on/off",
        claim="<1% penalty and budget safety hold on a variation-affected die",
        headers=[
            "die", "throughput_ops_per_us", "penalty_pct",
            "tests", "violation_rate",
        ],
        rows=rows,
        scalars={f"penalty[{k}]": v for k, v in penalties.items()},
    )


# ----------------------------------------------------------------------
# A7 — mixed-criticality priorities (ICCD'14 workload model)
# ----------------------------------------------------------------------
def a7_rt_priorities(
    horizon_us: float = 60_000.0, seed: int = 11
) -> ExperimentSpec:
    """Hard/soft/no real-time priorities vs. plain FIFO service.

    The ICCD'14 substrate "distinguishes applications with hard Real-Time,
    soft Real-Time and no Real-Time constraints and treats them with
    appropriate priorities": the queue is served in class-priority order
    and the PID's DVFS favours RT cores.
    """
    base = replace(
        DEFAULT_CONFIG,
        horizon_us=horizon_us,
        profile_names=("hard-rt-small", "soft-rt-medium", "large"),
        profile_weights=(0.3, 0.4, 0.3),
    )
    cells = _cells("rt_priorities", (False, True))
    return ExperimentSpec(base, cells, (seed,), _a7_table)


def _a7_table(spec, runs) -> ExperimentResult:
    rows = []
    waits: Dict[str, Dict[str, float]] = {}
    for cell, result in zip(spec.cells, runs):
        by_class = result.metrics.mean_waiting_by_class()
        label = "priorities" if cell["rt_priorities"] else "fifo"
        waits[label] = by_class
        for rt_class in ("hard-rt", "soft-rt", "best-effort"):
            rows.append(
                [
                    label,
                    rt_class,
                    by_class.get(rt_class, float("nan")),
                    result.throughput_ops_per_us,
                    result.metrics.audit.violation_rate,
                ]
            )
    speedup = 0.0
    if "hard-rt" in waits["fifo"] and waits["priorities"].get("hard-rt", 0) > 0:
        speedup = waits["fifo"]["hard-rt"] / waits["priorities"]["hard-rt"]
    return ExperimentResult(
        experiment_id="A7",
        title="Mixed-criticality priorities (hard/soft/no real-time)",
        claim=(
            "distinguishes hard/soft/no Real-Time applications and treats "
            "them with appropriate priorities (ICCD'14)"
        ),
        headers=[
            "queueing", "rt_class", "mean_wait_us",
            "throughput_ops_per_us", "violation_rate",
        ],
        rows=rows,
        scalars={"hard_rt_wait_speedup": speedup},
    )


# ----------------------------------------------------------------------
# A8 — NoC model fidelity (substitution validation)
# ----------------------------------------------------------------------
def a8_noc_fidelity(
    horizon_us: float = 60_000.0, seed: int = 11
) -> ExperimentSpec:
    """Analytic vs. queued (store-and-forward) NoC under the same workload.

    DESIGN.md substitutes the authors' cycle-level NoC with an analytic
    model; this experiment quantifies what that abstraction costs by
    re-running the headline configuration with explicit temporal link
    queueing.  Small deltas justify the substitution.
    """
    base = replace(DEFAULT_CONFIG, horizon_us=horizon_us)
    cells = _cells("noc_mode", ("analytic", "queued"))
    return ExperimentSpec(base, cells, (seed,), _a8_table)


def _a8_table(spec, runs) -> ExperimentResult:
    rows = []
    thr = {}
    for cell, result in zip(spec.cells, runs):
        mode = cell["noc_mode"]
        thr[mode] = result.throughput_ops_per_us
        rows.append(
            [
                mode,
                result.throughput_ops_per_us,
                result.metrics.mean_waiting_time() or 0.0,
                result.tests_completed,
                result.noc_avg_hops,
                result.metrics.audit.violation_rate,
            ]
        )
    delta = 0.0
    if thr["analytic"] > 0:
        delta = 100.0 * abs(thr["queued"] / thr["analytic"] - 1.0)
    return ExperimentResult(
        experiment_id="A8",
        title="NoC abstraction fidelity: analytic vs. queued store-and-forward",
        claim="the analytic NoC substitution does not move the headline results",
        headers=[
            "noc_model", "throughput_ops_per_us", "mean_wait_us",
            "tests", "avg_hops", "violation_rate",
        ],
        rows=rows,
        scalars={"throughput_delta_pct": delta},
    )


#: E10 and A1–A8: id -> spec factory (merged into ``EXPERIMENTS``).
ABLATIONS = {
    "E10": e10_lifetime,
    "A1": a1_criticality_weights,
    "A2": a2_guard_band,
    "A3": a3_test_concurrency,
    "A4": a4_preemption,
    "A5": a5_thermal_guard,
    "A6": a6_variation,
    "A7": a7_rt_priorities,
    "A8": a8_noc_fidelity,
}
