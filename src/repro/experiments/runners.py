"""Experiments E1..E9 and E11, the registry, and :func:`run_experiment`.

Each experiment is one :class:`~repro.experiments.result.ExperimentSpec`
from a factory that takes its parameters (``horizon_us``, ``seed`` or
``seeds``, ...): the points it runs (points sharing a seed share the
workload trace), the cells ``repro verify invariants`` certifies, and
a pure reducer to the paper's table or figure.  ``EXPERIMENTS`` maps
each id to its factory, E10 and A1..A8 coming from
:mod:`repro.experiments.ablations`; DESIGN.md indexes them and
EXPERIMENTS.md holds paper-claim vs. measured numbers.
:func:`run_experiment` runs any of them through one
:func:`~repro.experiments.parallel.run_many` call, so ``jobs`` pools
its points and ``cache`` memoizes them, with identical rows either way.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro._sum import lsum
from repro.core.criticality import CriticalityParameters
from repro.experiments.ablations import ABLATIONS
from repro.experiments.parallel import run_many
from repro.experiments.result import (
    DEFAULT_CONFIG,
    ExperimentResult,
    ExperimentSpec,
    _cells,
    _penalty_pct,
)
from repro.platform.chip import Chip
from repro.platform.technology import node_names


# ----------------------------------------------------------------------
# E1 — power trace under the budget
# ----------------------------------------------------------------------
def e1_power_trace(
    horizon_us: float = 60_000.0, seed: int = 11
) -> ExperimentSpec:
    """Chip power vs. time against the TDP for proposed vs. power-unaware."""
    base = replace(DEFAULT_CONFIG, horizon_us=horizon_us)
    cells = _cells("test_policy", ("power-aware", "unaware"))
    return ExperimentSpec(base, cells, (seed,), _e1_table, certified=({},))


def _e1_table(spec, runs) -> ExperimentResult:
    base = spec.base
    rows = []
    series: Dict[str, List[float]] = {}
    step = base.epoch_us * 5
    grid = [i * step for i in range(int(base.horizon_us / step) + 1)]
    for cell, result in zip(spec.cells, runs):
        policy = cell["test_policy"]
        trace = result.metrics.trace
        series[f"power.total[{policy}]"] = trace.resample("power.total", grid)
        series[f"power.test[{policy}]"] = trace.resample("power.test", grid)
        rows.append(
            [
                policy,
                result.metrics.average_power(base.horizon_us),
                trace.maximum("power.total"),
                result.metrics.audit.violation_rate,
                result.tests_completed,
                result.test_power_share,
            ]
        )
    return ExperimentResult(
        experiment_id="E1",
        title="Chip power vs. time under the TDP budget (16 nm)",
        claim=(
            "the proposed approach can efficiently utilize temporarily free "
            "resources and available power budget for the testing purposes"
        ),
        headers=[
            "scheduler", "avg_power_w", "peak_power_w",
            "violation_rate", "tests", "test_energy_share",
        ],
        rows=rows,
        series=series,
        scalars={"tdp_w": base.tdp_w},
        notes=[
            "power-aware keeps peak power at or under the cap; the unaware "
            "baseline punctures it whenever tests land on a busy chip",
        ],
    )


# ----------------------------------------------------------------------
# E2 — throughput penalty of online testing
# ----------------------------------------------------------------------
def e2_throughput_penalty(
    horizon_us: float = 60_000.0, seed: int = 11
) -> ExperimentSpec:
    """Throughput penalty per test scheduler at 16 nm (headline claim)."""
    base = replace(DEFAULT_CONFIG, horizon_us=horizon_us)
    cells = _cells(
        "test_policy", ("none", "power-aware", "unaware", "round-robin")
    )
    return ExperimentSpec(base, cells, (seed,), _e2_table, certified=({},))


def _e2_table(spec, runs) -> ExperimentResult:
    results = {
        cell["test_policy"]: result for cell, result in zip(spec.cells, runs)
    }
    baseline = results["none"].throughput_ops_per_us
    rows = []
    for policy, result in results.items():
        rows.append(
            [
                policy,
                result.throughput_ops_per_us,
                _penalty_pct(baseline, result.throughput_ops_per_us),
                result.tests_completed,
                result.test_stats.aborted,
                result.test_power_share,
                result.metrics.audit.violation_rate,
            ]
        )
    penalty = _penalty_pct(
        baseline, results["power-aware"].throughput_ops_per_us
    )
    return ExperimentResult(
        experiment_id="E2",
        title="System-throughput penalty of online testing (16 nm)",
        claim="within less than 1% penalty on system throughput for 16 nm",
        headers=[
            "scheduler", "throughput_ops_per_us", "penalty_pct",
            "tests", "aborted", "test_energy_share", "violation_rate",
        ],
        rows=rows,
        scalars={"proposed_penalty_pct": penalty},
    )


# ----------------------------------------------------------------------
# E3 — technology-node sweep
# ----------------------------------------------------------------------
def e3_tech_nodes(
    horizon_us: float = 60_000.0,
    seed: int = 11,
    nodes: Optional[Sequence[str]] = None,
) -> ExperimentSpec:
    """Penalty and dark-silicon squeeze across 45/32/22/16 nm."""
    base = replace(DEFAULT_CONFIG, horizon_us=horizon_us)
    cells = tuple(
        {"node_name": name, "test_policy": policy}
        for name in (nodes or node_names())
        for policy in ("none", "power-aware")
    )
    certified = ({"node_name": "45nm"},)
    return ExperimentSpec(base, cells, (seed,), _e3_table, certified)


def _e3_table(spec, runs) -> ExperimentResult:
    rows = []
    worst_penalty = 0.0
    for off, on in zip(runs[0::2], runs[1::2]):
        lit = Chip.from_config(on.config).lit_fraction()
        penalty = _penalty_pct(
            off.throughput_ops_per_us, on.throughput_ops_per_us
        )
        worst_penalty = max(worst_penalty, penalty)
        rows.append(
            [
                on.config.node_name,
                lit,
                1.0 - lit,
                off.throughput_ops_per_us,
                on.throughput_ops_per_us,
                penalty,
                on.tests_completed,
                on.test_power_share,
            ]
        )
    return ExperimentResult(
        experiment_id="E3",
        title="Dark-silicon squeeze across technology nodes",
        claim=(
            "power budget tightens from 45 nm to 16 nm while the testing "
            "penalty stays negligible"
        ),
        headers=[
            "node", "lit_fraction", "dark_fraction",
            "thr_no_test", "thr_proposed", "penalty_pct",
            "tests", "test_energy_share",
        ],
        rows=rows,
        scalars={"worst_penalty_pct": worst_penalty},
    )


# ----------------------------------------------------------------------
# E4 — test-frequency adaptivity to core stress
# ----------------------------------------------------------------------
def e4_adaptivity(
    horizon_us: float = 60_000.0, seeds: Sequence[int] = (5, 11, 23)
) -> ExperimentSpec:
    """Tests per core vs. core busy time (criticality adaptivity).

    Uses a stress-dominant criticality configuration (the mechanism this
    experiment isolates): with the time term turned up, periodic
    re-screening of idle cores equalises test counts and hides the
    adaptivity the stress term provides.
    """
    stress_dominant = CriticalityParameters(
        stress_weight=0.85, time_weight=0.15,
        stress_reference=4.0, time_reference_us=3000.0,
    )
    base = replace(
        DEFAULT_CONFIG,
        horizon_us=horizon_us,
        mapper="contiguous",
        criticality=stress_dominant,
    )
    cells = ({},)
    certified = ({},)
    return ExperimentSpec(base, cells, tuple(seeds), _e4_table, certified)


def _e4_table(spec, runs) -> ExperimentResult:
    correlations = []
    quartile_busy = [[] for _ in range(4)]
    quartile_tests = [[] for _ in range(4)]
    last_series: List[float] = []
    for result in runs:
        busy = result.per_core_busy_us
        tests = result.per_core_tests
        core_ids = sorted(busy)
        xs = [busy[i] for i in core_ids]
        ys = [float(tests.get(i, 0)) for i in core_ids]
        if statistics.pstdev(xs) > 0 and statistics.pstdev(ys) > 0:
            correlations.append(statistics.correlation(xs, ys))
        order = sorted(core_ids, key=lambda i: busy[i])
        quarter = max(1, len(order) // 4)
        buckets = [order[k * quarter:(k + 1) * quarter] for k in range(3)]
        buckets.append(order[3 * quarter:])
        for k, bucket in enumerate(buckets):
            quartile_busy[k].extend(busy[i] for i in bucket)
            quartile_tests[k].extend(float(tests.get(i, 0)) for i in bucket)
        last_series = [float(tests.get(i, 0)) for i in order]
    rows = [
        [
            f"Q{k + 1}",
            statistics.mean(quartile_busy[k]),
            statistics.mean(quartile_tests[k]),
        ]
        for k in range(4)
        if quartile_busy[k]
    ]
    corr = statistics.mean(correlations) if correlations else 0.0
    return ExperimentResult(
        experiment_id="E4",
        title="Test frequency adapts to core stress (utilization)",
        claim="adapt to the current stress level of the cores (TC'16)",
        headers=["busy_quartile", "mean_busy_us", "mean_tests"],
        rows=rows,
        scalars={"pearson_busy_vs_tests": corr},
        series={"tests_by_core_busy_rank": last_series},
        notes=[
            f"mean Pearson over {len(spec.seeds)} seeds; stress-dominant "
            "criticality (w_s=0.85) isolates the adaptivity mechanism",
        ],
    )


# ----------------------------------------------------------------------
# E5 — test power share across load
# ----------------------------------------------------------------------
def e5_test_power_share(
    horizon_us: float = 60_000.0,
    seed: int = 11,
    rates: Sequence[float] = (2.0, 4.0, 6.0, 8.0, 10.0),
) -> ExperimentSpec:
    """Energy share dedicated to testing across offered loads."""
    base = replace(DEFAULT_CONFIG, horizon_us=horizon_us)
    cells = _cells("arrival_rate_per_ms", rates)
    certified = ({"arrival_rate_per_ms": 4.0},)
    return ExperimentSpec(base, cells, (seed,), _e5_table, certified)


def _e5_table(spec, runs) -> ExperimentResult:
    rows = []
    shares = []
    for cell, result in zip(spec.cells, runs):
        share = result.test_power_share
        shares.append(share)
        rows.append(
            [
                cell["arrival_rate_per_ms"],
                result.metrics.average_power(spec.base.horizon_us),
                share,
                result.tests_completed,
                result.metrics.audit.violation_rate,
            ]
        )
    return ExperimentResult(
        experiment_id="E5",
        title="Power share dedicated to online testing vs. load",
        claim="dedicating only ~2% of the actual consumed power (TC'16)",
        headers=[
            "arrival_rate_per_ms", "avg_power_w", "test_energy_share",
            "tests", "violation_rate",
        ],
        rows=rows,
        scalars={"max_share": max(shares), "mean_share": statistics.mean(shares)},
        series={"test_share_by_rate": shares},
    )


# ----------------------------------------------------------------------
# E6 — V/F-level coverage of the test campaign
# ----------------------------------------------------------------------
def e6_vf_coverage(
    horizon_us: float = 60_000.0, seed: int = 11
) -> ExperimentSpec:
    """Distribution of completed tests across DVFS levels."""
    base = replace(DEFAULT_CONFIG, horizon_us=horizon_us)
    cells = _cells("test_level_policy", ("rotate", "nominal"))
    certified = ({"test_level_policy": "nominal"},)
    return ExperimentSpec(base, cells, (seed,), _e6_table, certified)


def _e6_table(spec, runs) -> ExperimentResult:
    rows = []
    covered = {}
    n_levels = spec.base.n_vf_levels
    for cell, result in zip(spec.cells, runs):
        level_policy = cell["test_level_policy"]
        per_level = result.per_level_tests
        covered[level_policy] = lsum(
            1 for i in range(n_levels) if per_level.get(i, 0) > 0
        )
        for index in range(n_levels):
            rows.append([level_policy, index, per_level.get(index, 0)])
    return ExperimentResult(
        experiment_id="E6",
        title="Test coverage across voltage/frequency levels",
        claim="cover all the voltage and frequency levels during the various tests (TC'16)",
        headers=["level_policy", "vf_level", "tests_completed"],
        rows=rows,
        scalars={
            "levels_covered_rotate": float(covered.get("rotate", 0)),
            "levels_covered_nominal": float(covered.get("nominal", 0)),
        },
    )


# ----------------------------------------------------------------------
# E7 — runtime-mapping comparison
# ----------------------------------------------------------------------
def e7_mapping(
    horizon_us: float = 60_000.0,
    seeds: Sequence[int] = (11, 23, 47),
    arrival_rate_per_ms: float = 3.0,
) -> ExperimentSpec:
    """Test-aware utilization-oriented mapping vs. baselines.

    Moderate load: the mapper has freedom in *which* cores it leaves idle,
    which is where test awareness pays off (fresher test coverage at
    contiguous-mapping communication locality).
    """
    base = replace(
        DEFAULT_CONFIG,
        horizon_us=horizon_us,
        arrival_rate_per_ms=arrival_rate_per_ms,
    )
    cells = _cells(
        "mapper",
        ("contiguous", "scatter", "random", "mappro", "test-aware"),
    )
    certified = ({"mapper": "test-aware"},)
    return ExperimentSpec(base, cells, tuple(seeds), _e7_table, certified)


def _e7_table(spec, runs) -> ExperimentResult:
    rows = []
    for cell, cell_runs in zip(spec.cells, spec.per_cell(runs)):
        stats = [result.test_stats for result in cell_runs]
        rows.append(
            [
                cell["mapper"],
                statistics.mean(r.throughput_ops_per_us for r in cell_runs),
                statistics.mean(r.noc_avg_hops for r in cell_runs),
                statistics.mean(s.mean_gap_us() for s in stats),
                statistics.mean(s.max_gap_us() for s in stats),
                statistics.mean(s.aborted for s in stats),
            ]
        )
    by_mapper = {row[0]: row for row in rows}
    contiguous, test_aware = by_mapper["contiguous"], by_mapper["test-aware"]
    return ExperimentResult(
        experiment_id="E7",
        title="Runtime mapping: test-aware utilization-oriented vs. baselines",
        claim=(
            "test-aware utilization-oriented runtime mapping considers the "
            "utilization of cores and their test criticality"
        ),
        headers=[
            "mapper", "throughput_ops_per_us", "avg_hops",
            "mean_test_gap_us", "max_test_gap_us", "tests_aborted",
        ],
        rows=rows,
        scalars={
            "abort_reduction_vs_contiguous": contiguous[5] - test_aware[5],
            "hops_overhead_vs_contiguous": test_aware[2] - contiguous[2],
        },
    )


# ----------------------------------------------------------------------
# E8 — fault-detection latency
# ----------------------------------------------------------------------
def e8_detection_latency(
    horizon_us: float = 60_000.0,
    seeds: Sequence[int] = (3, 7, 13, 29),
    hazard_per_us: float = 1e-6,
    stress_scale: float = 10.0,
) -> ExperimentSpec:
    """Detection latency of injected permanent faults per scheduler.

    ``stress_scale`` is deliberately tight (10 stress units double the
    hazard): the paper's threat model is *aging-induced* wear-out, i.e.
    faults concentrate on the stressed cores the criticality metric sends
    the test budget to.
    """
    base = replace(
        DEFAULT_CONFIG,
        horizon_us=horizon_us,
        fault_hazard_per_us=hazard_per_us,
        fault_stress_scale=stress_scale,
    )
    cells = _cells(
        "test_policy", ("power-aware", "round-robin", "unaware", "none")
    )
    certified = ({},)
    return ExperimentSpec(base, cells, tuple(seeds), _e8_table, certified)


def _e8_table(spec, runs) -> ExperimentResult:
    rows = []
    mean_latency: Dict[str, float] = {}
    for cell, cell_runs in zip(spec.cells, spec.per_cell(runs)):
        policy = cell["test_policy"]
        records = [r for result in cell_runs for r in result.fault_records]
        latencies = [r.detection_latency() for r in records if r.detected]
        injected, detected = len(records), len(latencies)
        rows.append(
            [
                policy,
                injected,
                detected,
                detected / injected if injected else 0.0,
                statistics.mean(latencies) if latencies else float("nan"),
                max(latencies) if latencies else float("nan"),
            ]
        )
        if latencies:
            mean_latency[policy] = statistics.mean(latencies)
    return ExperimentResult(
        experiment_id="E8",
        title="Permanent-fault detection latency per scheduler",
        claim="online defect screening detects runtime faults (motivation)",
        headers=[
            "scheduler", "injected", "detected", "detection_rate",
            "mean_latency_us", "max_latency_us",
        ],
        rows=rows,
        scalars={
            f"mean_latency[{k}]": v for k, v in mean_latency.items()
        },
    )


# ----------------------------------------------------------------------
# E9 — PID power budgeting ablation (ICCD'14 substrate)
# ----------------------------------------------------------------------
def e9_pid_ablation(
    horizon_us: float = 60_000.0, seed: int = 11, tdp_w: float = 50.0
) -> ExperimentSpec:
    """PID budgeting vs. naive TDP policies under a bursty workload.

    The rows run without testing; the certified config is the proposed
    method on the same bursty base: power-aware testing under PID.
    """
    base = replace(
        DEFAULT_CONFIG,
        horizon_us=horizon_us,
        tdp_w=tdp_w,
        bursty=True,
        test_policy="none",
        profile_names=("small", "medium"),
        profile_weights=(0.5, 0.5),
    )
    cells = _cells("power_policy", ("worst-case", "naive", "pid"))
    certified = ({"test_policy": "power-aware"},)
    return ExperimentSpec(base, cells, (seed,), _e9_table, certified)


def _e9_table(spec, runs) -> ExperimentResult:
    results = {
        cell["power_policy"]: result for cell, result in zip(spec.cells, runs)
    }
    rows = []
    for policy, result in results.items():
        rows.append(
            [
                policy,
                result.throughput_ops_per_us,
                result.metrics.average_power(spec.base.horizon_us),
                result.metrics.audit.violation_rate,
                result.apps_completed,
            ]
        )
    boost = 0.0
    worst = results["worst-case"].throughput_ops_per_us
    if worst > 0:
        boost = 100.0 * (
            results["pid"].throughput_ops_per_us / worst - 1.0
        )
    return ExperimentResult(
        experiment_id="E9",
        title="PID dynamic power budgeting vs. naive TDP scheduling (ICCD'14)",
        claim="boost system throughput by over 43% compared to a naive TDP policy",
        headers=[
            "power_policy", "throughput_ops_per_us", "avg_power_w",
            "violation_rate", "apps_completed",
        ],
        rows=rows,
        scalars={"pid_boost_over_worst_case_pct": boost},
    )


# ----------------------------------------------------------------------
# E11 — heterogeneous tile mixes (repo extension, not a paper table)
# ----------------------------------------------------------------------
#: Three-type 4x4 floorplan: an IO-tile ring around a hot O3 cluster,
#: with an accelerator row along the top edge.
E11_TYPE_GRID: Tuple[str, ...] = (
    "io", "io", "io", "io",
    "io", "o3", "o3", "io",
    "io", "o3", "o3", "io",
    "accel", "accel", "accel", "accel",
)


def e11_hetero(horizon_us: float = 60_000.0, seed: int = 11) -> ExperimentSpec:
    """Power-aware testing on a three-type heterogeneous 4x4 floorplan.

    Extends the paper's homogeneous study (this table has no DATE'15
    counterpart): the same power-aware scheduler runs on a mixed
    IO/O3/accelerator grid under the baseline CMOS model and the
    near-threshold variant, against the homogeneous-std control.  The
    dark fraction is the *derived* quantity of the type catalog — it
    reacts to the tile mix and the technology model while the scheduler
    keeps the budget honest (violation rate stays zero).  The certified
    config is the three-type floorplan under ``cmos``.
    """
    base = replace(
        DEFAULT_CONFIG, width=4, height=4, tdp_w=25.0, horizon_us=horizon_us
    )
    cells = (
        {"type_grid": (), "tech_model": "cmos"},
        {"type_grid": E11_TYPE_GRID, "tech_model": "cmos"},
        {"type_grid": E11_TYPE_GRID, "tech_model": "ntv"},
    )
    certified = cells[1:2]
    return ExperimentSpec(base, cells, (seed,), _e11_table, certified)


def _e11_table(spec, runs) -> ExperimentResult:
    rows = []
    for cell, result in zip(spec.cells, runs):
        chip = Chip.from_config(result.config)
        by_type: Dict[str, int] = {}
        for core_id, tests in result.per_core_tests.items():
            name = chip.core(core_id).core_type.name
            by_type[name] = by_type.get(name, 0) + tests
        rows.append(
            [
                "hetero-3type" if cell["type_grid"] else "homogeneous",
                cell["tech_model"],
                chip.dark_fraction(),
                result.throughput_ops_per_us,
                result.tests_completed,
                by_type.get("std", 0),
                by_type.get("io", 0),
                by_type.get("o3", 0),
                by_type.get("accel", 0),
                result.metrics.audit.violation_rate,
            ]
        )
    return ExperimentResult(
        experiment_id="E11",
        title="Heterogeneous tile mixes under the TDP budget (4x4, 25 W)",
        claim=(
            "the power-aware approach carries over to heterogeneous "
            "platforms: the dark-silicon ratio follows the tile mix and "
            "technology model while the budget stays honoured"
        ),
        headers=[
            "platform", "tech_model", "dark_fraction",
            "throughput_ops_per_us", "tests",
            "tests_std", "tests_io", "tests_o3", "tests_accel",
            "violation_rate",
        ],
        rows=rows,
        scalars={f"dark_fraction[{row[0]}/{row[1]}]": row[2] for row in rows},
        notes=[
            "repo extension (no DATE'15 counterpart): certifies the "
            "pluggable core-type / technology-model layer end-to-end",
        ],
    )


#: Experiment id -> spec factory: E1–E9 and E11 from this module, E10
#: and A1–A8 from :mod:`repro.experiments.ablations`.
EXPERIMENTS = {
    "E1": e1_power_trace,
    "E2": e2_throughput_penalty,
    "E3": e3_tech_nodes,
    "E4": e4_adaptivity,
    "E5": e5_test_power_share,
    "E6": e6_vf_coverage,
    "E7": e7_mapping,
    "E8": e8_detection_latency,
    "E9": e9_pid_ablation,
    "E11": e11_hetero,
    **ABLATIONS,
}


def run_experiment(
    experiment_id: str, jobs: Optional[int] = None, cache=None, **params
) -> ExperimentResult:
    """Run one experiment by id (e.g. ``"E2"``).

    ``params`` go to the experiment's factory; its points run through
    one :func:`~repro.experiments.parallel.run_many` call with ``jobs``
    and ``cache``.  The returned result carries a provenance dict (code
    version, parameters and ``jobs`` if given, digest over the rows) so
    archived tables stay attributable.  ``cache`` is not recorded: it
    changes where results come from, never what they are.
    """
    try:
        factory = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    spec = factory(**params)
    result = spec.reduce(spec, run_many(spec.points(), jobs, cache=cache))
    import repro
    from repro.obs.provenance import experiment_provenance

    if jobs is not None:
        params["jobs"] = jobs
    result.provenance = experiment_provenance(
        experiment_id,
        getattr(repro, "__version__", "0"),
        result.rows,
        params,
    )
    return result
