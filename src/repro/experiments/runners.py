"""Experiment runners E1..E9 — one per reconstructed table/figure.

Each runner builds the system configurations it needs, runs them on the
*same* workload trace (shared seed ⇒ bit-identical arrivals), and returns
an :class:`~repro.experiments.result.ExperimentResult` whose rows mirror
the figure/table the paper reported.  See DESIGN.md for the experiment
index and EXPERIMENTS.md for paper-claim vs. measured numbers.

All runners accept ``horizon_us``/``seeds`` so the benchmark harness can
run them at full scale while unit tests use small horizons, plus ``jobs``
to spread their independent simulation runs over worker processes via
:func:`repro.experiments.parallel.run_many` (serial and parallel runs
produce identical results; see that module's docstring) and ``cache``
(a :class:`repro.cache.RunCache`) to memoize them.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.system import SimulationResult, SystemConfig
from repro.experiments.parallel import run_many
from repro.experiments.result import ExperimentResult
from repro.platform.chip import Chip
from repro.platform.technology import node_names

#: Baseline workload used by most experiments (16 nm, saturating load).
DEFAULT_CONFIG = SystemConfig(
    node_name="16nm",
    tdp_w=80.0,
    horizon_us=60_000.0,
    arrival_rate_per_ms=8.0,
    seed=11,
)


def _penalty_pct(baseline: float, measured: float) -> float:
    """Throughput penalty (%) of ``measured`` against ``baseline``."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (1.0 - measured / baseline)


def _grid(horizon_us: float, step_us: float) -> List[float]:
    n = int(horizon_us / step_us)
    return [i * step_us for i in range(n + 1)]


# ----------------------------------------------------------------------
# E1 — power trace under the budget
# ----------------------------------------------------------------------
def run_e1_power_trace(
    horizon_us: float = 60_000.0,
    seed: int = 11,
    jobs: Optional[int] = None,
    cache=None,
) -> ExperimentResult:
    """Chip power vs. time against the TDP for proposed vs. power-unaware."""
    base = replace(DEFAULT_CONFIG, horizon_us=horizon_us, seed=seed)
    rows = []
    series: Dict[str, List[float]] = {}
    grid = _grid(horizon_us, base.epoch_us * 5)
    policies = ("power-aware", "unaware")
    runs = run_many(
        [replace(base, test_policy=policy) for policy in policies],
        jobs,
        cache=cache,
    )
    for policy, result in zip(policies, runs):
        trace = result.metrics.trace
        series[f"power.total[{policy}]"] = trace.resample("power.total", grid)
        series[f"power.test[{policy}]"] = trace.resample("power.test", grid)
        rows.append(
            [
                policy,
                result.metrics.average_power(horizon_us),
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
def run_e2_throughput_penalty(
    horizon_us: float = 60_000.0,
    seed: int = 11,
    jobs: Optional[int] = None,
    cache=None,
) -> ExperimentResult:
    """Throughput penalty per test scheduler at 16 nm (headline claim)."""
    base = replace(DEFAULT_CONFIG, horizon_us=horizon_us, seed=seed)
    policies = ("none", "power-aware", "unaware", "round-robin")
    runs = run_many(
        [replace(base, test_policy=policy) for policy in policies],
        jobs,
        cache=cache,
    )
    results: Dict[str, SimulationResult] = dict(zip(policies, runs))
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
def run_e3_tech_nodes(
    horizon_us: float = 60_000.0,
    seed: int = 11,
    nodes: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    cache=None,
) -> ExperimentResult:
    """Penalty and dark-silicon squeeze across 45/32/22/16 nm."""
    base = replace(DEFAULT_CONFIG, horizon_us=horizon_us, seed=seed)
    rows = []
    worst_penalty = 0.0
    names = list(nodes or node_names())
    configs = []
    for name in names:
        configs.append(replace(base, node_name=name, test_policy="none"))
        configs.append(replace(base, node_name=name, test_policy="power-aware"))
    runs = run_many(configs, jobs, cache=cache)
    for i, name in enumerate(names):
        chip = Chip.build(base.width, base.height, name, base.tdp_w)
        lit = chip.lit_fraction()
        off = runs[2 * i]
        on = runs[2 * i + 1]
        penalty = _penalty_pct(
            off.throughput_ops_per_us, on.throughput_ops_per_us
        )
        worst_penalty = max(worst_penalty, penalty)
        rows.append(
            [
                name,
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
def run_e4_adaptivity(
    horizon_us: float = 60_000.0,
    seeds: Sequence[int] = (5, 11, 23),
    jobs: Optional[int] = None,
    cache=None,
) -> ExperimentResult:
    """Tests per core vs. core busy time (criticality adaptivity).

    Uses a stress-dominant criticality configuration (the mechanism this
    experiment isolates): with the time term turned up, periodic
    re-screening of idle cores equalises test counts and hides the
    adaptivity the stress term provides.
    """
    from repro.core.criticality import CriticalityParameters

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
    correlations = []
    quartile_busy = [[] for _ in range(4)]
    quartile_tests = [[] for _ in range(4)]
    last_series: List[float] = []
    runs = run_many(
        [replace(base, seed=seed) for seed in seeds], jobs, cache=cache
    )
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
            f"mean Pearson over {len(seeds)} seeds; stress-dominant "
            "criticality (w_s=0.85) isolates the adaptivity mechanism",
        ],
    )


# ----------------------------------------------------------------------
# E5 — test power share across load
# ----------------------------------------------------------------------
def run_e5_test_power_share(
    horizon_us: float = 60_000.0,
    seed: int = 11,
    rates: Sequence[float] = (2.0, 4.0, 6.0, 8.0, 10.0),
    jobs: Optional[int] = None,
    cache=None,
) -> ExperimentResult:
    """Energy share dedicated to testing across offered loads."""
    base = replace(DEFAULT_CONFIG, horizon_us=horizon_us, seed=seed)
    rows = []
    shares = []
    runs = run_many(
        [replace(base, arrival_rate_per_ms=rate) for rate in rates],
        jobs,
        cache=cache,
    )
    for rate, result in zip(rates, runs):
        share = result.test_power_share
        shares.append(share)
        rows.append(
            [
                rate,
                result.metrics.average_power(horizon_us),
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
def run_e6_vf_coverage(
    horizon_us: float = 60_000.0,
    seed: int = 11,
    jobs: Optional[int] = None,
    cache=None,
) -> ExperimentResult:
    """Distribution of completed tests across DVFS levels."""
    base = replace(DEFAULT_CONFIG, horizon_us=horizon_us, seed=seed)
    rows = []
    covered = {}
    level_policies = ("rotate", "nominal")
    runs = run_many(
        [replace(base, test_level_policy=p) for p in level_policies],
        jobs,
        cache=cache,
    )
    for level_policy, result in zip(level_policies, runs):
        per_level = result.per_level_tests
        n_levels = base.n_vf_levels
        covered[level_policy] = sum(
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
def run_e7_mapping(
    horizon_us: float = 60_000.0,
    seeds: Sequence[int] = (11, 23, 47),
    arrival_rate_per_ms: float = 3.0,
    jobs: Optional[int] = None,
    cache=None,
) -> ExperimentResult:
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
    rows = []
    per_mapper: Dict[str, Dict[str, float]] = {}
    mappers = ("contiguous", "scatter", "random", "mappro", "test-aware")
    runs = run_many(
        [
            replace(base, mapper=mapper, seed=seed)
            for mapper in mappers
            for seed in seeds
        ],
        jobs,
        cache=cache,
    )
    for m, mapper in enumerate(mappers):
        aborts, max_gaps, mean_gaps, hops, thrs = [], [], [], [], []
        for result in runs[m * len(seeds):(m + 1) * len(seeds)]:
            aborts.append(result.test_stats.aborted)
            max_gaps.append(result.test_stats.max_gap_us())
            mean_gaps.append(result.test_stats.mean_gap_us())
            hops.append(result.noc_avg_hops)
            thrs.append(result.throughput_ops_per_us)
        row = {
            "aborted": statistics.mean(aborts),
            "max_gap_us": statistics.mean(max_gaps),
            "mean_gap_us": statistics.mean(mean_gaps),
            "avg_hops": statistics.mean(hops),
            "throughput": statistics.mean(thrs),
        }
        per_mapper[mapper] = row
        rows.append(
            [
                mapper, row["throughput"], row["avg_hops"],
                row["mean_gap_us"], row["max_gap_us"], row["aborted"],
            ]
        )
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
            "abort_reduction_vs_contiguous": (
                per_mapper["contiguous"]["aborted"]
                - per_mapper["test-aware"]["aborted"]
            ),
            "hops_overhead_vs_contiguous": (
                per_mapper["test-aware"]["avg_hops"]
                - per_mapper["contiguous"]["avg_hops"]
            ),
        },
    )


# ----------------------------------------------------------------------
# E8 — fault-detection latency
# ----------------------------------------------------------------------
def run_e8_detection_latency(
    horizon_us: float = 60_000.0,
    seeds: Sequence[int] = (3, 7, 13, 29),
    hazard_per_us: float = 1e-6,
    stress_scale: float = 10.0,
    jobs: Optional[int] = None,
    cache=None,
) -> ExperimentResult:
    """Detection latency of injected permanent faults per scheduler.

    ``stress_scale`` is deliberately tight (10 stress units double the
    hazard): the paper's threat model is *aging-induced* wear-out, i.e.
    faults concentrate on the stressed cores the criticality metric sends
    the test budget to.
    """
    base = replace(
        DEFAULT_CONFIG,
        fault_hazard_per_us=hazard_per_us,
        fault_stress_scale=stress_scale,
    )
    base = replace(base, horizon_us=horizon_us)
    rows = []
    mean_latency: Dict[str, float] = {}
    policies = ("power-aware", "round-robin", "unaware", "none")
    runs = run_many(
        [
            replace(base, test_policy=policy, seed=seed)
            for policy in policies
            for seed in seeds
        ],
        jobs,
        cache=cache,
    )
    for p, policy in enumerate(policies):
        injected = detected = 0
        latencies: List[float] = []
        for result in runs[p * len(seeds):(p + 1) * len(seeds)]:
            injected += len(result.fault_records)
            for record in result.fault_records:
                if record.detected:
                    detected += 1
                    latencies.append(record.detection_latency())
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
def run_e9_pid_ablation(
    horizon_us: float = 60_000.0,
    seed: int = 11,
    tdp_w: float = 50.0,
    jobs: Optional[int] = None,
    cache=None,
) -> ExperimentResult:
    """PID budgeting vs. naive TDP policies under a bursty workload."""
    base = replace(
        DEFAULT_CONFIG,
        horizon_us=horizon_us,
        seed=seed,
        tdp_w=tdp_w,
        bursty=True,
        test_policy="none",
        profile_names=("small", "medium"),
        profile_weights=(0.5, 0.5),
    )
    policies = ("worst-case", "naive", "pid")
    runs = run_many(
        [replace(base, power_policy=policy) for policy in policies],
        jobs,
        cache=cache,
    )
    results = dict(zip(policies, runs))
    rows = []
    for policy, result in results.items():
        rows.append(
            [
                policy,
                result.throughput_ops_per_us,
                result.metrics.average_power(horizon_us),
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


def _tests_by_type(result: SimulationResult) -> Dict[str, int]:
    """Completed test sessions per tile type (from the per-core counts)."""
    from repro.verify.relations import _resolved_type_names

    names = _resolved_type_names(result.config)
    counts: Dict[str, int] = {}
    for core_id, tests in result.per_core_tests.items():
        name = names[core_id]
        counts[name] = counts.get(name, 0) + tests
    return counts


def run_e11_hetero(
    horizon_us: float = 60_000.0,
    seed: int = 11,
    jobs: Optional[int] = None,
    cache=None,
) -> ExperimentResult:
    """Power-aware testing on a three-type heterogeneous 4x4 floorplan.

    Extends the paper's homogeneous study (this table has no DATE'15
    counterpart): the same power-aware scheduler runs on a mixed
    IO/O3/accelerator grid under the baseline CMOS model and the
    near-threshold variant, against the homogeneous-std control.  The
    dark fraction is the *derived* quantity of the type catalog — it
    reacts to the tile mix and the technology model while the scheduler
    keeps the budget honest (violation rate stays zero).
    """
    from repro.verify.relations import _dark_fraction_of

    base = replace(
        DEFAULT_CONFIG,
        width=4,
        height=4,
        tdp_w=25.0,
        horizon_us=horizon_us,
        seed=seed,
    )
    variants = [
        ("homogeneous", "cmos", ()),
        ("hetero-3type", "cmos", E11_TYPE_GRID),
        ("hetero-3type", "ntv", E11_TYPE_GRID),
    ]
    configs = [
        replace(base, type_grid=grid, tech_model=model)
        for _, model, grid in variants
    ]
    runs = run_many(configs, jobs, cache=cache)
    rows = []
    for (label, model, _), config, result in zip(variants, configs, runs):
        by_type = _tests_by_type(result)
        rows.append(
            [
                label,
                model,
                _dark_fraction_of(config),
                result.throughput_ops_per_us,
                result.tests_completed,
                by_type.get("std", 0),
                by_type.get("io", 0),
                by_type.get("o3", 0),
                by_type.get("accel", 0),
                result.metrics.audit.violation_rate,
            ]
        )
    dark_by_variant = {
        f"dark_fraction[{label}/{model}]": row[2]
        for (label, model, _), row in zip(variants, rows)
    }
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
        scalars=dark_by_variant,
        notes=[
            "repo extension (no DATE'15 counterpart): certifies the "
            "pluggable core-type / technology-model layer end-to-end",
        ],
    )


def experiment_configs(
    horizon_us: float = 60_000.0, seed: int = 11
) -> Dict[str, SystemConfig]:
    """One representative *proposed-policy* config per experiment E1–E9.

    These are the configurations the invariant checker certifies (see
    :mod:`repro.verify`): each experiment's proposed-method variant —
    power-aware testing under PID budgeting — which the paper claims
    never violates the budget.  Baseline variants (power-unaware
    testing, naive TDP policies) violate by design and are exercised as
    the *negative* cases in ``tests/test_verify.py``.
    """
    from repro.core.criticality import CriticalityParameters

    base = replace(DEFAULT_CONFIG, horizon_us=horizon_us, seed=seed)
    return {
        "E1": base,
        "E2": base,
        "E3": replace(base, node_name="45nm"),
        "E4": replace(
            base,
            criticality=CriticalityParameters(
                stress_weight=0.85, time_weight=0.15,
                stress_reference=4.0, time_reference_us=3000.0,
            ),
        ),
        "E5": replace(base, arrival_rate_per_ms=4.0),
        "E6": replace(base, test_level_policy="nominal"),
        "E7": replace(base, mapper="test-aware", arrival_rate_per_ms=3.0),
        "E8": replace(
            base, fault_hazard_per_us=1e-6, fault_stress_scale=10.0
        ),
        "E9": replace(
            base,
            tdp_w=50.0,
            bursty=True,
            profile_names=("small", "medium"),
            profile_weights=(0.5, 0.5),
        ),
        "E11": replace(
            base,
            width=4,
            height=4,
            tdp_w=25.0,
            type_grid=E11_TYPE_GRID,
            tech_model="cmos",
        ),
    }


#: Registry used by the benchmark harness and the CLI example.
EXPERIMENTS = {
    "E1": run_e1_power_trace,
    "E2": run_e2_throughput_penalty,
    "E3": run_e3_tech_nodes,
    "E4": run_e4_adaptivity,
    "E5": run_e5_test_power_share,
    "E6": run_e6_vf_coverage,
    "E7": run_e7_mapping,
    "E8": run_e8_detection_latency,
    "E9": run_e9_pid_ablation,
    "E11": run_e11_hetero,
}


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id (e.g. ``"E2"``).

    The returned result carries a provenance dict (code version, kwargs,
    digest over the rows) so archived tables stay attributable.  A
    ``cache=`` keyword reaches the runner but not the provenance: it
    changes where results come from, never what they are.
    """
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    result = runner(**kwargs)
    import repro
    from repro.obs.provenance import experiment_provenance

    kwargs.pop("cache", None)
    result.provenance = experiment_provenance(
        experiment_id,
        getattr(repro, "__version__", "0"),
        result.rows,
        kwargs,
    )
    return result
