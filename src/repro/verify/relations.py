"""Metamorphic relations over simulation configurations.

A :class:`MetamorphicRelation` states how a *transformation of the
config* must move the *outputs*, independent of any golden number:
raising the power budget cannot lower throughput, a zero fault rate
cannot produce detections, permuting seeds cannot change the multiset
of per-seed digests.  Relations catch regressions in scheduler / power
/ mapping logic by construction — a broken policy violates the
inequality even when every unit test still passes — which is the same
role power-constraint monotonicity plays in hybrid-BIST scheduling
work.

Each relation is three pure pieces:

* :meth:`configs` — the runs the relation needs, derived from a base
  :class:`~repro.core.system.SystemConfig`;
* :meth:`observe` — project one :class:`SimulationResult` down to the
  plain-dict sample the relation reasons about;
* :meth:`check` — decide over the list of samples, returning failure
  messages (empty = holds).

``check`` never touches a result object, so the checkers themselves are
property-testable on synthetic samples (see ``tests/test_verify.py``'s
hypothesis suite), and :func:`check_relations` executes any set of
relations through :func:`repro.experiments.parallel.run_many` with full
cache reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro._sum import lsum
from repro.obs.provenance import digest_of
from repro.platform.chip import Chip


class MetamorphicRelation:
    """One declarative config-transformation property."""

    #: Stable identifier (registry key, report row, CLI argument).
    name = "relation"
    #: One-line statement of the property.
    description = ""
    #: The paper claim the relation guards (see docs/verification.md).
    paper_claim = ""

    def configs(self, base) -> List:
        """The configs to run, derived from ``base``."""
        raise NotImplementedError

    def observe(self, result) -> Dict[str, object]:
        """Project one simulation result to the sample ``check`` needs."""
        raise NotImplementedError

    def check(self, samples: List[Dict[str, object]]) -> List[str]:
        """Failure messages over the samples (empty when the relation holds)."""
        raise NotImplementedError


class BudgetMonotonicThroughput(MetamorphicRelation):
    """Raising the TDP budget must not lower throughput.

    More budget means the PID manager throttles less and the mapper can
    light more cores; within a relative ``tolerance`` (discrete
    admission of whole applications makes tiny non-monotonic steps
    possible at short horizons), throughput is non-decreasing in the
    cap.
    """

    name = "budget-monotonic-throughput"
    description = "tdp_w up => throughput_ops_per_us non-decreasing"
    paper_claim = (
        "the power-aware approach utilises the available power budget; "
        "more budget can only help the workload (E1/E9 substrate)"
    )

    def __init__(
        self,
        factors: Sequence[float] = (1.0, 1.5, 2.0),
        tolerance: float = 0.02,
    ) -> None:
        if sorted(factors) != list(factors) or len(factors) < 2:
            raise ValueError("factors must be ascending and >= 2 points")
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.factors = tuple(factors)
        self.tolerance = tolerance

    def configs(self, base):
        return [
            replace(base, tdp_w=base.tdp_w * factor) for factor in self.factors
        ]

    def observe(self, result):
        return {
            "tdp_w": result.config.tdp_w,
            "throughput": result.throughput_ops_per_us,
        }

    def check(self, samples):
        ordered = sorted(samples, key=lambda s: s["tdp_w"])
        failures = []
        for lo, hi in zip(ordered, ordered[1:]):
            floor = lo["throughput"] * (1.0 - self.tolerance)
            if hi["throughput"] < floor:
                failures.append(
                    f"throughput dropped from {lo['throughput']:.6g} at "
                    f"tdp={lo['tdp_w']:g} W to {hi['throughput']:.6g} at "
                    f"tdp={hi['tdp_w']:g} W (beyond {self.tolerance:.0%} "
                    f"tolerance)"
                )
        return failures


class ZeroHazardZeroFaults(MetamorphicRelation):
    """With a zero fault hazard, nothing is injected and nothing detected."""

    name = "zero-hazard-zero-faults"
    description = "fault_hazard_per_us = 0 => injected = detected = 0"
    paper_claim = "detections come only from injected faults (E8 soundness)"

    def configs(self, base):
        return [replace(base, fault_hazard_per_us=0.0)]

    def observe(self, result):
        summary = result.summary()
        return {
            "injected": summary["faults_injected"],
            "detected": summary["faults_detected"],
        }

    def check(self, samples):
        failures = []
        for sample in samples:
            if sample["injected"] != 0 or sample["detected"] != 0:
                failures.append(
                    f"zero hazard produced {sample['injected']:g} injected / "
                    f"{sample['detected']:g} detected fault(s)"
                )
        return failures


class SeedPermutationInvariance(MetamorphicRelation):
    """Run order cannot matter: per-seed digests form the same multiset.

    The same seeds are run twice, in opposite orders, **without**
    deduplication — the point is to catch cross-run state leaks (module
    caches, RNG reuse) that only show when run N pollutes run N+1.
    """

    name = "seed-permutation-invariance"
    description = "permuting the seed list leaves per-seed digests unchanged"
    paper_claim = (
        "experiment tables are seed-reproducible regardless of sweep order"
    )

    def __init__(self, seeds: Sequence[int] = (11, 23, 47)) -> None:
        if len(seeds) < 2 or len(set(seeds)) != len(seeds):
            raise ValueError("need >= 2 distinct seeds")
        self.seeds = tuple(seeds)

    def configs(self, base):
        forward = [replace(base, seed=seed) for seed in self.seeds]
        backward = [replace(base, seed=seed) for seed in reversed(self.seeds)]
        return forward + backward

    def observe(self, result):
        return {
            "seed": result.config.seed,
            "digest": digest_of(sorted(result.summary().items())),
        }

    def check(self, samples):
        half = len(samples) // 2
        forward = sorted(
            (s["seed"], s["digest"]) for s in samples[:half]
        )
        backward = sorted(
            (s["seed"], s["digest"]) for s in samples[half:]
        )
        if forward != backward:
            drifted = [
                f"seed {fs[0]}"
                for fs, bs in zip(forward, backward)
                if fs != bs
            ]
            return [
                "per-seed digests changed under permutation: "
                + ", ".join(drifted or ["(length mismatch)"])
            ]
        return []


class LevelDomainCoverage(MetamorphicRelation):
    """Shrinking the tested level set shrinks coverage accordingly.

    ``rotate`` may cover any level of the ladder but never one outside
    it; ``nominal`` shrinks the candidate set to the top level, so its
    coverage must be a subset of ``{n_vf_levels - 1}`` (and of rotate's
    domain).
    """

    name = "level-domain-coverage"
    description = (
        "covered V/F levels stay inside the ladder; nominal covers only "
        "the top level"
    )
    paper_claim = (
        "cover all the voltage and frequency levels during the various "
        "tests (E6, TC'16)"
    )

    def configs(self, base):
        return [
            replace(base, test_level_policy="rotate"),
            replace(base, test_level_policy="nominal"),
        ]

    def observe(self, result):
        return {
            "policy": result.config.test_level_policy,
            "n_levels": result.config.n_vf_levels,
            "covered": sorted(
                level
                for level, count in result.per_level_tests.items()
                if count > 0
            ),
        }

    def check(self, samples):
        failures = []
        for sample in samples:
            domain = set(range(sample["n_levels"]))
            covered = set(sample["covered"])
            if not covered <= domain:
                failures.append(
                    f"{sample['policy']} covered levels outside the ladder: "
                    f"{sorted(covered - domain)}"
                )
            if sample["policy"] == "nominal":
                top = {sample["n_levels"] - 1}
                if not covered <= top:
                    failures.append(
                        "nominal policy covered non-top levels: "
                        f"{sorted(covered - top)}"
                    )
        return failures


class NoTestPolicyZeroTests(MetamorphicRelation):
    """Disabling testing removes every test and all test energy."""

    name = "no-test-policy-zero-tests"
    description = "test_policy = none => zero tests, zero test energy"
    paper_claim = (
        "the throughput baseline (E2's `none` row) is genuinely test-free"
    )

    def configs(self, base):
        return [replace(base, test_policy="none")]

    def observe(self, result):
        summary = result.summary()
        return {
            "tests": summary["tests_completed"],
            "aborted": summary["tests_aborted"],
            "test_share": summary["test_power_share"],
        }

    def check(self, samples):
        failures = []
        for sample in samples:
            if (
                sample["tests"] != 0
                or sample["aborted"] != 0
                or sample["test_share"] != 0.0
            ):
                failures.append(
                    f"test_policy=none still produced {sample['tests']:g} "
                    f"test(s), {sample['aborted']:g} abort(s), "
                    f"{sample['test_share']:.3g} energy share"
                )
        return failures


# ----------------------------------------------------------------------
# Heterogeneous-platform relations (E11 family)
# ----------------------------------------------------------------------
class TypePermutationDarkInvariance(MetamorphicRelation):
    """Shuffling tile placement cannot move the dark-silicon ratio.

    The dark fraction is a budget property of the *type mix* (how much
    peak power the catalog demands against the TDP), not of where the
    tiles sit: any permutation of the same type multiset over the mesh
    must yield an identical dark fraction and identical type counts.
    The permutations used (reversal, rotations) are deterministic, and
    every permuted floorplan also runs end-to-end, so a placement-
    dependent leak into the budget maths shows up as an exact-equality
    failure here.
    """

    name = "type-permutation-dark-invariance"
    description = (
        "permuting tile placement leaves dark fraction and type counts "
        "unchanged"
    )
    paper_claim = (
        "the dark-silicon ratio is set by the power budget versus peak "
        "demand, not by the floorplan (E11 hetero family)"
    )

    def configs(self, base):
        names = [core.core_type.name for core in Chip.from_config(base)]
        if len(set(names)) == 1:
            # A homogeneous base is uninformative; mix the catalog over
            # the mesh deterministically so permutations can differ.
            cycle = ("std", "io", "o3", "accel")
            names = [cycle[i % len(cycle)] for i in range(len(names))]
        half = len(names) // 2
        grids = [
            names,
            list(reversed(names)),
            names[half:] + names[:half],
            names[1:] + names[:1],
        ]
        return [replace(base, type_grid=tuple(g)) for g in grids]

    def observe(self, result):
        chip = Chip.from_config(result.config)
        counts = ((ctype.name, n) for ctype, n in chip.type_counts().items())
        return {"counts": tuple(sorted(counts)), "dark": chip.dark_fraction()}

    def check(self, samples):
        failures = []
        reference = samples[0] if samples else None
        for sample in samples[1:]:
            if sample["counts"] != reference["counts"]:
                failures.append(
                    f"type counts changed under permutation: "
                    f"{reference['counts']} vs {sample['counts']}"
                )
            if sample["dark"] != reference["dark"]:
                failures.append(
                    f"dark fraction moved under permutation: "
                    f"{reference['dark']!r} vs {sample['dark']!r}"
                )
        return failures


class AccelCountDarkMonotonic(MetamorphicRelation):
    """More accelerator tiles cannot shrink the dark fraction.

    An ``accel`` tile's peak power exceeds ``std``'s under every
    registered technology model and node (its 2.5x dynamic scale
    dominates the 0.5x leakage discount), so swapping std tiles for
    accelerators raises peak demand against a fixed TDP: the dark
    fraction is non-decreasing in the accelerator count, and always a
    valid fraction in [0, 1].
    """

    name = "accel-count-dark-monotonic"
    description = (
        "swapping std tiles for accel tiles => dark fraction "
        "non-decreasing, always in [0, 1]"
    )
    paper_claim = (
        "hotter tile mixes darken the chip at fixed TDP (dark-silicon "
        "premise, E11 hetero family)"
    )

    def configs(self, base):
        n_cores = base.width * base.height
        counts = sorted({0, n_cores // 4, n_cores // 2, n_cores})
        grids = [
            tuple(["accel"] * k + ["std"] * (n_cores - k)) for k in counts
        ]
        return [replace(base, type_grid=grid) for grid in grids]

    def observe(self, result):
        chip = Chip.from_config(result.config)
        return {
            "n_accel": [c.core_type.name for c in chip].count("accel"),
            "dark": chip.dark_fraction(),
        }

    def check(self, samples):
        failures = []
        for sample in samples:
            if not 0.0 <= sample["dark"] <= 1.0:
                failures.append(
                    f"dark fraction {sample['dark']!r} outside [0, 1] at "
                    f"{sample['n_accel']} accel tile(s)"
                )
        ordered = sorted(samples, key=lambda s: s["n_accel"])
        for lo, hi in zip(ordered, ordered[1:]):
            if hi["dark"] < lo["dark"]:
                failures.append(
                    f"dark fraction dropped from {lo['dark']!r} at "
                    f"{lo['n_accel']} accel tile(s) to {hi['dark']!r} at "
                    f"{hi['n_accel']}"
                )
        return failures


class TypedZeroHazardTypedZeroFaults(MetamorphicRelation):
    """Tiles of a zero-hazard type never fault, even on a faulting chip.

    Registers a ``canary`` control type through the pluggable catalog
    (std scales, ``fault_hazard_scale = 0``) and interleaves it with
    ``o3`` tiles: the o3 tiles may fault freely, but a fault record on a
    canary tile means the per-type hazard scaling leaked.  The zero
    scale keeps the per-core RNG draw (one Bernoulli per core per
    hazard step) so the other tiles' fault streams stay aligned with
    their homogeneous counterparts.
    """

    name = "typed-zero-hazard-typed-zero-faults"
    description = (
        "a zero-hazard tile type records zero faults while other types "
        "may fault"
    )
    paper_claim = (
        "per-type fault processes are independent; detections trace to "
        "their tile (E8 soundness, E11 hetero family)"
    )

    def __init__(self, seeds: Sequence[int] = (11, 23)) -> None:
        if not seeds:
            raise ValueError("need >= 1 seed")
        self.seeds = tuple(seeds)

    @staticmethod
    def _ensure_canary():
        from repro.platform.coretypes import (
            CORE_TYPES,
            CoreType,
            register_core_type,
        )

        if "canary" not in CORE_TYPES:
            register_core_type(
                CoreType(
                    name="canary",
                    description=(
                        "zero-hazard control tile for the metamorphic "
                        "relation suite"
                    ),
                    fault_hazard_scale=0.0,
                )
            )

    def configs(self, base):
        self._ensure_canary()
        n_cores = base.width * base.height
        grid = tuple(
            "canary" if i % 2 == 0 else "o3" for i in range(n_cores)
        )
        return [
            replace(base, type_grid=grid, seed=seed) for seed in self.seeds
        ]

    def observe(self, result):
        chip = Chip.from_config(result.config)
        canary_faults = sorted(
            record.core_id
            for record in result.fault_records
            if chip.core(record.core_id).core_type.name == "canary"
        )
        return {
            "seed": result.config.seed,
            "canary_faults": canary_faults,
            "n_faults": len(result.fault_records),
        }

    def check(self, samples):
        failures = []
        for sample in samples:
            if sample["canary_faults"]:
                failures.append(
                    f"seed {sample['seed']}: zero-hazard canary tiles "
                    f"{sample['canary_faults']} recorded fault(s) "
                    f"({sample['n_faults']} total on chip)"
                )
        return failures


def hetero_relations() -> List[MetamorphicRelation]:
    """Fresh instances of the heterogeneous-platform relation catalog.

    Kept separate from :func:`default_relations` so homogeneous
    campaign verification keeps its pre-heterogeneity run count; the
    E11 experiment family checks both catalogs.
    """
    return [
        TypePermutationDarkInvariance(),
        AccelCountDarkMonotonic(),
        TypedZeroHazardTypedZeroFaults(),
    ]


def default_relations() -> List[MetamorphicRelation]:
    """Fresh instances of the full relation catalog."""
    return [
        BudgetMonotonicThroughput(),
        ZeroHazardZeroFaults(),
        SeedPermutationInvariance(),
        LevelDomainCoverage(),
        NoTestPolicyZeroTests(),
    ]


#: Registry of relation factories by name (CLI ``verify relations``).
RELATIONS: Dict[str, Callable[[], MetamorphicRelation]] = {
    cls.name: cls
    for cls in (
        BudgetMonotonicThroughput,
        ZeroHazardZeroFaults,
        SeedPermutationInvariance,
        LevelDomainCoverage,
        NoTestPolicyZeroTests,
        TypePermutationDarkInvariance,
        AccelCountDarkMonotonic,
        TypedZeroHazardTypedZeroFaults,
    )
}


@dataclass
class RelationOutcome:
    """Result of checking one relation."""

    name: str
    description: str
    n_runs: int
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff the relation held over all its runs."""
        return not self.failures


@dataclass
class RelationReport:
    """Aggregate over a relation suite."""

    outcomes: List[RelationOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff every relation in the suite held."""
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def n_runs(self) -> int:
        """Total simulation runs the suite consumed."""
        return lsum(outcome.n_runs for outcome in self.outcomes)

    def failures(self) -> List[str]:
        """Every failure message, prefixed with its relation name."""
        return [
            f"[{outcome.name}] {message}"
            for outcome in self.outcomes
            for message in outcome.failures
        ]


def check_relations(
    base,
    relations: Optional[Sequence[MetamorphicRelation]] = None,
    jobs: Optional[int] = None,
    cache=None,
    runner: Optional[Callable] = None,
) -> RelationReport:
    """Execute a relation suite against a base config.

    All runs across all relations go through one
    :func:`~repro.experiments.parallel.run_many` call (parallel- and
    cache-friendly; duplicated configs across relations are served from
    the cache when one is given).  ``runner`` replaces ``run_many`` for
    tests that substitute a broken-policy stub.
    """
    if relations is None:
        relations = default_relations()
    if runner is None:
        from repro.experiments.parallel import run_many

        runner = run_many
    spans = []
    configs = []
    for relation in relations:
        wanted = relation.configs(base)
        spans.append((relation, len(wanted)))
        configs.extend(wanted)
    results = runner(configs, jobs, cache=cache) if configs else []
    report = RelationReport()
    cursor = 0
    for relation, count in spans:
        samples = [
            relation.observe(result)
            for result in results[cursor:cursor + count]
        ]
        cursor += count
        report.outcomes.append(
            RelationOutcome(
                name=relation.name,
                description=relation.description,
                n_runs=count,
                failures=relation.check(samples),
            )
        )
    return report
