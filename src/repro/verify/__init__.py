"""repro.verify: runtime invariants + metamorphic verification.

The correctness counterpart to :mod:`repro.obs`'s observability layer,
in three pieces:

* **Inline invariants** (:mod:`repro.verify.invariants`) — one fixed
  catalog of :class:`Invariant` objects checked while the simulator
  runs: power conservation (incremental meter vs. reference scan),
  budget compliance with violation provenance, core state-machine
  legality, test non-intrusiveness (SBST only on idle cores),
  event-time monotonicity, NoC link sanity, thermal safety.  Attached
  via ``run_system(config, verifier=InvariantChecker())`` or the CLI's
  ``--verify`` flag; with no checker a run is byte-identical to an
  unverified one.
* **Metamorphic relations** (:mod:`repro.verify.relations`) —
  declarative config-transformation properties (budget up ⇒ throughput
  non-decreasing, zero hazard ⇒ zero detections, seed-permutation
  invariance, level-domain coverage, no-test ⇒ zero tests) executed
  through ``run_many`` with cache reuse.  A separate heterogeneous
  catalog (:func:`~repro.verify.relations.hetero_relations`) certifies
  the E11 platform family: type-permutation dark-fraction invariance,
  accelerator-count dark monotonicity, typed zero-hazard soundness.
* **Journal replay** (:mod:`repro.verify.replay`) — an independent
  re-simulator that recomputes every epoch's power breakdown from
  journal snapshots and cross-checks the live meter bit-for-bit.

Quick check of one config::

    >>> from repro import SystemConfig
    >>> from repro.verify import verify_config
    >>> result, checker = verify_config(SystemConfig(horizon_us=2_000.0))
    >>> checker.ok
    True

See ``docs/verification.md`` for the invariant catalog and the mapping
from relations to paper claims.
"""

from repro.verify.invariants import (
    TOLERANCE_W,
    BudgetComplianceInvariant,
    Invariant,
    InvariantChecker,
    InvariantViolation,
    NocLinkSanityInvariant,
    PowerConservationInvariant,
    StateLegalityInvariant,
    TestNonIntrusivenessInvariant,
    ThermalSafetyInvariant,
    TimeMonotonicityInvariant,
    default_invariants,
)
from repro.verify.relations import (
    RELATIONS,
    AccelCountDarkMonotonic,
    BudgetMonotonicThroughput,
    LevelDomainCoverage,
    MetamorphicRelation,
    NoTestPolicyZeroTests,
    RelationOutcome,
    RelationReport,
    SeedPermutationInvariance,
    TypePermutationDarkInvariance,
    TypedZeroHazardTypedZeroFaults,
    ZeroHazardZeroFaults,
    check_relations,
    default_relations,
    hetero_relations,
)
from repro.verify.replay import ReplayError, ReplayReport, replay_journal


def verify_config(config, journal=None):
    """Run one config under the invariant checker.

    Returns ``(result, checker)``; inspect ``checker.ok`` /
    ``checker.violations`` / ``checker.summary()``.  With a
    ``journal`` the run also records the replay snapshots.
    """
    # Imported lazily: repro.core.system must not import repro.verify
    # (relations import SystemConfig machinery), so the dependency
    # points this way only.
    from repro.core.system import run_system

    checker = InvariantChecker()
    result = run_system(config, journal=journal, verifier=checker)
    return result, checker


__all__ = [
    "AccelCountDarkMonotonic",
    "BudgetComplianceInvariant",
    "BudgetMonotonicThroughput",
    "Invariant",
    "InvariantChecker",
    "InvariantViolation",
    "LevelDomainCoverage",
    "MetamorphicRelation",
    "NoTestPolicyZeroTests",
    "NocLinkSanityInvariant",
    "PowerConservationInvariant",
    "RELATIONS",
    "RelationOutcome",
    "RelationReport",
    "ReplayError",
    "ReplayReport",
    "SeedPermutationInvariance",
    "StateLegalityInvariant",
    "TOLERANCE_W",
    "TestNonIntrusivenessInvariant",
    "ThermalSafetyInvariant",
    "TimeMonotonicityInvariant",
    "TypePermutationDarkInvariance",
    "TypedZeroHazardTypedZeroFaults",
    "ZeroHazardZeroFaults",
    "check_relations",
    "default_invariants",
    "default_relations",
    "hetero_relations",
    "replay_journal",
    "verify_config",
]
