"""Inline runtime invariants over a running simulation.

The paper's claims are inequalities over simulated quantities — chip
power never exceeds the budget, SBST runs only on idle cores, every
state transition follows the core lifecycle — yet the experiments only
sample them after the fact.  An :class:`InvariantChecker` enforces them
*while the simulator runs*, the way thermal-safe test-scheduling work
treats safety as a per-step invariant rather than an endpoint metric.

Design constraints (the no-op-sink invariant, as for the journal):

* **Off by default and free.**  The system holds ``verifier=None``
  unless a checker is passed in; every hook site guards with
  ``if verifier is not None and verifier.enabled:``.  A run without a
  checker is byte-identical to one before this module existed.
* **Read-only.**  Invariants may look at anything but touch nothing:
  no RNG draws, no model floats, no event scheduling.  Enabling the
  checker on a seeded run reproduces the unchecked run's summary digest
  bit for bit (pinned by ``tests/test_verify.py`` and
  ``benchmarks/bench_verify.py``).
* **First-violation provenance.**  Every violation records the message,
  the offending values, and — for the first one — a snapshot of the
  chip/power/queue state, so a red run is debuggable without a rerun.

Violations are recorded (``mode="record"``) or raised
(``mode="raise"`` → :class:`VerificationError`), and mirrored into the
run journal as ``verify.violation`` events when journaling is on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.platform.core import Core, CoreState

#: Legal core state transitions (old, new).  Same-state callbacks (level
#: or leakage retunes) are always legal.  FAULTY is terminal: retirement
#: happens only from TESTING (the runner's detection path), never from
#: IDLE/BUSY — fault *injection* only marks ``fault_present``.
LEGAL_TRANSITIONS = frozenset(
    {
        (CoreState.IDLE, CoreState.BUSY),
        (CoreState.IDLE, CoreState.TESTING),
        (CoreState.BUSY, CoreState.IDLE),
        (CoreState.TESTING, CoreState.IDLE),
        (CoreState.TESTING, CoreState.FAULTY),
    }
)


class VerificationError(RuntimeError):
    """An invariant was violated and the checker runs in ``raise`` mode."""


@dataclass(frozen=True)
class InvariantViolation:
    """One recorded invariant violation.

    ``invariant`` is the violated invariant's name, ``time`` the
    simulation time (µs) the violation was observed at, ``message`` a
    human-readable statement, and ``details`` the offending values.
    """

    invariant: str
    time: float
    message: str
    details: Dict[str, object] = field(default_factory=dict)


class Invariant:
    """One pluggable runtime property.

    Subclasses override :meth:`on_transition` (called on every core
    state/level/leakage change) and/or :meth:`on_tick` (called once per
    control epoch with the breakdown the control loop just computed).
    Both return an iterable of ``(message, details)`` problem tuples —
    empty/None when the property holds.  Implementations must be
    read-only: look, never touch.
    """

    #: Stable identifier used in violations, reports and journal events.
    name = "invariant"

    def on_attach(self, system) -> None:
        """Called once when the checker attaches to a system."""

    def on_transition(
        self, system, core: Core, old: CoreState, new: CoreState, now: float
    ) -> Optional[Iterable[Tuple[str, Dict[str, object]]]]:
        """Check one core transition; return problems (or None)."""
        return None

    def on_tick(
        self, system, now: float, breakdown
    ) -> Optional[Iterable[Tuple[str, Dict[str, object]]]]:
        """Check one control epoch; return problems (or None)."""
        return None


class PowerConservationInvariant(Invariant):
    """The incremental meter equals the reference full scan, per channel.

    The fast-path meter (PR 1) promises bit-identical sums to the
    original O(cores) scan; this re-derives every channel from live core
    state through the unmemoized analytic model and compares within
    ``tolerance_w``.  The scan is the checker's one expensive probe
    (~100 µs on an 8x8 mesh), so it samples every ``audit_every``-th
    epoch — the first epoch always audits — keeping the whole checker
    inside the ≤10% overhead budget ``benchmarks/bench_verify.py``
    enforces.  Pass ``audit_every=1`` for an every-epoch audit; the
    journal replay cross-check covers every epoch regardless.
    """

    name = "power-conservation"

    def __init__(self, tolerance_w: float = 1e-9, audit_every: int = 16) -> None:
        if audit_every < 1:
            raise ValueError("audit_every must be >= 1")
        self.tolerance_w = tolerance_w
        self.audit_every = audit_every
        self._ticks_seen = 0

    def on_tick(self, system, now, breakdown):
        seen = self._ticks_seen
        self._ticks_seen = seen + 1
        if seen % self.audit_every:
            return None
        reference = system.meter.scan_breakdown()
        problems = []
        for channel in ("workload", "test", "leakage", "noc"):
            got = getattr(breakdown, channel)
            want = getattr(reference, channel)
            if abs(got - want) > self.tolerance_w:
                problems.append(
                    (
                        f"meter {channel} channel {got!r} W diverged from "
                        f"full-scan value {want!r} W",
                        {
                            "channel": channel,
                            "incremental_w": got,
                            "scan_w": want,
                            "error_w": got - want,
                        },
                    )
                )
        return problems


class BudgetComplianceInvariant(Invariant):
    """Chip power stays at or below the TDP cap (within tolerance).

    The paper's headline safety property.  The proposed power-aware
    scheduler plus PID budgeting never punctures the cap; the
    power-unaware baseline does by design — run it under this invariant
    and every epoch over budget is recorded with provenance (which cores
    were testing, per-channel powers, active session count).
    """

    name = "budget-compliance"

    def __init__(self, tolerance_w: float = 1e-9) -> None:
        self.tolerance_w = tolerance_w

    def on_tick(self, system, now, breakdown):
        cap = system.budget.cap
        total = breakdown.total
        if total <= cap + self.tolerance_w:
            return None
        return [
            (
                f"chip power {total:.6f} W exceeds cap {cap:g} W "
                f"by {total - cap:.6f} W",
                {
                    "measured_w": total,
                    "cap_w": cap,
                    "overshoot_w": total - cap,
                    "workload_w": breakdown.workload,
                    "test_w": breakdown.test,
                    "leakage_w": breakdown.leakage,
                    "noc_w": breakdown.noc,
                    "testing_cores": sorted(
                        system.chip.state_ids(CoreState.TESTING)
                    ),
                    "active_sessions": len(system.runner.active_sessions()),
                    "scheduler": system.test_scheduler.name,
                },
            )
        ]


class StateLegalityInvariant(Invariant):
    """Every core transition follows the IDLE/BUSY/TESTING/FAULTY lifecycle."""

    name = "state-legality"

    def on_transition(self, system, core, old, new, now):
        if old is new or (old, new) in LEGAL_TRANSITIONS:
            return None
        return [
            (
                f"core {core.core_id} made illegal transition "
                f"{old.name} -> {new.name}",
                {
                    "core": core.core_id,
                    "from_state": old.name,
                    "to_state": new.name,
                },
            )
        ]


class TestNonIntrusivenessInvariant(Invariant):
    """SBST sessions run only on idle, unowned cores (non-intrusive testing).

    Checked both at the moment a core enters TESTING and once per epoch
    over the whole testing set: a core under test must never be owned by
    an application or carry a workload task.
    """

    name = "test-non-intrusiveness"

    @staticmethod
    def _problem(core: Core):
        return (
            f"core {core.core_id} is TESTING while owned by app "
            f"{core.owner_app!r} (task {core.current_task!r})",
            {
                "core": core.core_id,
                "owner_app": core.owner_app,
                "has_task": core.current_task is not None,
            },
        )

    def on_transition(self, system, core, old, new, now):
        if new is CoreState.TESTING and old is not new:
            if core.owner_app is not None or core.current_task is not None:
                return [self._problem(core)]
        return None

    def on_tick(self, system, now, breakdown):
        problems = []
        for core in system.chip.testing_cores():
            if core._owner_app is not None or core.current_task is not None:
                problems.append(self._problem(core))
        return problems


class TimeMonotonicityInvariant(Invariant):
    """Observed simulation time never decreases across hooks."""

    name = "time-monotonicity"

    def __init__(self) -> None:
        #: Latest time a hook observed; the fused listener advances it too.
        self.last: Optional[float] = None

    def _advance(self, now: float):
        last = self.last
        if last is not None and now < last:
            return [
                (
                    f"time went backwards: {now:g} us after {last:g} us",
                    {"now_us": now, "previous_us": last},
                )
            ]
        self.last = now
        return None

    def on_transition(self, system, core, old, new, now):
        return self._advance(now)

    def on_tick(self, system, now, breakdown):
        return self._advance(now)


class NocLinkSanityInvariant(Invariant):
    """NoC bookkeeping stays physical: link loads and NoC power >= 0.

    The analytic NoC keeps per-link flit loads; a negative load means a
    release without a matching occupy.  The queued NoC has no per-link
    ledger, so there only the registered NoC power is checked.
    """

    name = "noc-link-sanity"

    def __init__(self, tolerance: float = 1e-9) -> None:
        self.tolerance = tolerance

    def on_tick(self, system, now, breakdown):
        problems = []
        if breakdown.noc < -self.tolerance:
            problems.append(
                (
                    f"registered NoC power is negative: {breakdown.noc!r} W",
                    {"noc_w": breakdown.noc},
                )
            )
        link_loads = getattr(system.noc, "link_loads", None)
        if callable(link_loads):
            for link, load in link_loads().items():
                if load < -self.tolerance:
                    problems.append(
                        (
                            f"link {link} carries negative load {load!r}",
                            {"link": link, "load_flits": load},
                        )
                    )
        return problems


class ThermalSafetyInvariant(Invariant):
    """No SBST session starts on a core hotter than the thermal guard.

    A test schedule is thermal-safe when no session takes a core over
    its limit (Rosinger et al.); the system admits a session only while
    every core is ``thermal_test_margin_c`` below ``thermal.limit_c``.
    Sessions start only in the control tick's scheduler step, after the
    thermal model steps, so the temperatures read here are the ones
    each start saw.  A session pre-empted in the tick it started in has
    left the active set; the hottest core stands in for its core.
    """

    name = "thermal-safety"

    def __init__(self) -> None:
        self._started = 0

    def on_tick(self, system, now, breakdown):
        thermal = system.thermal
        if thermal is None:
            return None
        started = system.runner.stats.started
        new, self._started = started - self._started, started
        if not new:
            return None
        cores = [
            session.core.core_id
            for session in system.runner.active_sessions()
            if session.started_at == now
        ]
        if len(cores) < new:
            cores.append(thermal.hottest_core_id())
        guard_c = thermal.params.limit_c - system.config.thermal_test_margin_c
        temps = {core_id: thermal.temperature(core_id) for core_id in cores}
        return [
            (
                f"SBST session started on core {core_id} at {temp:.3f} C, "
                f"over the {guard_c:g} C guard",
                {"core": core_id, "temperature_c": temp, "guard_c": guard_c},
            )
            for core_id, temp in temps.items()
            if temp > guard_c
        ]


def default_invariants() -> List[Invariant]:
    """Fresh instances of the full invariant catalog."""
    return [
        PowerConservationInvariant(),
        BudgetComplianceInvariant(),
        StateLegalityInvariant(),
        TestNonIntrusivenessInvariant(),
        TimeMonotonicityInvariant(),
        NocLinkSanityInvariant(),
        ThermalSafetyInvariant(),
    ]


#: Compact per-state character codes used in ``verify.cores`` snapshots.
STATE_CODES: Dict[CoreState, str] = {
    CoreState.IDLE: "i",
    CoreState.BUSY: "b",
    CoreState.TESTING: "t",
    CoreState.FAULTY: "f",
}


class InvariantChecker:
    """Runs a set of invariants against one live simulation.

    Attach via ``run_system(config, verifier=InvariantChecker())`` (or
    pass to :class:`~repro.core.system.ManycoreSystem`): the system
    subscribes the checker to the chip's transition feed and calls
    :meth:`on_control_tick` once per epoch with the breakdown it already
    computed, so checking adds no extra meter queries.

    ``mode`` is ``"record"`` (collect into :attr:`violations`, bounded
    by ``max_violations``) or ``"raise"`` (first violation raises
    :class:`VerificationError`).  When the attached system journals,
    violations are mirrored as ``verify.violation`` events and — when
    ``emit_replay`` — per-epoch ``verify.cores``/``verify.power``
    snapshots are emitted for the offline re-simulator
    (:func:`repro.verify.replay.replay_journal`).
    """

    def __init__(
        self,
        invariants: Optional[List[Invariant]] = None,
        mode: str = "record",
        max_violations: int = 1000,
        emit_replay: bool = True,
        enabled: bool = True,
    ) -> None:
        if mode not in ("record", "raise"):
            raise ValueError(f"unknown checker mode {mode!r}")
        if max_violations < 1:
            raise ValueError("max_violations must be >= 1")
        self.invariants = (
            list(invariants) if invariants is not None else default_invariants()
        )
        self.mode = mode
        self.max_violations = max_violations
        self.emit_replay = emit_replay
        self.enabled = enabled
        self.violations: List[InvariantViolation] = []
        #: Violations not recorded because ``max_violations`` was reached.
        self.suppressed = 0
        self.checks_run = 0
        self.ticks_checked = 0
        #: Chip/power/queue snapshot taken at the first violation.
        self.first_snapshot: Optional[Dict[str, object]] = None
        self._system = None
        self._sim = None
        self._transition_invariants: List[Invariant] = []
        self._tick_invariants: List[Invariant] = []
        #: Exact-type instances for the fused listener (see attach).
        self._fused: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, system) -> None:
        """Subscribe to ``system``'s transition feed and journal."""
        if not self.enabled:
            return
        if self._system is not None:
            raise RuntimeError("checker is already attached to a system")
        self._system = system
        self._sim = system.sim
        base_tr = Invariant.on_transition
        base_tk = Invariant.on_tick
        for inv in self.invariants:
            inv.on_attach(system)
            if type(inv).on_transition is not base_tr:
                self._transition_invariants.append(inv)
            if type(inv).on_tick is not base_tk:
                self._tick_invariants.append(inv)
        if self._transition_invariants:
            # The transition feed fires on every core mutation (thousands
            # per run), so when the subscribed invariants are exactly the
            # stock ones a fused listener replays their cheap predicates
            # inline and only falls back to the invariant objects to
            # format an actual violation.  Custom invariants (or
            # subclasses) get the generic per-invariant loop.
            fused = {
                StateLegalityInvariant: None,
                TestNonIntrusivenessInvariant: None,
                TimeMonotonicityInvariant: None,
            }
            fusable = True
            for inv in self._transition_invariants:
                if type(inv) in fused and fused[type(inv)] is None:
                    fused[type(inv)] = inv
                else:
                    fusable = False
                    break
            if fusable:
                self._fused = (
                    fused[StateLegalityInvariant],
                    fused[TestNonIntrusivenessInvariant],
                    fused[TimeMonotonicityInvariant],
                )
                system.chip.add_transition_listener(
                    self._fused_listener(*self._fused)
                )
            else:
                system.chip.add_transition_listener(self._on_transition)
        if system.journal.enabled and self.emit_replay:
            self._emit_platform(system)

    @property
    def ok(self) -> bool:
        """True iff no invariant has been violated so far."""
        return not self.violations and not self.suppressed

    # ------------------------------------------------------------------
    # Hook entry points (called by ManycoreSystem)
    # ------------------------------------------------------------------
    def _on_transition(self, core: Core, old: CoreState, new: CoreState) -> None:
        system = self._system
        now = system.sim.now
        for inv in self._transition_invariants:
            self.checks_run += 1
            problems = inv.on_transition(system, core, old, new, now)
            if problems:
                for message, details in problems:
                    self._record(inv.name, now, message, details)

    def _fused_listener(self, legality, nonintr, mono) -> Callable:
        """A listener inlining the predicates of the stock invariants.

        Semantically identical to :meth:`_on_transition` over the same
        invariants (``tests/test_verify.py`` pins the equivalence): each
        predicate mirrors its invariant's fast "property holds" path,
        and any suspect transition is handed back to the invariant
        object so violation messages and per-invariant state stay the
        canonical ones.  A closure: it runs on every core mutation.
        """
        checks = len(self._transition_invariants)
        sim = self._sim
        slow_check = self._slow_check
        testing = CoreState.TESTING

        def listener(core: Core, old: CoreState, new: CoreState) -> None:
            self.checks_run += checks
            if old is not new:
                if legality is not None and (old, new) not in LEGAL_TRANSITIONS:
                    slow_check(legality, core, old, new)
                if (
                    nonintr is not None
                    and new is testing
                    and (
                        core._owner_app is not None
                        or core.current_task is not None
                    )
                ):
                    slow_check(nonintr, core, old, new)
            if mono is not None:
                now = sim.now
                last = mono.last
                if last is not None and now < last:
                    slow_check(mono, core, old, new)
                else:
                    mono.last = now

        return listener

    def _slow_check(
        self, inv: Invariant, core: Core, old: CoreState, new: CoreState
    ) -> None:
        """Run one invariant's full hook (the fused path's violation leg)."""
        now = self._sim.now
        problems = inv.on_transition(self._system, core, old, new, now)
        if problems:
            for message, details in problems:
                self._record(inv.name, now, message, details)

    def on_control_tick(self, system, now: float, breakdown) -> None:
        """Run every per-epoch invariant against the epoch's breakdown."""
        self.ticks_checked += 1
        for inv in self._tick_invariants:
            self.checks_run += 1
            problems = inv.on_tick(system, now, breakdown)
            if problems:
                for message, details in problems:
                    self._record(inv.name, now, message, details)
        if system.journal.enabled and self.emit_replay:
            self._emit_tick(system, now, breakdown)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(
        self, invariant: str, now: float, message: str, details: Dict[str, object]
    ) -> None:
        system = self._system
        if self.first_snapshot is None and system is not None:
            self.first_snapshot = self.snapshot(system, now)
        if system is not None and system.journal.enabled:
            system.journal.emit(
                "verify.violation",
                now,
                invariant=invariant,
                message=message,
                **details,
            )
        if len(self.violations) < self.max_violations:
            self.violations.append(
                InvariantViolation(
                    invariant=invariant,
                    time=now,
                    message=message,
                    details=dict(details),
                )
            )
        else:
            self.suppressed += 1
        if self.mode == "raise":
            raise VerificationError(
                f"[{invariant}] at t={now:g} us: {message}"
            )

    @staticmethod
    def snapshot(system, now: float) -> Dict[str, object]:
        """Read-only provenance snapshot of the system's current state."""
        chip = system.chip
        breakdown = system.meter.breakdown()
        return {
            "time_us": now,
            "cores": {
                state.name: len(chip.state_ids(state)) for state in CoreState
            },
            "power": {
                "workload_w": breakdown.workload,
                "test_w": breakdown.test,
                "leakage_w": breakdown.leakage,
                "noc_w": breakdown.noc,
                "total_w": breakdown.total,
                "cap_w": system.budget.cap,
            },
            "queue_length": len(system.queue),
            "active_sessions": len(system.runner.active_sessions()),
            "scheduler": system.test_scheduler.name,
            "power_policy": system.power_manager.name,
        }

    def summary(self) -> Dict[str, object]:
        """Flat roll-up: counts per invariant, checks run, first snapshot."""
        per_invariant: Dict[str, int] = {}
        for violation in self.violations:
            per_invariant[violation.invariant] = (
                per_invariant.get(violation.invariant, 0) + 1
            )
        return {
            "ok": self.ok,
            "violations": len(self.violations) + self.suppressed,
            "suppressed": self.suppressed,
            "per_invariant": per_invariant,
            "checks_run": self.checks_run,
            "ticks_checked": self.ticks_checked,
            "invariants": [inv.name for inv in self.invariants],
            "first_snapshot": self.first_snapshot,
        }

    # ------------------------------------------------------------------
    # Replay emission (journal payloads for the offline re-simulator)
    # ------------------------------------------------------------------
    @staticmethod
    def _emit_platform(system) -> None:
        chip = system.chip
        meter = system.meter
        payload = dict(
            node=system.config.node_name,
            width=chip.width,
            height=chip.height,
            gated_leak_fraction=meter.gated_leak_fraction,
            default_activity=meter.default_activity,
            vf_levels=[[level.vdd, level.f_mhz] for level in chip.vf_table],
            leak_factors=[core.leak_factor for core in chip],
        )
        if chip.is_heterogeneous:
            # Hetero-only keys: degenerate (homogeneous-std, baseline
            # model) journals must stay byte-identical to the
            # pre-heterogeneity format, so these are gated, not defaulted.
            payload["tech_model"] = chip.tech_model.name
            payload["core_types"] = [core.core_type.name for core in chip]
        system.journal.emit("verify.platform", system.sim.now, **payload)

    @staticmethod
    def _emit_tick(system, now: float, breakdown) -> None:
        meter = system.meter
        cores = [
            [STATE_CODES[core._state], core._level.index, meter.activity_of(core.core_id)]
            for core in system.chip
        ]
        system.journal.emit("verify.cores", now, cores=cores)
        system.journal.emit(
            "verify.power",
            now,
            workload_w=breakdown.workload,
            test_w=breakdown.test,
            leakage_w=breakdown.leakage,
            noc_w=breakdown.noc,
        )
