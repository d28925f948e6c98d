"""Chip power metering.

The meter turns the instantaneous platform state (which cores are busy,
testing or gated, at which DVFS level, plus registered NoC transfer power)
into Watts, split into the channels the experiments report:

* ``workload`` — dynamic power of cores executing tasks;
* ``test``     — dynamic power of cores executing SBST routines;
* ``leakage``  — static power of all powered (non-gated) cores;
* ``noc``      — power of in-flight NoC transfers.

Idle cores are power gated and retain only a small gated-leakage fraction;
retired (faulty) cores are fully dark.

**Fast path.** The meter subscribes to the chip's core-transition feed
and keeps a per-core cache of each core's dynamic and leakage
contribution (dynamic straight from the technology model, leakage from a
per-chip table of the model's values), plus per-channel sums.  A query
between transitions reads the sums as they are; after a transition it
re-sums each channel whose members or member watts changed, once, over
dense per-core arrays (a core's watts in that channel, else ``0.0``).
The re-sum runs in ascending core-id order — exactly the order the
original full scan used — and a ``+0.0`` term changes neither a plain
nor a compensated float sum, so the fast path is **bit-identical** to
the scan, not an approximation.
The original scan survives as :meth:`scan_breakdown` and can be run as a
periodic audit against the incremental sums via ``verify_every_n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Dict, List, Optional

from repro._sum import lsum
from repro.platform.chip import Chip
from repro.platform.core import Core, CoreState
from repro.platform.dvfs import VFLevel


@dataclass(frozen=True)
class PowerBreakdown:
    """Instantaneous chip power, per channel, in Watts."""

    workload: float
    test: float
    leakage: float
    noc: float

    @property
    def total(self) -> float:
        return self.workload + self.test + self.leakage + self.noc


class MeterAuditError(RuntimeError):
    """Incremental sums diverged from the full-scan audit (a meter bug)."""


class PowerMeter:
    """Computes instantaneous chip power from platform state.

    ``verify_every_n`` is a debug knob: when positive, every n-th
    :meth:`breakdown` additionally runs the original full scan and raises
    :class:`MeterAuditError` if any channel deviates by more than
    ``audit_tolerance_w`` — an always-on self-check for long soak runs.
    """

    def __init__(
        self,
        chip: Chip,
        gated_leak_fraction: float = 0.03,
        default_activity: float = 1.0,
        verify_every_n: int = 0,
        audit_tolerance_w: float = 1e-9,
    ) -> None:
        if not 0.0 <= gated_leak_fraction <= 1.0:
            raise ValueError("gated_leak_fraction must be in [0, 1]")
        if verify_every_n < 0:
            raise ValueError("verify_every_n must be non-negative")
        self.chip = chip
        self.gated_leak_fraction = gated_leak_fraction
        self.default_activity = default_activity
        self.verify_every_n = verify_every_n
        self.audit_tolerance_w = audit_tolerance_w
        self.audits_passed = 0
        self._noc_power_w: float = 0.0
        # Activity/test factors set by the execution engine / test runner.
        self._core_activity: Dict[int, float] = {}
        # Incremental state: per-core channel contributions plus lazily
        # refreshed per-channel sums.  ``_busy_w``/``_testing_w`` hold a
        # core's dynamic watts while it is busy/testing, else 0.0, so each
        # channel sums one dense array in core-id order.
        n = len(chip.cores)
        self._dyn_w: List[float] = [0.0] * n
        self._busy_w: List[float] = [0.0] * n
        self._testing_w: List[float] = [0.0] * n
        self._leak_w: List[float] = [0.0] * n
        self._workload_w = 0.0
        self._test_w = 0.0
        self._leakage_w = 0.0
        self._sums_dirty = True
        # Live views of the chip's busy/testing id sets: an empty channel
        # reads int 0, the value of a sum over no members.
        self._busy_ids = chip.state_ids(CoreState.BUSY)
        self._testing_ids = chip.state_ids(CoreState.TESTING)
        # Per channel: True whenever its members or a member's watts
        # changed since it was last summed.  Summing unchanged floats
        # reproduces the previous result bit for bit, so a channel no
        # transition touched (leakage on task start/end under a fixed-level
        # policy, test while only workload moves) skips its re-sum.
        self._workload_stale = True
        self._test_stale = True
        self._leak_stale = True
        # Cores whose cached contributions are stale.  Transitions only
        # mark; the recompute happens on the next read, so the bursts of
        # back-to-back changes a task start produces (state, level,
        # activity) cost one refresh instead of three.
        self._dirty_cores: set = set()
        self._queries = 0
        self._model = chip.tech_model
        #: Leakage depends on the supply voltage only, so a core's base
        #: leakage is one of len(vf_table) values per catalog type: one
        #: fixed table of the model's watts (leak factor 1, powered),
        #: indexed ``[core.type_index][level.index]``.  Read-only.
        self.leak_table: List[List[float]] = [
            [
                self._model.leakage_power(chip.node, ctype, level.vdd)
                for level in chip.vf_table
            ]
            for ctype in chip.core_types
        ]
        self._dirty_cores.update(range(n))
        self._flush_dirty()
        chip.add_transition_listener(self._on_core_transition)

    # ------------------------------------------------------------------
    # Incremental bookkeeping
    # ------------------------------------------------------------------
    def _on_core_transition(
        self, core: Core, old: CoreState, new: CoreState
    ) -> None:
        if new is not old:
            if new is CoreState.IDLE or new is CoreState.FAULTY:
                # A gated or retired core has no switching activity;
                # dropping the factor here guarantees a dead core can never
                # contribute dynamic power through a stale entry.
                self._core_activity.pop(core.core_id, None)
            # Membership moved; the watts may not have (a busy core at
            # activity 0 draws 0.0), and an emptied channel reads int 0.
            if old is CoreState.BUSY or new is CoreState.BUSY:
                self._workload_stale = True
            if old is CoreState.TESTING or new is CoreState.TESTING:
                self._test_stale = True
        self._dirty_cores.add(core.core_id)
        self._sums_dirty = True

    def _refresh_sums(self) -> None:
        """Re-sum the stale channels from the per-core caches.

        Accumulation runs in ascending core-id order — the order of the
        original full scan — so the result is bit-identical to it.  A core
        outside a channel holds 0.0 in its array, and adding 0.0 to a sum
        of non-negative watts leaves it unchanged; faulty cores hold a
        cached 0.0 leakage, matching the scan's explicit ``+= 0.0``.
        """
        if self._dirty_cores:
            self._flush_dirty()
        # ``lsum`` adds left-to-right from int 0 exactly like the explicit
        # accumulation loop did, so the floats are unchanged.  (Builtin
        # ``sum`` does not: since Python 3.12 it compensates float sums.)
        if self._workload_stale:
            self._workload_w = lsum(self._busy_w) if self._busy_ids else 0
            self._workload_stale = False
        if self._test_stale:
            self._test_w = lsum(self._testing_w) if self._testing_ids else 0
            self._test_stale = False
        if self._leak_stale:
            self._leakage_w = lsum(self._leak_w)
            self._leak_stale = False
        self._sums_dirty = False

    # ------------------------------------------------------------------
    # External load registration
    # ------------------------------------------------------------------
    def set_core_activity(self, core: Core, activity: Optional[float]) -> None:
        """Set (or clear with ``None``) the dynamic activity factor of a core.

        For workload this is the task's switching activity; for test it is
        the SBST routine's power factor (often > 1: tests maximise toggling).
        """
        if activity is None:
            self._core_activity.pop(core.core_id, None)
        else:
            if activity < 0:
                raise ValueError("activity must be >= 0")
            self._core_activity[core.core_id] = activity
        self._dirty_cores.add(core.core_id)
        self._sums_dirty = True

    def add_noc_power(self, watts: float) -> None:
        self._noc_power_w += watts

    def remove_noc_power(self, watts: float) -> None:
        self._noc_power_w -= watts
        if self._noc_power_w < 0:
            # Guard against float drift; a genuinely negative load is a bug.
            if self._noc_power_w < -1e-6:
                raise ValueError("NoC power went negative")
            self._noc_power_w = 0.0

    @property
    def noc_power(self) -> float:
        return self._noc_power_w

    def activity_of(self, core_id: int) -> Optional[float]:
        """The registered activity factor of a core (None when unset).

        An unset factor means a busy/testing core draws
        ``default_activity``; gated and retired cores have no factor by
        construction.  Read-only view used by the invariant checker's
        replay snapshots.
        """
        return self._core_activity.get(core_id)

    # ------------------------------------------------------------------
    # Power computation
    # ------------------------------------------------------------------
    def _flush_dirty(self) -> None:
        """Re-derive the cached channel contributions of every dirty core.

        Reads the ``_state``/``_level``/``_leak_factor`` slots directly
        (skipping the observer properties).  A refresh is idempotent.
        """
        cores = self.chip.cores
        for cid in self._dirty_cores:
            core = cores[cid]
            state = core._state
            level = core._level
            busy = 0.0
            testing = 0.0
            if state is CoreState.BUSY or state is CoreState.TESTING:
                dyn = self._model.dynamic_power(
                    self.chip.node,
                    core.core_type,
                    level.vdd,
                    level.f_mhz,
                    self._core_activity.get(cid, self.default_activity),
                )
                if state is CoreState.BUSY:
                    busy = dyn
                else:
                    testing = dyn
            else:
                dyn = 0.0
            self._dyn_w[cid] = dyn
            if busy != self._busy_w[cid]:
                self._busy_w[cid] = busy
                self._workload_stale = True
            if testing != self._testing_w[cid]:
                self._testing_w[cid] = testing
                self._test_stale = True
            if state is CoreState.FAULTY:
                leak = 0.0
            else:
                leak = (
                    self.leak_table[core.type_index][level.index]
                    * core._leak_factor
                )
                if state is CoreState.IDLE:
                    leak = leak * self.gated_leak_fraction
            if leak != self._leak_w[cid]:
                self._leak_w[cid] = leak
                self._leak_stale = True
        self._dirty_cores.clear()

    def core_dynamic(self, core: Core, level: Optional[VFLevel] = None) -> float:
        """Dynamic power of ``core`` (0 unless busy or testing)."""
        if level is None:
            if self._dirty_cores:
                self._flush_dirty()
            return self._dyn_w[core.core_id]
        if core.state not in (CoreState.BUSY, CoreState.TESTING):
            return 0.0
        activity = self._core_activity.get(core.core_id, self.default_activity)
        return self._model.dynamic_power(
            self.chip.node, core.core_type, level.vdd, level.f_mhz, activity
        )

    def core_leakage(self, core: Core, level: Optional[VFLevel] = None) -> float:
        """Leakage power of ``core`` given its gating state and variation."""
        if level is None:
            if self._dirty_cores:
                self._flush_dirty()
            return self._leak_w[core.core_id]
        if core.state is CoreState.FAULTY:
            return 0.0
        leak = self.leak_table[core.type_index][level.index] * core.leak_factor
        if core.state is CoreState.IDLE:
            return leak * self.gated_leak_fraction
        return leak

    def core_power(self, core: Core, level: Optional[VFLevel] = None) -> float:
        if level is None:
            if self._dirty_cores:
                self._flush_dirty()
            cid = core.core_id
            return self._dyn_w[cid] + self._leak_w[cid]
        return self.core_dynamic(core, level) + self.core_leakage(core, level)

    def core_powers(self) -> List[float]:
        """Every core's :meth:`core_power` (W), in core-id order."""
        if self._dirty_cores:
            self._flush_dirty()
        return list(map(add, self._dyn_w, self._leak_w))

    def breakdown(self) -> PowerBreakdown:
        """Instantaneous chip power split into reporting channels."""
        if self._sums_dirty:
            self._refresh_sums()
        result = PowerBreakdown(
            workload=self._workload_w,
            test=self._test_w,
            leakage=self._leakage_w,
            noc=self._noc_power_w,
        )
        if self.verify_every_n:
            self._queries += 1
            if self._queries % self.verify_every_n == 0:
                self._audit(result)
        return result

    def scan_breakdown(self) -> PowerBreakdown:
        """Reference full scan over all cores (the pre-fast-path algorithm).

        Kept as the audit path: it re-derives every channel from live core
        state (each core's ``_state``/``_level``/``_leak_factor`` slots,
        read once) straight through the technology model, table-free.
        """
        workload = 0.0
        test = 0.0
        leakage = 0.0
        node = self.chip.node
        model = self._model
        for core in self.chip:
            state = core._state
            level = core._level
            if state is CoreState.BUSY or state is CoreState.TESTING:
                activity = self._core_activity.get(
                    core.core_id, self.default_activity
                )
                dyn = model.dynamic_power(
                    node, core.core_type, level.vdd, level.f_mhz, activity
                )
                if state is CoreState.BUSY:
                    workload += dyn
                else:
                    test += dyn
            if state is CoreState.FAULTY:
                leak = 0.0
            else:
                leak = (
                    model.leakage_power(node, core.core_type, level.vdd)
                    * core._leak_factor
                )
                if state is CoreState.IDLE:
                    leak = leak * self.gated_leak_fraction
            leakage += leak
        return PowerBreakdown(
            workload=workload, test=test, leakage=leakage, noc=self._noc_power_w
        )

    def _audit(self, incremental: PowerBreakdown) -> None:
        reference = self.scan_breakdown()
        for channel in ("workload", "test", "leakage", "noc"):
            got = getattr(incremental, channel)
            want = getattr(reference, channel)
            if abs(got - want) > self.audit_tolerance_w:
                raise MeterAuditError(
                    f"incremental {channel} power {got!r} diverged from "
                    f"full-scan value {want!r} after {self._queries} queries"
                )
        self.audits_passed += 1

    def chip_power(self) -> float:
        """Total chip power; same additions as ``breakdown().total``.

        When auditing is enabled the query goes through :meth:`breakdown`
        so it counts toward the ``verify_every_n`` cadence.
        """
        if self.verify_every_n:
            return self.breakdown().total
        if self._sums_dirty:
            self._refresh_sums()
        return self._workload_w + self._test_w + self._leakage_w + self._noc_power_w

    def headroom(self, budget_w: float) -> float:
        """Unused budget right now (may be negative when over budget)."""
        return budget_w - self.chip_power()

    def predicted_delta(self, core: Core, new_level: VFLevel) -> float:
        """Power change if ``core`` switched to ``new_level`` now."""
        return self.core_power(core, new_level) - self.core_power(core)

    def added_power_if_busy(
        self, core: Core, level: VFLevel, activity: float
    ) -> float:
        """Power added if the (currently gated) core started work at ``level``."""
        busy = (
            self._model.dynamic_power(
                self.chip.node, core.core_type, level.vdd, level.f_mhz, activity
            )
            + self.leak_table[core.type_index][level.index] * core.leak_factor
        )
        return busy - self.core_power(core)
