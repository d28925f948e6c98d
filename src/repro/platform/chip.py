"""Chip model: a mesh of cores on one technology node with a DVFS table."""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.platform.core import Core, CoreState
from repro.platform.coretypes import DEFAULT_CORE_TYPE, CoreType, get_core_type
from repro.platform.dvfs import VFTable, build_vf_table
from repro.platform.technology import (
    DEFAULT_TDP_W,
    DEFAULT_TECH_MODEL,
    TechnologyModel,
    TechnologyNode,
    get_node,
    get_tech_model,
)

#: Chip-level transition listener: ``cb(core, old_state, new_state)``.
#: Level/leakage changes are reported with ``old_state is new_state``.
TransitionListener = Callable[[Core, CoreState, CoreState], None]


class Chip:
    """An ``width x height`` mesh manycore chip.

    The chip owns the cores and the node/DVFS parameters; power computation
    lives in :mod:`repro.power` and communication in :mod:`repro.noc`.

    Core state is *indexed*: the chip maintains one id set per
    :class:`CoreState`, updated through the cores' transition callbacks,
    so ``idle_cores()``/``busy_cores()``/``testing_cores()`` cost time
    proportional to their result instead of a full mesh rescan.  Query
    results are always in ascending core-id order (the same deterministic
    order the original full scans produced).
    """

    def __init__(
        self,
        width: int,
        height: int,
        node: TechnologyNode,
        vf_table: Optional[VFTable] = None,
        tdp_w: float = DEFAULT_TDP_W,
        type_grid: Optional[Sequence[str]] = None,
        tech_model: str = DEFAULT_TECH_MODEL,
    ) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"invalid mesh {width}x{height}")
        if tdp_w <= 0:
            raise ValueError("TDP must be positive")
        self.width = width
        self.height = height
        self.node = node
        self.vf_table = vf_table if vf_table is not None else build_vf_table(node)
        self.tdp_w = tdp_w
        self.tech_model: TechnologyModel = get_tech_model(tech_model)
        n_cores = width * height
        if type_grid is None or len(type_grid) == 0:
            type_names: List[str] = [DEFAULT_CORE_TYPE] * n_cores
        else:
            if len(type_grid) == 1:
                type_names = [type_grid[0]] * n_cores
            elif len(type_grid) == n_cores:
                type_names = list(type_grid)
            else:
                raise ValueError(
                    f"type_grid must have 1 or {n_cores} entries for a "
                    f"{width}x{height} mesh, got {len(type_grid)}"
                )
        #: First-occurrence type catalog; ``Core.type_index`` indexes it.
        self.core_types: List[CoreType] = []
        type_index_of: Dict[str, int] = {}
        grid_types: List[CoreType] = []
        for name in type_names:
            if name not in type_index_of:
                type_index_of[name] = len(self.core_types)
                self.core_types.append(get_core_type(name))
            grid_types.append(self.core_types[type_index_of[name]])
        #: True iff this chip leaves the degenerate contract: any non-std
        #: tile or a non-baseline model.  Gates the hetero-only journal
        #: fields so degenerate runs stay byte-identical on disk.
        self.is_heterogeneous: bool = (
            self.tech_model.name != DEFAULT_TECH_MODEL
            or any(t.name != DEFAULT_CORE_TYPE for t in self.core_types)
        )
        self.cores: List[Core] = []
        self._by_pos: Dict[Tuple[int, int], Core] = {}
        self._state_ids: Dict[CoreState, Set[int]] = {s: set() for s in CoreState}
        #: Ids of the idle-and-unowned cores, kept by the state and
        #: ownership callbacks (every core starts idle and unowned).
        self._free_ids: Set[int] = set(range(width * height))
        #: Monotonic change counter covering every state/level/leakage/
        #: ownership mutation; control code can compare two reads to know
        #: whether anything on the chip moved in between.
        self.mutations: int = 0
        self._listeners: List[TransitionListener] = []
        initial = self.vf_table.max_level
        for y in range(height):
            for x in range(width):
                core_id = y * width + x
                ctype = grid_types[core_id]
                core = Core(
                    core_id=core_id, x=x, y=y, level=initial, core_type=ctype
                )
                core.type_index = type_index_of[ctype.name]
                core.transition_cb = self._on_core_transition
                core.owner_cb = self._on_owner_change
                self.cores.append(core)
                self._by_pos[(x, y)] = core
                self._state_ids[core.state].add(core.core_id)

    @classmethod
    def build(
        cls,
        width: int = 8,
        height: int = 8,
        node_name: str = "16nm",
        tdp_w: float = DEFAULT_TDP_W,
        n_vf_levels: int = 8,
        type_grid: Optional[Sequence[str]] = None,
        tech_model: str = DEFAULT_TECH_MODEL,
    ) -> "Chip":
        """Convenience constructor from a node name."""
        node = get_node(node_name)
        return cls(
            width,
            height,
            node,
            build_vf_table(node, n_vf_levels),
            tdp_w,
            type_grid=type_grid,
            tech_model=tech_model,
        )

    @classmethod
    def from_config(cls, config) -> "Chip":
        """The chip a :class:`~repro.core.system.SystemConfig` describes
        (read by field name: this module imports nothing of repro.core)."""
        return cls.build(
            config.width, config.height, config.node_name, config.tdp_w,
            config.n_vf_levels, config.type_grid, config.tech_model,
        )

    # ------------------------------------------------------------------
    # Transition tracking
    # ------------------------------------------------------------------
    def _on_core_transition(
        self, core: Core, old: CoreState, new: CoreState
    ) -> None:
        self.mutations += 1
        if new is not old:
            self._state_ids[old].discard(core.core_id)
            self._state_ids[new].add(core.core_id)
            if core._owner_app is None:
                if old is CoreState.IDLE:
                    self._free_ids.discard(core.core_id)
                elif new is CoreState.IDLE:
                    self._free_ids.add(core.core_id)
        for listener in self._listeners:
            listener(core, old, new)

    def _on_owner_change(
        self, core: Core, old: Optional[int], new: Optional[int]
    ) -> None:
        self.mutations += 1
        if core._state is CoreState.IDLE:
            if new is None:
                self._free_ids.add(core.core_id)
            elif old is None:
                self._free_ids.discard(core.core_id)

    def add_transition_listener(self, listener: TransitionListener) -> None:
        """Subscribe to core state/level/leakage changes (e.g. the meter)."""
        self._listeners.append(listener)

    def state_ids(self, state: CoreState) -> Set[int]:
        """Ids of cores currently in ``state`` (live view; do not mutate)."""
        return self._state_ids[state]

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cores)

    def __iter__(self) -> Iterator[Core]:
        return iter(self.cores)

    def core_at(self, x: int, y: int) -> Core:
        try:
            return self._by_pos[(x, y)]
        except KeyError:
            raise IndexError(
                f"({x},{y}) outside {self.width}x{self.height} mesh"
            ) from None

    def core(self, core_id: int) -> Core:
        if not 0 <= core_id < len(self.cores):
            raise IndexError(f"core id {core_id} out of range")
        return self.cores[core_id]

    def neighbors(self, core: Core) -> List[Core]:
        """4-neighbourhood of ``core`` in the mesh."""
        out = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            pos = (core.x + dx, core.y + dy)
            if pos in self._by_pos:
                out.append(self._by_pos[pos])
        return out

    # ------------------------------------------------------------------
    # State summaries
    # ------------------------------------------------------------------
    def cores_in_state(self, state: CoreState) -> List[Core]:
        """Cores in ``state``, ascending core id (a new list per call)."""
        return list(map(self.cores.__getitem__, sorted(self._state_ids[state])))

    def idle_cores(self) -> List[Core]:
        return self.cores_in_state(CoreState.IDLE)

    def busy_cores(self) -> List[Core]:
        return self.cores_in_state(CoreState.BUSY)

    def testing_cores(self) -> List[Core]:
        return self.cores_in_state(CoreState.TESTING)

    def healthy_cores(self) -> List[Core]:
        faulty = self._state_ids[CoreState.FAULTY]
        if not faulty:
            return list(self.cores)
        return [c for c in self.cores if c.core_id not in faulty]

    def free_cores(self) -> List[Core]:
        """Cores the mapper may allocate right now (idle and unowned),
        ascending core id (a new list per call)."""
        return list(map(self.cores.__getitem__, sorted(self._free_ids)))

    def n_free_cores(self) -> int:
        """``len(free_cores())`` without building the list (O(1))."""
        return len(self._free_ids)

    def type_counts(self) -> Dict[CoreType, int]:
        """Tile count per :class:`CoreType`, in first-occurrence order."""
        counts: Dict[CoreType, int] = {t: 0 for t in self.core_types}
        for core in self.cores:
            counts[core.core_type] += 1
        return counts

    def lit_fraction(self) -> float:
        """Dark-silicon lit fraction of this chip under its own TDP.

        Derived from the technology model over the chip's type mix; on a
        homogeneous-``std`` chip of ``n`` cores under the baseline model
        this is ``min(1, tdp_w / (n * peak))`` with the node's peak core
        power.
        """
        return self.tech_model.lit_fraction(
            self.node, self.type_counts(), self.tdp_w
        )

    def dark_fraction(self) -> float:
        """Complement of :meth:`lit_fraction`."""
        return 1.0 - self.lit_fraction()
