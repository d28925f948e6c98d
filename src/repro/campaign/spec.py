"""Declarative campaign specifications.

A fault-injection *campaign* is the cross-product of a configuration
grid and a seed plan: every (grid cell × seed) pair is one **point**, a
fully-resolved :class:`~repro.core.system.SystemConfig` identified by a
stable content digest (:func:`repro.obs.provenance.config_digest`).
That digest is the campaign's unit of identity everywhere — the
checkpoint store keys completed results by it, the executor attributes
failures to it, and resume skips it.

Cells come from one of two sources:

* a **grid** — the cross-product of per-field value lists (the classic
  sweep);
* an explicit **cell list** (``fixed_cells`` / JSON key ``"cells"``) —
  arbitrary override dicts that need not form a cross-product.  This is
  what search layers (:mod:`repro.dse`) use: a generation of proposed
  candidates is exactly a list of cells.

Two sampling modes:

* **fixed** — ``seeds.count`` replicas per cell, planned up front;
* **sequential** — when a :class:`StopRule` is present, seeds are added
  per cell in deterministic batches until the confidence interval on
  the cell's fault-detection probability is tight enough (or
  ``max_runs`` is hit).  The rule is always evaluated on a fixed seed
  *prefix*, so an interrupted campaign resumes to byte-identical
  aggregates (see ``repro.campaign.runner``).

Specs serialize to JSON (``spec.json`` inside the campaign directory),
and the spec digest pins the directory to the spec that created it.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config_io import (
    config_from_dict,
    config_to_dict,
    dataclass_from_dict,
    unknown_fields,
)
from repro.core.system import SystemConfig
from repro.metrics.stats import binomial_interval  # noqa: F401  (re-export convenience)
from repro.obs.provenance import digest_of, seed_digests
from repro.telemetry.export import atomic_write_text

#: One grid cell: the (field, value) overrides that define it, in the
#: spec's grid-field order.  Hashable so cells can key dictionaries.
Cell = Tuple[Tuple[str, object], ...]

_STOP_METHODS = ("wilson", "clopper-pearson")


def cell_label(cell: Cell) -> str:
    """Human-readable cell name (``field=value,field=value`` or ``default``)."""
    if not cell:
        return "default"
    return ",".join(f"{name}={value}" for name, value in cell)


def cell_digest(cell: Cell) -> str:
    """Stable identity of a grid cell (independent of seeds)."""
    return digest_of(sorted(cell))


@dataclass(frozen=True)
class SeedPlan:
    """Which seeds a campaign draws, per grid cell.

    ``start`` is the first seed; fixed mode runs exactly ``count``
    consecutive seeds, sequential mode starts from ``start`` and lets
    the stopping rule decide how many are needed.
    """

    start: int = 1
    count: int = 8

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"seed count must be >= 1, got {self.count}")

    def seed_at(self, i: int) -> int:
        """The i-th seed of the plan (0-based)."""
        return self.start + i

    def fixed_seeds(self) -> List[int]:
        """All ``count`` seeds of a fixed-mode campaign, in order."""
        return [self.start + i for i in range(self.count)]

    def to_dict(self) -> Dict[str, int]:
        """JSON-ready form of the seed plan."""
        return {"start": self.start, "count": self.count}


@dataclass(frozen=True)
class StopRule:
    """Sequential stopping rule on the fault-detection probability.

    Every injected fault is a Bernoulli trial (detected / escaped);
    sampling of a cell stops once the two-sided CI half-width over the
    cell's accumulated trials drops to ``target_half_width``, evaluated
    after ``min_runs`` seeds and then after every further ``batch``
    seeds, hard-capped at ``max_runs``.  Evaluation points are fixed
    seed prefixes, never "whatever has finished", so the decision is
    identical on resume.
    """

    target_half_width: float
    min_runs: int = 4
    max_runs: int = 64
    batch: int = 4
    method: str = "wilson"

    def __post_init__(self) -> None:
        if self.target_half_width <= 0:
            raise ValueError(
                f"target_half_width must be positive, "
                f"got {self.target_half_width}"
            )
        if self.min_runs < 1:
            raise ValueError(f"min_runs must be >= 1, got {self.min_runs}")
        if self.max_runs < self.min_runs:
            raise ValueError(
                f"max_runs ({self.max_runs}) must be >= min_runs "
                f"({self.min_runs})"
            )
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.method not in _STOP_METHODS:
            raise ValueError(
                f"unknown interval method {self.method!r}; "
                f"known: {_STOP_METHODS}"
            )

    def evaluation_sizes(self) -> List[int]:
        """The deterministic ladder of prefix sizes the rule checks at."""
        sizes = [self.min_runs]
        while sizes[-1] < self.max_runs:
            sizes.append(min(sizes[-1] + self.batch, self.max_runs))
        return sizes

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form of the stopping rule."""
        return {
            "target_half_width": self.target_half_width,
            "min_runs": self.min_runs,
            "max_runs": self.max_runs,
            "batch": self.batch,
            "method": self.method,
        }


@dataclass(frozen=True)
class CampaignPoint:
    """One fully-resolved run of a campaign.

    Its :class:`~repro.core.system.SystemConfig` is built on first read
    (when the point executes): a point the cache serves needs only its
    digest and ``config_dict``.
    """

    index: int
    digest: str
    cell: Cell
    seed: int
    #: The cell's resolved config (its seed is the default one).
    cell_config: SystemConfig = field(compare=False, repr=False)
    #: ``config_to_dict(config)`` in JSON types (arrays as lists): the
    #: checkpoint record's ``config``.  The points of a cell share its
    #: nested blocks, so it is read-only.
    config_dict: Dict[str, object] = field(compare=False, repr=False)

    @functools.cached_property
    def config(self) -> SystemConfig:
        """The point's config: the cell's with this point's seed."""
        return dataclasses.replace(self.cell_config, seed=self.seed)


@dataclass(frozen=True)
class CampaignSpec:
    """The declarative definition of a campaign."""

    name: str
    base: Tuple[Tuple[str, object], ...] = ()
    grid: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    #: Explicit cell list (JSON key ``"cells"``), mutually exclusive
    #: with ``grid``: arbitrary per-cell overrides that need not form a
    #: cross-product.  Cells are canonicalized to sorted field order.
    fixed_cells: Tuple[Cell, ...] = ()
    seeds: SeedPlan = field(default_factory=SeedPlan)
    stop: Optional[StopRule] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if self.grid and self.fixed_cells:
            raise ValueError(
                "a campaign takes either a grid or an explicit cell "
                "list, not both"
            )
        cell_pairs = [pair for cell in self.fixed_cells for pair in cell]
        for source, pairs in (
            ("base", self.base),
            ("grid", self.grid),
            ("cells", cell_pairs),
        ):
            unknown = unknown_fields(dict(pairs))
            if unknown:
                raise ValueError(
                    f"unknown SystemConfig fields in {source}: {unknown}"
                )
            if any(key == "seed" for key, _ in pairs):
                raise ValueError(
                    f"'seed' cannot appear in {source}; seeds come from "
                    f"the seed plan"
                )
        for name, values in self.grid:
            if not values:
                raise ValueError(f"grid field {name!r} has no values")
        # Cells key dictionaries (planner, report), so their values must
        # hash: a nested parameter block is set in base, not swept.
        for source, pairs in (
            ("grid", [(k, v) for k, values in self.grid for v in values]),
            ("cells", cell_pairs),
        ):
            for key, value in pairs:
                try:
                    hash(value)
                except TypeError:
                    raise ValueError(
                        f"{source} value of {key!r} must be a scalar or "
                        f"an array of them, got {_thaw(value)!r}"
                    ) from None
        if self.fixed_cells:
            seen = set()
            for cell in self.fixed_cells:
                key = tuple(sorted(cell))
                if key in seen:
                    raise ValueError(
                        f"duplicate cell in cell list: {cell_label(cell)}"
                    )
                seen.add(key)

    # ------------------------------------------------------------------
    # Construction / serialisation
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignSpec":
        """Build a spec from a plain dict (e.g. parsed spec.json).

        Malformed input of any shape raises ``ValueError`` naming the
        field (``seeds.count``, ``grid.tdp_w``, ...).  A config value of
        the wrong type in ``base``, ``grid`` or ``cells`` is reported
        when its cell is resolved (:meth:`cell_config`).
        """
        if not isinstance(data, dict):
            raise ValueError(f"campaign spec must be an object, got {data!r}")
        known = {"schema", "name", "base", "grid", "cells", "seeds", "stop"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown campaign spec keys: {sorted(unknown)}")
        name = data.get("name", "")
        if not isinstance(name, str):
            raise ValueError(f"field 'name' must be str, got {name!r}")
        base = _member(data, "base", dict, {})
        grid = _member(data, "grid", dict, {})
        for key, values in grid.items():
            if not isinstance(values, list):
                raise ValueError(
                    f"field 'grid.{key}' must be an array, got {values!r}"
                )
        cells = _member(data, "cells", list, [])
        for index, cell in enumerate(cells):
            if not isinstance(cell, dict):
                raise ValueError(
                    f"field 'cells[{index}]' must be an object, got {cell!r}"
                )
        stop = data.get("stop")
        return cls(
            name=name,
            base=tuple((k, freeze_value(v)) for k, v in base.items()),
            grid=tuple(
                (k, tuple(freeze_value(v) for v in values))
                for k, values in grid.items()
            ),
            fixed_cells=tuple(freeze_cell(cell) for cell in cells),
            seeds=dataclass_from_dict(
                SeedPlan, _member(data, "seeds", dict, {}), "seeds."
            ),
            stop=(
                None
                if stop is None
                else dataclass_from_dict(StopRule, stop, "stop.")
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Parse a spec from its JSON text."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("campaign spec JSON must be an object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "CampaignSpec":
        """Read a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form, the inverse of :meth:`from_dict`."""
        data = {
            "schema": 1,
            "name": self.name,
            "base": {k: _thaw(v) for k, v in self.base},
            "grid": {k: [_thaw(v) for v in values] for k, values in self.grid},
            "seeds": self.seeds.to_dict(),
            "stop": self.stop.to_dict() if self.stop else None,
        }
        if self.fixed_cells:
            # Key omitted when empty so grid-spec digests predate this
            # field unchanged.
            data["cells"] = [
                {k: _thaw(v) for k, v in cell} for cell in self.fixed_cells
            ]
        return data

    def to_json(self) -> str:
        """Serialize to the canonical JSON form (sorted keys)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: str) -> None:
        """Write the spec as JSON to ``path`` (atomically: never torn)."""
        atomic_write_text(path, self.to_json() + "\n")

    def spec_digest(self) -> str:
        """Content digest pinning a campaign directory to its spec."""
        return digest_of([json.dumps(self.to_dict(), sort_keys=True)])

    # ------------------------------------------------------------------
    # Point enumeration
    # ------------------------------------------------------------------
    @property
    def sequential(self) -> bool:
        """Whether a stopping rule drives per-cell sample sizes."""
        return self.stop is not None

    def cells(self) -> List[Cell]:
        """The campaign's cells, in spec order.

        Grid mode yields the cross-product; an explicit cell list yields
        itself; neither yields one empty (all-defaults) cell.
        """
        if self.fixed_cells:
            return list(self.fixed_cells)
        if not self.grid:
            return [()]
        names = [name for name, _ in self.grid]
        value_lists = [values for _, values in self.grid]
        return [
            tuple(zip(names, combo))
            for combo in itertools.product(*value_lists)
        ]

    def cell_config(self, cell: Cell) -> SystemConfig:
        """The resolved config of one cell (defaults < base < cell).

        Goes through :func:`~repro.core.config_io.config_from_dict`, so
        unknown keys are rejected and every ``__post_init__`` check
        runs.  The seed is the default one; points replace it.
        """
        data = {key: _thaw(value) for key, value in self.base}
        data.update((key, _thaw(value)) for key, value in cell)
        return config_from_dict(data)

    def cell_points(
        self, cell: Cell, seeds: Sequence[int], start: int = 0
    ) -> List[CampaignPoint]:
        """The points of one cell for ``seeds``, indexed from ``start``.

        Resolves and walks the cell's config once: each seed's digest
        comes from :func:`~repro.obs.provenance.seed_digests`, its
        ``config_dict`` is the cell's with the seed set, and its config
        is a ``dataclasses.replace`` of the cell's, made on first read.
        """
        config = self.cell_config(cell)
        data = _thaw(config_to_dict(config))
        return [
            CampaignPoint(
                index=start + i,
                digest=digest,
                cell=cell,
                seed=seed,
                cell_config=config,
                config_dict=dict(data, seed=seed),
            )
            for i, (seed, digest) in enumerate(
                zip(seeds, seed_digests(config, seeds))
            )
        ]

    def fixed_points(self) -> List[CampaignPoint]:
        """Every point of a fixed-mode campaign, in deterministic order."""
        seeds = self.seeds.fixed_seeds()
        points: List[CampaignPoint] = []
        for cell in self.cells():
            points.extend(self.cell_points(cell, seeds, start=len(points)))
        return points

    def n_planned_points(self) -> Optional[int]:
        """Total planned points (``None`` in sequential mode: data-driven)."""
        if self.sequential:
            return None
        return len(self.cells()) * self.seeds.count


def _member(data: Dict[str, object], key: str, kind: type, default):
    """``data[key]`` if it is a ``kind``, ``default`` if absent or null."""
    value = data.get(key)
    if value is None:
        return default
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "an array"
        raise ValueError(f"field {key!r} must be {what}, got {value!r}")
    return value


def freeze_value(value: object) -> object:
    """JSON value -> hashable spec value (lists become tuples)."""
    if isinstance(value, list):
        return tuple(freeze_value(v) for v in value)
    return value


def freeze_cell(overrides: Dict[str, object]) -> Cell:
    """Override dict -> canonical hashable cell (sorted field order)."""
    return tuple(
        (str(name), freeze_value(value))
        for name, value in sorted(overrides.items())
    )


def _thaw(value: object) -> object:
    """Spec or config value -> JSON types (tuples become lists): the
    form ``config_from_dict`` expects and ``json.loads`` returns."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    if isinstance(value, dict):
        return {k: _thaw(v) for k, v in value.items()}
    return value
