"""Declarative search spaces over :class:`SystemConfig` parameters.

A :class:`SearchSpace` names the scheduler/mapper/PID/budget knobs a
design-space exploration may vary and the domain of each:

* :class:`FloatParam` — a continuous range ``[low, high]``;
* :class:`IntParam`   — an integer range ``[low, high]`` (inclusive);
* :class:`ChoiceParam` — a finite set of categorical values.

A *candidate* is a plain ``{field: value}`` dict assigning every
parameter.  The space resolves candidates into fully-formed
:class:`~repro.core.system.SystemConfig` overrides — a campaign *cell*
in the sense of :mod:`repro.campaign.spec` — so candidate identity is
the existing :func:`~repro.campaign.spec.cell_digest` and evaluation
rides the whole campaign substrate (checkpoint store, run cache,
process pool, stopping rules) unchanged.

All randomness flows through a caller-supplied ``numpy`` Generator —
nothing here touches the :mod:`random` module or any global state, which
is what makes searches replayable from their spec digest alone.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._sum import lsum
from repro.campaign.spec import Cell, cell_digest, freeze_cell
from repro.core.system import SystemConfig

#: One candidate: a full assignment of every space parameter.
Candidate = Dict[str, object]


def _as_python(value: object) -> object:
    """numpy scalar -> plain Python value (JSON- and repr-stable)."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


@dataclass(frozen=True)
class FloatParam:
    """A continuous parameter in ``[low, high]``."""

    name: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.high > self.low:
            raise ValueError(
                f"{self.name}: need high > low, got [{self.low}, {self.high}]"
            )

    #: Number of discrete values (None: the domain is continuous).
    n_values: Optional[int] = dataclasses.field(
        default=None, init=False, repr=False
    )

    def sample(self, rng: np.random.Generator) -> float:
        """One uniform draw from the range."""
        return float(rng.uniform(self.low, self.high))

    def mutate(
        self, value: object, rng: np.random.Generator, scale: float
    ) -> float:
        """Gaussian perturbation of ``scale`` range-fractions, clipped."""
        span = self.high - self.low
        perturbed = float(value) + float(rng.normal(0.0, scale * span))
        return float(min(self.high, max(self.low, perturbed)))

    def validate(self, value: object) -> float:
        """Coerce and range-check one value."""
        v = float(value)
        if not self.low <= v <= self.high:
            raise ValueError(
                f"{self.name}: {v} outside [{self.low}, {self.high}]"
            )
        return v

    def encode(self, value: object) -> List[float]:
        """Feature encoding: the value min-max scaled to [0, 1]."""
        return [(float(value) - self.low) / (self.high - self.low)]

    @property
    def width(self) -> int:
        """Length of :meth:`encode`'s output."""
        return 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form of the parameter."""
        return {
            "field": self.name, "type": "float",
            "low": self.low, "high": self.high,
        }


@dataclass(frozen=True)
class IntParam:
    """An integer parameter in ``[low, high]`` (both inclusive)."""

    name: str
    low: int
    high: int

    def __post_init__(self) -> None:
        if not self.high > self.low:
            raise ValueError(
                f"{self.name}: need high > low, got [{self.low}, {self.high}]"
            )

    @property
    def n_values(self) -> int:
        """Number of discrete values in the range."""
        return self.high - self.low + 1

    def sample(self, rng: np.random.Generator) -> int:
        """One uniform draw from the inclusive range."""
        return int(rng.integers(self.low, self.high + 1))

    def mutate(
        self, value: object, rng: np.random.Generator, scale: float
    ) -> int:
        """Rounded Gaussian step; always moves at least one unit."""
        span = self.high - self.low
        step = int(round(float(rng.normal(0.0, max(1.0, scale * span)))))
        if step == 0:
            step = 1 if rng.random() < 0.5 else -1
        return int(min(self.high, max(self.low, int(value) + step)))

    def validate(self, value: object) -> int:
        """Coerce and range-check one value."""
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{self.name}: {value!r} is not an integer")
        v = int(value)
        if not self.low <= v <= self.high:
            raise ValueError(
                f"{self.name}: {v} outside [{self.low}, {self.high}]"
            )
        return v

    def encode(self, value: object) -> List[float]:
        """Feature encoding: the value min-max scaled to [0, 1]."""
        return [(int(value) - self.low) / (self.high - self.low)]

    @property
    def width(self) -> int:
        """Length of :meth:`encode`'s output."""
        return 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form of the parameter."""
        return {
            "field": self.name, "type": "int",
            "low": self.low, "high": self.high,
        }


@dataclass(frozen=True)
class ChoiceParam:
    """A categorical parameter over a finite value set."""

    name: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise ValueError(f"{self.name}: need >= 2 choices")
        if len(set(map(repr, self.values))) != len(self.values):
            raise ValueError(f"{self.name}: duplicate choices")

    @property
    def n_values(self) -> int:
        """Number of choices."""
        return len(self.values)

    def sample(self, rng: np.random.Generator) -> object:
        """One uniform draw over the choices."""
        return self.values[int(rng.integers(0, len(self.values)))]

    def mutate(
        self, value: object, rng: np.random.Generator, scale: float
    ) -> object:
        """Re-draw among the *other* choices (scale is ignored)."""
        others = [v for v in self.values if repr(v) != repr(value)]
        return others[int(rng.integers(0, len(others)))]

    def validate(self, value: object) -> object:
        """Membership-check one value."""
        for v in self.values:
            if repr(v) == repr(value):
                return v
        raise ValueError(
            f"{self.name}: {value!r} not one of {list(self.values)}"
        )

    def encode(self, value: object) -> List[float]:
        """Feature encoding: one-hot over the choices."""
        return [
            1.0 if repr(v) == repr(value) else 0.0 for v in self.values
        ]

    @property
    def width(self) -> int:
        """Length of :meth:`encode`'s output."""
        return len(self.values)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form of the parameter."""
        return {
            "field": self.name, "type": "choice",
            "values": list(self.values),
        }


_PARAM_TYPES = ("float", "int", "choice")


def _bounds(name: str, data: Dict[str, object], kind: type) -> List:
    """``[low, high]`` of a numeric parameter as ``kind`` (an int passes
    for a float, if a float can hold it)."""
    accepted = (int, float) if kind is float else int
    bounds = []
    for key in ("low", "high"):
        value = data.get(key)
        if (
            isinstance(value, bool)
            or not isinstance(value, accepted)
            or (kind is float and abs(value) > sys.float_info.max)
        ):
            raise ValueError(
                f"{name}: {key!r} must be {kind.__name__}, got {value!r}"
            )
        bounds.append(kind(value))
    return bounds


def param_from_dict(data: Dict[str, object]):
    """Build one parameter from its JSON form (see each ``to_dict``).

    Raises ``ValueError`` for a malformed parameter of any shape: a
    missing or non-string name, an unknown type, a bound that is not a
    number of the parameter's type, or choices that are not an array.
    """
    if not isinstance(data, dict):
        raise ValueError(f"space parameter must be an object, got {data!r}")
    kind = data.get("type")
    name = data.get("field")
    if not isinstance(name, str) or not name:
        raise ValueError(f"space parameter needs a 'field' name: {data!r}")
    if kind == "float":
        return FloatParam(name, *_bounds(name, data, float))
    if kind == "int":
        return IntParam(name, *_bounds(name, data, int))
    if kind == "choice":
        values = data.get("values")
        if not isinstance(values, list):
            raise ValueError(f"{name}: choice 'values' must be an array")
        return ChoiceParam(name, tuple(values))
    raise ValueError(
        f"{name}: unknown parameter type {kind!r}; known: {_PARAM_TYPES}"
    )


@dataclass(frozen=True)
class SearchSpace:
    """An ordered set of parameters over :class:`SystemConfig` fields."""

    params: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.params:
            raise ValueError("search space has no parameters")
        known = {f.name for f in dataclasses.fields(SystemConfig)}
        seen = set()
        for param in self.params:
            if param.name not in known:
                raise ValueError(
                    f"unknown SystemConfig field in space: {param.name!r}"
                )
            if param.name == "seed":
                raise ValueError(
                    "'seed' cannot be searched; seeds come from the "
                    "seed plan"
                )
            if param.name in seen:
                raise ValueError(f"duplicate space parameter {param.name!r}")
            seen.add(param.name)

    # ------------------------------------------------------------------
    # Construction / serialisation
    # ------------------------------------------------------------------
    @classmethod
    def from_list(cls, data: Sequence[Dict[str, object]]) -> "SearchSpace":
        """Build a space from a JSON array of parameter objects."""
        if not isinstance(data, (list, tuple)):
            raise ValueError("search space must be a JSON array")
        return cls(params=tuple(param_from_dict(d) for d in data))

    def to_list(self) -> List[Dict[str, object]]:
        """JSON-ready form, the inverse of :meth:`from_list`."""
        return [param.to_dict() for param in self.params]

    # ------------------------------------------------------------------
    # Candidate algebra
    # ------------------------------------------------------------------
    @property
    def names(self) -> List[str]:
        """Parameter names, in declaration order."""
        return [param.name for param in self.params]

    def sample(self, rng: np.random.Generator) -> Candidate:
        """Draw one uniform candidate."""
        return {
            param.name: _as_python(param.sample(rng))
            for param in self.params
        }

    def mutate(
        self,
        candidate: Candidate,
        rng: np.random.Generator,
        rate: float,
        scale: float,
    ) -> Candidate:
        """Per-parameter mutation with probability ``rate`` each.

        At least one parameter always mutates, so a mutation call never
        returns its input unchanged.
        """
        flags = [rng.random() < rate for _ in self.params]
        if not any(flags):
            flags[int(rng.integers(0, len(self.params)))] = True
        out: Candidate = {}
        for param, flip in zip(self.params, flags):
            value = candidate[param.name]
            out[param.name] = _as_python(
                param.mutate(value, rng, scale) if flip else value
            )
        return out

    def crossover(
        self, a: Candidate, b: Candidate, rng: np.random.Generator
    ) -> Candidate:
        """Uniform crossover: each parameter from one parent at random."""
        return {
            param.name: _as_python(
                (a if rng.random() < 0.5 else b)[param.name]
            )
            for param in self.params
        }

    def validate_candidate(self, candidate: Candidate) -> Candidate:
        """Full-assignment check; returns the coerced candidate."""
        unknown = set(candidate) - set(self.names)
        if unknown:
            raise ValueError(f"unknown candidate fields: {sorted(unknown)}")
        missing = [n for n in self.names if n not in candidate]
        if missing:
            raise ValueError(f"candidate missing fields: {missing}")
        return {
            param.name: _as_python(param.validate(candidate[param.name]))
            for param in self.params
        }

    def cell_of(self, candidate: Candidate) -> Cell:
        """The campaign cell a candidate resolves to (canonical order)."""
        return freeze_cell(self.validate_candidate(candidate))

    def digest_of(self, candidate: Candidate) -> str:
        """Candidate identity: the digest of its campaign cell."""
        return cell_digest(self.cell_of(candidate))

    def encode(self, candidate: Candidate) -> np.ndarray:
        """Feature vector of a candidate (floats in [0, 1], one-hots)."""
        features: List[float] = []
        for param in self.params:
            features.extend(param.encode(candidate[param.name]))
        return np.asarray(features, dtype=np.float64)

    @property
    def encoded_width(self) -> int:
        """Total feature-vector length."""
        return lsum(param.width for param in self.params)

    def exhaustive_size(self) -> Optional[int]:
        """Points in the full grid (None when any parameter is continuous).

        This is the denominator of the "evaluated N of E exhaustive"
        efficiency claim searches log; a space with a float parameter has
        no finite grid.
        """
        total = 1
        for param in self.params:
            if param.n_values is None:
                return None
            total *= param.n_values
        return total
