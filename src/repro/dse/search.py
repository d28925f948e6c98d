"""The surrogate-guided evolutionary search loop.

One *search* explores a :class:`~repro.dse.space.SearchSpace` for
parameterisations that beat the paper's shipped configuration on the
selected objectives.  Its structure:

* **Generation** — a population of candidates is proposed (generation 0:
  the paper-default candidate plus uniform samples; later: elites,
  tournament-selected crossover and mutation).  All randomness comes
  from a ``numpy`` Generator seeded from ``(spec digest, generation)``,
  so proposals are a pure function of the spec and the archive — no
  ``random``-module state, no wall clock.
* **Pruning** — once the archive holds ``surrogate.min_points``
  evaluated candidates, a polynomial least-squares surrogate
  (:mod:`repro.dse.surrogate`) predicts each unknown candidate's
  objectives; candidates scoring more than ``threshold`` below the
  round's best are skipped.  Already-evaluated candidates are never
  pruned (their results are free).
* **Evaluation** — the survivors become the explicit cell list of a
  :class:`~repro.campaign.spec.CampaignSpec`, one generation = one
  campaign directory under the search directory.  Evaluation therefore
  rides the checkpoint store, the crash-tolerant executor, the process
  pool, the run cache and the sequential stopping rules *unchanged* —
  and inherits their digest-identity guarantees.
* **Front** — after every generation the archive's Pareto front is
  extracted (:mod:`repro.dse.pareto`) and written to ``front.json``
  along with a deterministic ``front_digest``.

**Resume identity.**  Every decision above is a deterministic function
of (spec, completed checkpoint records).  A killed search re-derives
each generation's proposals, finds the generation campaigns either
complete (served from their stores) or resumable, and finishes with a
``front.json`` byte-identical to an uninterrupted run — the same
contract campaigns make, lifted one level up.  Pinned by
``tests/test_dse.py`` and the ``dse-smoke`` CI job.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._sum import lsum
from repro.campaign.executor import CampaignInterrupted
from repro.campaign.runner import run_campaign
from repro.campaign.spec import (
    CampaignSpec,
    Cell,
    SeedPlan,
    StopRule,
    _member,
    cell_digest,
    freeze_value,
)
from repro.campaign.store import RESULTS_FILE, ResultStore
from repro.core.config_io import config_to_dict, dataclass_from_dict
from repro.core.system import SystemConfig
from repro.dse.pareto import (
    OBJECTIVES,
    ObjectiveVector,
    dominates,
    non_dominated_sort,
    objective_vector,
    pareto_front_indices,
    weighted_sum_scores,
)
from repro.dse.space import Candidate, SearchSpace
from repro.dse.surrogate import PolynomialSurrogate, prune_candidates
from repro.metrics.report import format_table
from repro.obs.provenance import digest_of
from repro.telemetry import atomic_write_text

SPEC_FILE = "spec.json"
FRONT_FILE = "front.json"
REPORT_FILE = "report.json"

_DEFAULT_OBJECTIVES = ("throughput", "latency", "escapes", "power")


class SearchInterrupted(Exception):
    """Raised when the deterministic ``interrupt_after`` budget runs out."""

    def __init__(self, completed: int) -> None:
        super().__init__(
            f"search interrupted after {completed} newly-checkpointed "
            f"run(s); resume with `repro dse run` on the same directory"
        )
        self.completed = completed


@dataclass(frozen=True)
class EvolutionParams:
    """Knobs of the evolutionary loop."""

    population: int = 12
    generations: int = 4
    elites: int = 2
    mutation_rate: float = 0.35
    mutation_scale: float = 0.2
    crossover_rate: float = 0.7
    tournament: int = 2

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError(f"population must be >= 2, got {self.population}")
        if self.generations < 1:
            raise ValueError(
                f"generations must be >= 1, got {self.generations}"
            )
        if not 0 <= self.elites <= self.population:
            raise ValueError(
                f"elites must be in [0, population], got {self.elites}"
            )
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if self.mutation_scale <= 0:
            raise ValueError("mutation_scale must be positive")
        if self.tournament < 1:
            raise ValueError(f"tournament must be >= 1, got {self.tournament}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class SurrogateParams:
    """Knobs of the surrogate pruning stage."""

    degree: int = 2
    min_points: int = 8
    threshold: Optional[float] = 0.25

    def __post_init__(self) -> None:
        if self.degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {self.degree}")
        if self.min_points < 2:
            raise ValueError(f"min_points must be >= 2, got {self.min_points}")
        if self.threshold is not None and self.threshold < 0:
            raise ValueError(
                f"threshold must be >= 0 or null, got {self.threshold}"
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class DseSpec:
    """The declarative definition of one design-space exploration."""

    name: str
    space: SearchSpace
    base: Tuple[Tuple[str, object], ...] = ()
    objectives: Tuple[str, ...] = _DEFAULT_OBJECTIVES
    weights: Optional[Tuple[float, ...]] = None
    seeds: SeedPlan = field(default_factory=SeedPlan)
    stop: Optional[StopRule] = None
    evolve: EvolutionParams = field(default_factory=EvolutionParams)
    surrogate: SurrogateParams = field(default_factory=SurrogateParams)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("search name must be non-empty")
        if not self.objectives:
            raise ValueError("a search needs at least one objective")
        unknown = [o for o in self.objectives if o not in OBJECTIVES]
        if unknown:
            raise ValueError(
                f"unknown objectives {unknown}; known: {sorted(OBJECTIVES)}"
            )
        if len(set(self.objectives)) != len(self.objectives):
            raise ValueError("duplicate objectives")
        if self.weights is not None and len(self.weights) != len(
            self.objectives
        ):
            raise ValueError(
                f"{len(self.weights)} weight(s) for "
                f"{len(self.objectives)} objective(s)"
            )
        known = {f.name for f in dataclasses.fields(SystemConfig)}
        bad = [k for k, _ in self.base if k not in known]
        if bad:
            raise ValueError(f"unknown SystemConfig fields in base: {bad}")
        if any(k == "seed" for k, _ in self.base):
            raise ValueError(
                "'seed' cannot appear in base; seeds come from the seed plan"
            )
        # Canonical field order, so digests ignore JSON key order.
        object.__setattr__(
            self, "base", tuple(sorted(self.base, key=lambda kv: kv[0]))
        )
        # The paper-default candidate must live inside the space, so the
        # search always contains the configuration it tries to beat.
        self.default_candidate()

    # ------------------------------------------------------------------
    # Construction / serialisation
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DseSpec":
        """Build a spec from a plain dict (e.g. parsed spec.json).

        Malformed input of any shape raises ``ValueError`` naming the
        field (``evolve.population``, ``space``, ...).  A config
        value of the wrong type in ``base`` is reported when a
        candidate's config is resolved, as in campaign specs.
        """
        if not isinstance(data, dict):
            raise ValueError(f"dse spec must be an object, got {data!r}")
        known = {
            "schema", "name", "space", "base", "objectives", "weights",
            "seeds", "stop", "evolve", "surrogate",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown dse spec keys: {sorted(unknown)}")
        name = data.get("name", "")
        if not isinstance(name, str):
            raise ValueError(f"field 'name' must be str, got {name!r}")
        base = _member(data, "base", dict, {})
        objectives = _member(data, "objectives", list, _DEFAULT_OBJECTIVES)
        weights = _member(data, "weights", list, None)
        if weights is not None and not all(
            isinstance(w, (int, float)) and not isinstance(w, bool)
            for w in weights
        ):
            raise ValueError(
                f"field 'weights' must be an array of numbers, got {weights!r}"
            )
        stop = data.get("stop")
        return cls(
            name=name,
            space=SearchSpace.from_list(_member(data, "space", list, [])),
            base=tuple(
                (k, freeze_value(v)) for k, v in base.items()
            ),
            objectives=tuple(str(o) for o in objectives),
            weights=(
                tuple(float(w) for w in weights)
                if weights is not None
                else None
            ),
            seeds=dataclass_from_dict(
                SeedPlan, _member(data, "seeds", dict, {}), "seeds."
            ),
            stop=(
                None
                if stop is None
                else dataclass_from_dict(StopRule, stop, "stop.")
            ),
            evolve=dataclass_from_dict(
                EvolutionParams, _member(data, "evolve", dict, {}), "evolve."
            ),
            surrogate=dataclass_from_dict(
                SurrogateParams,
                _member(data, "surrogate", dict, {}),
                "surrogate.",
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "DseSpec":
        """Parse a spec from its JSON text."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("dse spec JSON must be an object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "DseSpec":
        """Read a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form, the inverse of :meth:`from_dict`."""
        return {
            "schema": 1,
            "name": self.name,
            "space": self.space.to_list(),
            "base": {k: v for k, v in self.base},
            "objectives": list(self.objectives),
            "weights": list(self.weights) if self.weights else None,
            "seeds": self.seeds.to_dict(),
            "stop": self.stop.to_dict() if self.stop else None,
            "evolve": self.evolve.to_dict(),
            "surrogate": self.surrogate.to_dict(),
        }

    def to_json(self) -> str:
        """Serialize to the canonical JSON form (sorted keys)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: str) -> None:
        """Write the spec as JSON to ``path`` (atomically: never torn)."""
        atomic_write_text(path, self.to_json() + "\n")

    def spec_digest(self) -> str:
        """Content digest pinning a search directory to its spec."""
        return digest_of([json.dumps(self.to_dict(), sort_keys=True)])

    # ------------------------------------------------------------------
    # Derived facts
    # ------------------------------------------------------------------
    @property
    def senses(self) -> List[str]:
        """Optimisation sense per objective, in spec order."""
        return [OBJECTIVES[name].sense for name in self.objectives]

    def default_candidate(self) -> Candidate:
        """The paper-default candidate: base/default values per parameter.

        This is the configuration the search must contain (and hopes to
        dominate): every searched field at the value the base — or,
        absent that, the ``SystemConfig`` default — gives it.
        """
        defaults = config_to_dict(SystemConfig())
        for key, value in self.base:
            defaults[key] = value
        return self.space.validate_candidate(
            {name: defaults[name] for name in self.space.names}
        )

    def generation_rng(self, generation: int) -> np.random.Generator:
        """The seeded Generator that drives one generation's proposals."""
        material = f"{self.spec_digest()}:gen:{generation}".encode("ascii")
        seed = int.from_bytes(
            hashlib.sha256(material).digest()[:8], "big"
        )
        return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# Archive: everything the search has evaluated so far
# ----------------------------------------------------------------------
@dataclass
class ArchiveEntry:
    """One evaluated candidate: its cell, params, and objective vector."""

    digest: str
    candidate: Candidate
    cell: Cell
    vector: ObjectiveVector
    generation: int


def _ranked_digests(
    archive: Dict[str, ArchiveEntry],
    objectives: Sequence[str],
    senses: Sequence[str],
    weights: Optional[Sequence[float]],
) -> List[str]:
    """Archive digests best-first: Pareto rank, then MCDM score, then id."""
    digests = sorted(archive)
    vectors = [archive[d].vector for d in digests]
    ranks = non_dominated_sort(vectors, senses)
    scores = weighted_sum_scores(vectors, senses, weights)
    order = sorted(
        range(len(digests)),
        key=lambda i: (ranks[i], -scores[i], digests[i]),
    )
    return [digests[i] for i in order]


def _propose(
    spec: DseSpec,
    generation: int,
    archive: Dict[str, ArchiveEntry],
    rng: np.random.Generator,
) -> List[Candidate]:
    """One generation's candidate list (deduped, deterministic)."""
    space = spec.space
    out: List[Candidate] = []
    seen: set = set()

    def push(candidate: Candidate) -> bool:
        digest = space.digest_of(candidate)
        if digest in seen:
            return False
        seen.add(digest)
        out.append(candidate)
        return True

    target = spec.evolve.population
    budget = 20 * target  # proposal attempts; tiny spaces exhaust early
    if generation == 0 or not archive:
        push(spec.default_candidate())
        while len(out) < target and budget > 0:
            budget -= 1
            push(space.sample(rng))
        return out
    ranked = _ranked_digests(
        archive, spec.objectives, spec.senses, spec.weights
    )
    for digest in ranked[: spec.evolve.elites]:
        push(archive[digest].candidate)

    def tournament_pick() -> Candidate:
        k = min(spec.evolve.tournament, len(ranked))
        picks = rng.integers(0, len(ranked), size=k)
        best = min(int(i) for i in picks)  # ranked is best-first
        return archive[ranked[best]].candidate

    while len(out) < target and budget > 0:
        budget -= 1
        parent_a = tournament_pick()
        parent_b = tournament_pick()
        if rng.random() < spec.evolve.crossover_rate:
            child = space.crossover(parent_a, parent_b, rng)
        else:
            child = dict(parent_a)
        child = space.mutate(
            child, rng, spec.evolve.mutation_rate, spec.evolve.mutation_scale
        )
        push(child)
    while len(out) < target and budget > 0:
        budget -= 1
        push(space.sample(rng))
    return out


def _known_scalar_scores(
    spec: DseSpec,
    archive: Dict[str, ArchiveEntry],
    candidates: Sequence[Candidate],
    predicted: Dict[int, ObjectiveVector],
) -> List[float]:
    """Scalarized (higher-better) scores for a candidate round.

    Normalisation bounds come from the union of the archive's true
    vectors and the round's predicted ones, so known and predicted
    scores live on one scale.
    """
    digests = [spec.space.digest_of(c) for c in candidates]
    archive_order = sorted(archive)
    pool: List[ObjectiveVector] = [archive[d].vector for d in archive_order]
    position = {digest: i for i, digest in enumerate(archive_order)}
    index_of_candidate: List[int] = []
    for i, digest in enumerate(digests):
        if digest in position:
            index_of_candidate.append(position[digest])
        else:
            pool.append(predicted[i])
            index_of_candidate.append(len(pool) - 1)
    scores = weighted_sum_scores(pool, spec.senses, spec.weights)
    return [scores[i] for i in index_of_candidate]


# ----------------------------------------------------------------------
# Evaluation through the campaign substrate
# ----------------------------------------------------------------------
def _generation_campaign_spec(
    spec: DseSpec, generation: int, cells: Sequence[Cell]
) -> CampaignSpec:
    """The campaign that evaluates one generation's surviving cells."""
    return CampaignSpec(
        name=f"{spec.name}-g{generation:03d}",
        base=spec.base,
        fixed_cells=tuple(cells),
        seeds=spec.seeds,
        stop=spec.stop,
    )


def _records_by_cell(
    records: Dict[str, Dict[str, object]]
) -> Dict[Cell, List[Dict[str, object]]]:
    out: Dict[Cell, List[Dict[str, object]]] = {}
    # Digest-sorted iteration keeps per-cell record order deterministic.
    for digest in sorted(records):
        record = records[digest]
        cell: Cell = tuple(
            (str(name), freeze_value(value))
            for name, value in record.get("cell", [])
        )
        out.setdefault(cell, []).append(record)
    return out


def _front_doc(
    spec: DseSpec, archive: Dict[str, ArchiveEntry], generations_done: int
) -> Dict[str, object]:
    """The deterministic ``front.json`` document."""
    digests = sorted(archive)
    vectors = [archive[d].vector for d in digests]
    front = pareto_front_indices(vectors, spec.senses)
    points = [
        {
            "cell_digest": digests[i],
            "params": dict(sorted(archive[digests[i]].candidate.items())),
            "objectives": dict(
                zip(spec.objectives, archive[digests[i]].vector)
            ),
        }
        for i in front
    ]
    points.sort(key=lambda p: p["cell_digest"])
    return {
        "schema": 1,
        "name": spec.name,
        "spec_digest": spec.spec_digest(),
        "objectives": list(spec.objectives),
        "senses": list(spec.senses),
        "generations_done": generations_done,
        "n_evaluated": len(archive),
        "points": points,
        "front_digest": digest_of([json.dumps(points, sort_keys=True)]),
    }


@dataclass
class SearchOutcome:
    """Everything ``run_search`` leaves behind, in memory form."""

    name: str
    spec_digest: str
    front: List[Dict[str, object]]
    front_digest: str
    counters: Dict[str, int]
    per_generation: List[Dict[str, object]]
    default: Dict[str, object]
    complete: bool
    exhaustive_size: Optional[int]

    def dominating_default(self, min_better: int = 2) -> List[Dict[str, object]]:
        """Front points at least as good as the default everywhere it is
        defined, equal on ``escapes`` when present, and strictly better
        on at least ``min_better`` objectives."""
        names = list(self.default.get("objectives", {}).keys())
        senses = [OBJECTIVES[n].sense for n in names]
        base_vec = tuple(
            self.default["objectives"][n] for n in names
        )
        out = []
        for point in self.front:
            vec = tuple(point["objectives"][n] for n in names)
            if "escapes" in names:
                k = names.index("escapes")
                if vec[k] != base_vec[k]:
                    continue
            if not dominates(vec, base_vec, senses):
                continue
            better = lsum(
                1
                for n, a, b in zip(names, vec, base_vec)
                if a is not None and b is not None
                and OBJECTIVES[n].better(a, b)
            )
            if better >= min_better:
                out.append(point)
        return out

    def render(self, precision: int = 4) -> str:
        """Human-readable search report."""
        rows = [
            [
                g["generation"], g["proposed"], g["cache_hits"],
                g["pruned"], g["evaluated"], g["archive"], g["front"],
            ]
            for g in self.per_generation
        ]
        parts = [
            format_table(
                ["gen", "proposed", "cache_hits", "pruned", "evaluated",
                 "archive", "front"],
                rows,
                precision=precision,
                title=(
                    f"dse {self.name}: {self.counters['evaluated']} "
                    f"evaluated / {self.counters['proposed']} proposed"
                    + (
                        f" (exhaustive grid: {self.exhaustive_size})"
                        if self.exhaustive_size is not None
                        else ""
                    )
                ),
            )
        ]
        dominating = self.dominating_default()
        parts.append(
            f"front: {len(self.front)} non-dominated point(s); "
            f"{len(dominating)} dominate the paper-default config "
            f"on >= 2 objectives at equal escapes"
        )
        parts.append(f"front digest: {self.front_digest}")
        if not self.complete:
            parts.append(
                "search incomplete: resume with `repro dse run` on the "
                "same directory"
            )
        return "\n".join(parts)


def _report_doc(outcome: SearchOutcome) -> Dict[str, object]:
    return {
        "schema": 1,
        "name": outcome.name,
        "spec_digest": outcome.spec_digest,
        "counters": outcome.counters,
        "per_generation": outcome.per_generation,
        "default": outcome.default,
        "front_digest": outcome.front_digest,
        "complete": outcome.complete,
        "exhaustive_size": outcome.exhaustive_size,
    }


def _outcome_from_report(
    doc: Dict[str, object], front_doc: Dict[str, object]
) -> SearchOutcome:
    return SearchOutcome(
        name=str(doc["name"]),
        spec_digest=str(doc["spec_digest"]),
        front=list(front_doc.get("points", [])),
        front_digest=str(front_doc.get("front_digest", "")),
        counters=dict(doc["counters"]),
        per_generation=list(doc["per_generation"]),
        default=dict(doc["default"]),
        complete=bool(doc["complete"]),
        exhaustive_size=doc.get("exhaustive_size"),
    )


# ----------------------------------------------------------------------
# Run / resume / report
# ----------------------------------------------------------------------
def _prepare_search_dir(spec: Optional[DseSpec], search_dir: str) -> DseSpec:
    os.makedirs(search_dir, exist_ok=True)
    spec_path = os.path.join(search_dir, SPEC_FILE)
    if os.path.exists(spec_path):
        existing = DseSpec.load(spec_path)
        if spec is not None and existing.spec_digest() != spec.spec_digest():
            raise ValueError(
                f"{search_dir!r} already holds search {existing.name!r} "
                f"with a different spec; refusing to mix searches in one "
                f"directory"
            )
        return existing
    if spec is None:
        raise FileNotFoundError(
            f"{search_dir!r} is not a search directory (no {SPEC_FILE}) "
            f"and no spec was given"
        )
    spec.save(spec_path)
    return spec


def _resolve_cache(cache, search_dir: str):
    """The run cache evaluations ride (default: one inside the dir)."""
    if cache is False:
        return None
    if cache is None:
        from repro.cache import RunCache

        return RunCache(cache_dir=os.path.join(search_dir, "cache"))
    return cache


def run_search(
    search_dir: str,
    spec: Optional[DseSpec] = None,
    jobs: Optional[int] = None,
    cache=None,
    interrupt_after: Optional[int] = None,
    telemetry: bool = True,
) -> SearchOutcome:
    """Run (or resume) a search to completion.

    Idempotent by construction: pointing ``run_search`` at a directory
    that already holds a partial search re-derives every generation and
    only simulates what the checkpoint stores are missing.  ``spec`` may
    be omitted for an existing directory; when both are given their
    digests must match.

    ``cache`` — ``None`` uses a :class:`repro.cache.RunCache` under
    ``<search_dir>/cache`` (recommended: re-proposed candidates and
    overlapping searches are served warm), ``False`` disables caching,
    any other value is used as the cache instance.

    ``interrupt_after`` (testing/ops hook) deterministically simulates a
    crash after N newly-checkpointed simulation runs by raising
    :class:`SearchInterrupted` — the same contract campaigns make, and
    the hook the ``dse-smoke`` CI job kills searches with.

    ``jobs`` passes straight through to
    :func:`repro.campaign.runner.run_campaign`; results are
    digest-identical whatever its value.
    """
    spec = _prepare_search_dir(spec, search_dir)
    run_cache = _resolve_cache(cache, search_dir)
    try:
        return _search(
            spec, search_dir, jobs, run_cache, interrupt_after, telemetry
        )
    finally:
        if cache is None:  # the search opened its own cache
            run_cache.close()


def _search(
    spec: DseSpec,
    search_dir: str,
    jobs: Optional[int],
    run_cache,
    interrupt_after: Optional[int],
    telemetry: bool,
) -> SearchOutcome:
    """:func:`run_search` once its directory and run cache are ready."""
    counters = {
        "proposed": 0, "cache_hits": 0, "pruned": 0,
        "evaluated": 0, "generations": 0,
    }

    archive: Dict[str, ArchiveEntry] = {}
    per_generation: List[Dict[str, object]] = []
    surrogate = PolynomialSurrogate(spec.space, degree=spec.surrogate.degree)
    remaining = interrupt_after
    completed_runs = 0
    default_digest = spec.space.digest_of(spec.default_candidate())

    def flush(complete: bool) -> SearchOutcome:
        front_doc = _front_doc(spec, archive, counters["generations"])
        default_entry = archive.get(default_digest)
        outcome = SearchOutcome(
            name=spec.name,
            spec_digest=spec.spec_digest(),
            front=list(front_doc["points"]),
            front_digest=str(front_doc["front_digest"]),
            counters=dict(counters),
            per_generation=list(per_generation),
            default={
                "cell_digest": default_digest,
                "objectives": (
                    dict(zip(spec.objectives, default_entry.vector))
                    if default_entry is not None
                    else None
                ),
            },
            complete=complete,
            exhaustive_size=spec.space.exhaustive_size(),
        )
        atomic_write_text(
            os.path.join(search_dir, FRONT_FILE),
            json.dumps(front_doc, indent=2, sort_keys=True) + "\n",
        )
        atomic_write_text(
            os.path.join(search_dir, REPORT_FILE),
            json.dumps(_report_doc(outcome), indent=2, sort_keys=True) + "\n",
        )
        return outcome

    for generation in range(spec.evolve.generations):
        rng = spec.generation_rng(generation)
        candidates = _propose(spec, generation, archive, rng)
        counters["proposed"] += len(candidates)
        digests = [spec.space.digest_of(c) for c in candidates]
        known_mask = [d in archive for d in digests]
        counters["cache_hits"] += lsum(known_mask)
        unknown = [
            (i, c)
            for i, (c, k) in enumerate(zip(candidates, known_mask))
            if not k
        ]
        pruned_digests: List[str] = []
        evaluate = [c for _, c in unknown]
        can_prune = (
            spec.surrogate.threshold is not None
            and len(archive) >= spec.surrogate.min_points
            and unknown
        )
        if can_prune:
            fit_digests = sorted(archive)
            surrogate.fit(
                [archive[d].candidate for d in fit_digests],
                [archive[d].vector for d in fit_digests],
            )
            predicted = dict(
                zip(
                    [i for i, _ in unknown],
                    surrogate.predict([c for _, c in unknown]),
                )
            )
            scores = _known_scalar_scores(
                spec, archive, candidates, predicted
            )
            outcome = prune_candidates(
                scores, known_mask, spec.surrogate.threshold
            )
            evaluate = [
                candidates[i] for i in outcome.kept if not known_mask[i]
            ]
            pruned_digests = [digests[i] for i in outcome.pruned]
            counters["pruned"] += len(pruned_digests)
        counters["evaluated"] += len(evaluate)

        if evaluate:
            cells = sorted(
                (spec.space.cell_of(c) for c in evaluate),
                key=cell_digest,
            )
            camp_spec = _generation_campaign_spec(spec, generation, cells)
            gen_dir = os.path.join(search_dir, f"gen-{generation:03d}")
            store = ResultStore(os.path.join(gen_dir, RESULTS_FILE))
            resume = os.path.exists(store.path)
            if resume:
                from repro.campaign.runner import load_spec

                existing = load_spec(gen_dir)
                if existing.spec_digest() != camp_spec.spec_digest():
                    raise ValueError(
                        f"{gen_dir!r} holds a campaign that does not "
                        f"match generation {generation} of this search; "
                        f"the directory has been tampered with"
                    )
            before = len(store.load())
            if remaining is not None and remaining <= 0:
                raise SearchInterrupted(completed_runs)
            try:
                run_campaign(
                    gen_dir,
                    spec=None if resume else camp_spec,
                    resume=resume,
                    jobs=jobs,
                    cache=run_cache,
                    interrupt_after=remaining,
                    telemetry=telemetry,
                )
            except CampaignInterrupted:
                completed_runs += max(0, len(store.load()) - before)
                flush(complete=False)
                raise SearchInterrupted(completed_runs) from None
            checkpoint = store.load()
            new_runs = len(checkpoint) - before
            completed_runs += new_runs
            if remaining is not None:
                remaining -= new_runs
            by_cell = _records_by_cell(checkpoint)
            for candidate in evaluate:
                cell = spec.space.cell_of(candidate)
                records = by_cell.get(cell, [])
                if not records:
                    continue  # quarantined out; may be re-proposed later
                digest = cell_digest(cell)
                archive[digest] = ArchiveEntry(
                    digest=digest,
                    candidate=candidate,
                    cell=cell,
                    vector=objective_vector(spec.objectives, records),
                    generation=generation,
                )
        counters["generations"] += 1
        digests_set = set(archive)
        front_size = len(
            pareto_front_indices(
                [archive[d].vector for d in sorted(digests_set)],
                spec.senses,
            )
        )
        per_generation.append(
            {
                "generation": generation,
                "proposed": len(candidates),
                "cache_hits": lsum(known_mask),
                "pruned": len(pruned_digests),
                "evaluated": len(evaluate),
                "archive": len(archive),
                "front": front_size,
            }
        )
        outcome = flush(complete=(generation == spec.evolve.generations - 1))
    return outcome


def report_search(search_dir: str) -> SearchOutcome:
    """Rebuild the outcome of an existing search directory (no runs)."""
    report_path = os.path.join(search_dir, REPORT_FILE)
    front_path = os.path.join(search_dir, FRONT_FILE)
    if not os.path.exists(report_path) or not os.path.exists(front_path):
        raise FileNotFoundError(
            f"{search_dir!r} has no search report yet; run "
            f"`repro dse run` first"
        )
    with open(report_path, "r", encoding="utf-8") as handle:
        report_doc = json.load(handle)
    with open(front_path, "r", encoding="utf-8") as handle:
        front_doc = json.load(handle)
    return _outcome_from_report(report_doc, front_doc)


def load_front(search_dir: str) -> Dict[str, object]:
    """Read the ``front.json`` artifact of a search directory."""
    path = os.path.join(search_dir, FRONT_FILE)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"{search_dir!r} has no {FRONT_FILE} yet; run "
            f"`repro dse run` first"
        )
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
