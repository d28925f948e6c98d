"""Pareto-front extraction and multi-criteria decision support.

The paper reports a *fixed* scheduler/mapper/PID parameterisation and
the resulting (throughput, test latency, escapes, power) trade-off; a
design-space exploration instead produces a *set* of parameterisations,
and the useful summary of that set is its **Pareto front** — the
candidates no other candidate beats on every objective at once.

This module is pure math over plain data (no simulation imports):

* an objective **catalog** mapping metric names to their optimisation
  sense and their extractor over a cell's checkpoint records;
* **non-dominated sorting** (the NSGA-style ranking) and front
  extraction, deterministic and order-independent — permuting the
  candidate list never changes the front *set*;
* two simple MCDM rankings for picking a single winner off the front:
  **weighted-sum** over min-max-normalised objectives and
  **lexicographic** with tolerance bands.

Missing objective values (``None`` — e.g. detection latency when no
fault was ever detected) always compare as *worst possible*, so a
candidate cannot ride an undefined metric onto the front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro._sum import lsum

#: Optimisation sense of one objective.
MAXIMIZE = "max"
MINIMIZE = "min"


def _mean(values: Sequence[float]) -> Optional[float]:
    return lsum(values) / len(values) if values else None


def _summaries(records: Sequence[Dict[str, object]]) -> List[Dict[str, float]]:
    return [r.get("summary", {}) for r in records]


def _obj_throughput(records: Sequence[Dict[str, object]]) -> Optional[float]:
    return _mean(
        [float(s["throughput_ops_per_us"]) for s in _summaries(records)]
    )


def _obj_power(records: Sequence[Dict[str, object]]) -> Optional[float]:
    return _mean([float(s["avg_power_w"]) for s in _summaries(records)])


def _obj_escapes(records: Sequence[Dict[str, object]]) -> Optional[float]:
    escapes = 0
    for record in records:
        for fault in record.get("faults", []):
            if fault.get("detected_at") is None:
                escapes += 1
    return float(escapes)


def _obj_latency(records: Sequence[Dict[str, object]]) -> Optional[float]:
    latencies: List[float] = []
    for record in records:
        for fault in record.get("faults", []):
            detected = fault.get("detected_at")
            if detected is not None:
                latencies.append(
                    float(detected) - float(fault["injected_at"])
                )
    return _mean(latencies)


def _obj_violations(records: Sequence[Dict[str, object]]) -> Optional[float]:
    return _mean(
        [float(s["budget_violation_rate"]) for s in _summaries(records)]
    )


def _obj_tests(records: Sequence[Dict[str, object]]) -> Optional[float]:
    return _mean([float(s["tests_completed"]) for s in _summaries(records)])


@dataclass(frozen=True)
class ObjectiveDef:
    """One named objective: its sense and its record-level extractor."""

    name: str
    sense: str
    extract: Callable[[Sequence[Dict[str, object]]], Optional[float]]
    description: str

    def better(self, a: float, b: float) -> bool:
        """Whether value ``a`` strictly beats ``b`` under this sense."""
        return a > b if self.sense == MAXIMIZE else a < b


#: Every objective a DSE spec may select, keyed by name.  Extractors
#: consume the cell's campaign checkpoint records (all seeds).
OBJECTIVES: Dict[str, ObjectiveDef] = {
    o.name: o
    for o in (
        ObjectiveDef(
            "throughput", MAXIMIZE, _obj_throughput,
            "mean app throughput (ops/us) over the cell's seeds",
        ),
        ObjectiveDef(
            "latency", MINIMIZE, _obj_latency,
            "mean fault-detection latency (us) over detected faults",
        ),
        ObjectiveDef(
            "escapes", MINIMIZE, _obj_escapes,
            "total injected faults never detected (the escape count)",
        ),
        ObjectiveDef(
            "power", MINIMIZE, _obj_power,
            "mean average chip power (W) over the cell's seeds",
        ),
        ObjectiveDef(
            "violations", MINIMIZE, _obj_violations,
            "mean TDP budget-violation rate",
        ),
        ObjectiveDef(
            "tests", MAXIMIZE, _obj_tests,
            "mean completed SBST sessions per run",
        ),
    )
}

#: One candidate's objective values, aligned with a spec's objective
#: name tuple; ``None`` means the metric was undefined for the cell.
ObjectiveVector = Tuple[Optional[float], ...]


def objective_vector(
    names: Sequence[str], records: Sequence[Dict[str, object]]
) -> ObjectiveVector:
    """Extract the named objectives from one cell's records."""
    return tuple(OBJECTIVES[name].extract(records) for name in names)


def _oriented(value: Optional[float], sense: str) -> float:
    """Map a raw value onto a bigger-is-better axis (None -> -inf)."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return -math.inf
    return value if sense == MAXIMIZE else -value


def dominates(
    a: ObjectiveVector, b: ObjectiveVector, senses: Sequence[str]
) -> bool:
    """Whether ``a`` Pareto-dominates ``b``: >= everywhere, > somewhere."""
    strictly_better = False
    for va, vb, sense in zip(a, b, senses):
        oa, ob = _oriented(va, sense), _oriented(vb, sense)
        if oa < ob:
            return False
        if oa > ob:
            strictly_better = True
    return strictly_better


def non_dominated_sort(
    vectors: Sequence[ObjectiveVector], senses: Sequence[str]
) -> List[int]:
    """NSGA-style rank per vector (0 = the Pareto front).

    O(n^2) pairwise domination — fine at search-archive scale (hundreds
    of candidates).  The ranking is a pure function of the vector
    *multiset*: permuting the input permutes the output identically.
    """
    n = len(vectors)
    dominated_by = [0] * n            # how many vectors dominate i
    dominates_list: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(vectors[i], vectors[j], senses):
                dominates_list[i].append(j)
                dominated_by[j] += 1
            elif dominates(vectors[j], vectors[i], senses):
                dominates_list[j].append(i)
                dominated_by[i] += 1
    ranks = [0] * n
    current = [i for i in range(n) if dominated_by[i] == 0]
    rank = 0
    while current:
        next_front: List[int] = []
        for i in current:
            ranks[i] = rank
            for j in dominates_list[i]:
                dominated_by[j] -= 1
                if dominated_by[j] == 0:
                    next_front.append(j)
        current = next_front
        rank += 1
    return ranks


def pareto_front_indices(
    vectors: Sequence[ObjectiveVector], senses: Sequence[str]
) -> List[int]:
    """Indices of the non-dominated vectors, in input order."""
    ranks = non_dominated_sort(vectors, senses)
    return [i for i, rank in enumerate(ranks) if rank == 0]


# ----------------------------------------------------------------------
# MCDM rankings
# ----------------------------------------------------------------------
def normalize_columns(
    vectors: Sequence[ObjectiveVector], senses: Sequence[str]
) -> List[List[float]]:
    """Min-max normalise each objective to [0, 1] with 1 = best.

    Constant columns normalise to 1.0 (every candidate is equally best);
    ``None`` entries normalise to 0.0 (worst).  The bounds come from the
    supplied vectors only, so rankings are self-contained and
    deterministic.
    """
    n_obj = len(senses)
    columns: List[List[float]] = []
    for k in range(n_obj):
        oriented = [_oriented(v[k], senses[k]) for v in vectors]
        finite = [x for x in oriented if x != -math.inf]
        if not finite:
            columns.append([0.0] * len(vectors))
            continue
        low, high = min(finite), max(finite)
        span = high - low
        column = []
        for x in oriented:
            if x == -math.inf:
                column.append(0.0)
            elif span == 0.0:
                column.append(1.0)
            else:
                column.append((x - low) / span)
        columns.append(column)
    return [
        [columns[k][i] for k in range(n_obj)] for i in range(len(vectors))
    ]


def weighted_sum_scores(
    vectors: Sequence[ObjectiveVector],
    senses: Sequence[str],
    weights: Optional[Sequence[float]] = None,
) -> List[float]:
    """Weighted-sum MCDM score per vector (higher is better, in [0, 1]).

    Objectives are min-max normalised over the supplied vectors first,
    so weights express relative importance, not units.
    """
    if weights is None:
        weights = [1.0] * len(senses)
    if len(weights) != len(senses):
        raise ValueError(
            f"{len(weights)} weight(s) for {len(senses)} objective(s)"
        )
    total = float(lsum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    rows = normalize_columns(vectors, senses)
    return [
        lsum(w * x for w, x in zip(weights, row)) / total for row in rows
    ]


def weighted_sum_ranking(
    vectors: Sequence[ObjectiveVector],
    senses: Sequence[str],
    weights: Optional[Sequence[float]] = None,
    tie_break: Optional[Sequence[str]] = None,
) -> List[int]:
    """Vector indices sorted best-first by weighted-sum score.

    ``tie_break`` (e.g. the candidates' cell digests) makes the order
    total and deterministic when scores tie exactly.
    """
    scores = weighted_sum_scores(vectors, senses, weights)
    keys = (
        list(tie_break) if tie_break is not None else list(range(len(scores)))
    )
    if len(keys) != len(scores):
        raise ValueError("tie_break must align with vectors")
    return sorted(
        range(len(scores)), key=lambda i: (-scores[i], keys[i])
    )


def lexicographic_ranking(
    vectors: Sequence[ObjectiveVector],
    senses: Sequence[str],
    order: Sequence[int],
    tolerance: float = 0.0,
    tie_break: Optional[Sequence[str]] = None,
) -> List[int]:
    """Vector indices sorted best-first by objective priority.

    ``order`` lists objective positions by decreasing priority; a later
    objective only decides among candidates whose earlier objectives lie
    strictly within ``tolerance`` (a fraction of each objective's
    normalised [0, 1] span) of the best observed value.  The last
    prioritised objective always discriminates exactly.  Tolerance 0 is
    the classic strict lexicographic order.
    """
    if sorted(order) != list(range(len(senses))):
        raise ValueError(
            f"order must be a permutation of 0..{len(senses) - 1}, "
            f"got {list(order)}"
        )
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    rows = normalize_columns(vectors, senses)
    best = [
        max(rows[i][k] for i in range(len(rows))) if rows else 0.0
        for k in range(len(senses))
    ]

    def key(i: int) -> Tuple:
        # Band each non-final prioritised objective by its distance from
        # the best value; within a band the next objective decides.
        parts: List[float] = []
        for k in order[:-1]:
            x = rows[i][k]
            parts.append(
                math.floor((best[k] - x) / tolerance)
                if tolerance > 0
                else -x
            )
        parts.append(-rows[i][order[-1]])
        tail = tie_break[i] if tie_break is not None else i
        return (*parts, tail)

    return sorted(range(len(vectors)), key=key)
