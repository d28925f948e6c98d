"""Surrogate-guided design-space exploration with Pareto decision support.

The paper ships *one* scheduler/mapper/PID parameterisation and
evaluates it; this package searches the space around that point.  A
:class:`~repro.dse.search.DseSpec` declares the searchable knobs
(:mod:`repro.dse.space`), the objectives (:mod:`repro.dse.pareto`) and
the evolutionary/surrogate settings; :func:`~repro.dse.search.run_search`
then runs a seeded, fully deterministic evolutionary loop whose
evaluation step is literally a campaign — so it inherits checkpointing,
the process pool, the run cache and the sequential stopping rules
unchanged, and a killed search resumes to a byte-identical
``front.json``.

>>> from repro.dse import DseSpec
>>> spec = DseSpec.from_dict({
...     "name": "doc-demo",
...     "base": {"width": 4, "height": 4, "horizon_us": 2000.0},
...     "space": [
...         {"field": "max_concurrent_tests", "type": "int",
...          "low": 2, "high": 8},
...         {"field": "guard_fraction", "type": "float",
...          "low": 0.0, "high": 0.1},
...     ],
...     "objectives": ["throughput", "escapes", "power"],
... })
>>> spec.space.names
['max_concurrent_tests', 'guard_fraction']

See ``docs/dse.md`` for the search-space schema, the surrogate model,
the Pareto/MCDM semantics and a worked end-to-end example; the shell
interface is ``repro dse run | report | front``.
"""

from repro.dse.pareto import (
    OBJECTIVES,
    ObjectiveDef,
    ObjectiveVector,
    dominates,
    lexicographic_ranking,
    non_dominated_sort,
    normalize_columns,
    objective_vector,
    pareto_front_indices,
    weighted_sum_ranking,
    weighted_sum_scores,
)
from repro.dse.search import (
    ArchiveEntry,
    DseSpec,
    EvolutionParams,
    SearchInterrupted,
    SearchOutcome,
    SurrogateParams,
    load_front,
    report_search,
    run_search,
)
from repro.dse.space import (
    Candidate,
    ChoiceParam,
    FloatParam,
    IntParam,
    SearchSpace,
    param_from_dict,
)
from repro.dse.surrogate import (
    PolynomialSurrogate,
    PruneOutcome,
    polynomial_features,
    prune_candidates,
)

__all__ = [
    "OBJECTIVES",
    "ArchiveEntry",
    "Candidate",
    "ChoiceParam",
    "DseSpec",
    "EvolutionParams",
    "FloatParam",
    "IntParam",
    "ObjectiveDef",
    "ObjectiveVector",
    "PolynomialSurrogate",
    "PruneOutcome",
    "SearchInterrupted",
    "SearchOutcome",
    "SearchSpace",
    "SurrogateParams",
    "dominates",
    "lexicographic_ranking",
    "load_front",
    "non_dominated_sort",
    "normalize_columns",
    "objective_vector",
    "param_from_dict",
    "pareto_front_indices",
    "polynomial_features",
    "prune_candidates",
    "report_search",
    "run_search",
    "weighted_sum_ranking",
    "weighted_sum_scores",
]
