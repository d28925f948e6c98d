"""Heterogeneity gate: degenerate-config differential + E11 relations.

The heterogeneity layer (``repro.platform.coretypes`` /
``repro.platform.technology``) promises an *exact extension*: a config
where every tile is the degenerate ``std`` type under the baseline
``cmos`` model — however that is spelled (no ``type_grid``, a broadcast
``("std",)``, a full explicit grid) — must produce ``result_digest``\\ s
byte-identical to the pre-heterogeneity engine.  The goldens in
``tests/goldens/hetero_goldens.json`` were frozen from that engine, so
this gate is a time machine: it fails iff a later change moved a single
observable float on the homogeneous path.

Three gates:

* **differential** (always) — every degenerate spelling of the three
  golden workloads, through ``run_system``, pooled ``run_many`` and a
  cold+warm ``RunCache``, against the frozen
  digests (the served path is pinned separately in
  ``tests/test_hetero_differential.py``, which needs the async engine);
* **non-degenerate** (always) — the outputs the degenerate contract
  does not cover: E11's three configs (homogeneous, three-type ``cmos``,
  three-type ``ntv``) and ``g44_base`` under ``ntv``, scalar and pooled,
  plus the E11 and reduced-horizon E3 ``rows_digest``\\ s, serial and
  pooled, against ``tests/goldens/nondegenerate_goldens.json``;
* **relations** (``--relations``) — one E11 campaign cell: the
  three-type 4x4 experiment end-to-end plus the heterogeneous
  metamorphic catalog (:func:`repro.verify.hetero_relations`) and the
  full invariant checker on the E11 config.

Usage::

    PYTHONPATH=src python benchmarks/hetero_smoke.py               # differential
    PYTHONPATH=src python benchmarks/hetero_smoke.py --relations   # + E11 cell
    PYTHONPATH=src python benchmarks/hetero_smoke.py --regen       # refreeze

``--regen`` rewrites ``hetero_goldens.json`` from the *current* engine;
that is only legitimate when a digest-moving change is intentional and
documented.  It never touches ``nondegenerate_goldens.json``, which was
frozen once from the engine before the technology layer became a single
module, so that fold is checked against history too.  Exit status is non-zero on any mismatch or failed
relation.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from repro.cache import RunCache
from repro.core.system import SystemConfig, run_system
from repro.experiments.parallel import run_many
from repro.obs.provenance import result_digest

GOLDENS_PATH = (
    Path(__file__).resolve().parent.parent
    / "tests"
    / "goldens"
    / "hetero_goldens.json"
)

#: Heterogeneous / ``ntv`` outputs frozen once; ``--regen`` leaves them be.
NONDEGENERATE_PATH = GOLDENS_PATH.with_name("nondegenerate_goldens.json")

#: The frozen workloads.  Scales are deliberately small (a CI smoke must
#: finish in seconds) but span two meshes, two nodes and two budgets.
GOLDEN_BASES = {
    "g44_base": dict(
        width=4,
        height=4,
        node_name="16nm",
        tdp_w=25.0,
        horizon_us=6_000.0,
        arrival_rate_per_ms=10.0,
        seed=7,
        min_test_interval_us=1_000.0,
    ),
    "g44_45nm": dict(
        width=4,
        height=4,
        node_name="45nm",
        tdp_w=40.0,
        horizon_us=6_000.0,
        arrival_rate_per_ms=10.0,
        seed=5,
        min_test_interval_us=1_000.0,
    ),
    "g22_fast": dict(width=2, height=2, horizon_us=1_500.0, seed=3),
}

#: Seeds of the pooled and cached sweep golden cells (all on ``g44_base``).
SWEEP_SEEDS = [7, 14, 21, 28]


def golden_configs():
    """Name -> :class:`SystemConfig` for the scalar golden cells."""
    return {name: SystemConfig(**kw) for name, kw in GOLDEN_BASES.items()}


#: ``run_experiment`` kwargs of the experiment cells whose
#: ``rows_digest`` is frozen in the non-degenerate table.  E11's rows
#: carry its dark fractions; E3's carry the per-node lit fractions.
ROWS_CELLS = {
    "E11": dict(horizon_us=8_000.0, seed=11),
    "E3": dict(horizon_us=20_000.0, seed=11),
}


def nondegenerate_configs():
    """Name -> :class:`SystemConfig` for the heterogeneous / ``ntv`` cells.

    E11's three configs at its rows cell (the homogeneous control, the
    three-type floorplan under ``cmos`` and under ``ntv``) and
    ``g44_base`` under the ``ntv`` model.
    """
    from repro.experiments.runners import experiment_configs

    e11 = experiment_configs(**ROWS_CELLS["E11"])["E11"]
    return {
        "e11_homogeneous_cmos": replace(e11, type_grid=()),
        "e11_hetero3_cmos": e11,
        "e11_hetero3_ntv": replace(e11, tech_model="ntv"),
        "g44_base_ntv": replace(
            golden_configs()["g44_base"], tech_model="ntv"
        ),
    }


def experiment_rows_digest(experiment_id: str, jobs=None) -> str:
    """``rows_digest`` of one :data:`ROWS_CELLS` experiment cell."""
    from repro.experiments.runners import run_experiment

    result = run_experiment(
        experiment_id, jobs=jobs, **ROWS_CELLS[experiment_id]
    )
    return result.provenance["rows_digest"]


def degenerate_spellings(config: SystemConfig):
    """Every config spelling that must hit the same digest.

    The empty grid, the broadcast grid, the full explicit grid and the
    explicit baseline model all describe the *same* homogeneous chip;
    the heterogeneity layer owes them identical bytes.
    """
    n_cores = config.width * config.height
    return [
        config,
        replace(config, type_grid=("std",)),
        replace(config, type_grid=("std",) * n_cores),
        replace(config, type_grid=(), tech_model="cmos"),
    ]


def load_goldens() -> dict:
    """The frozen digest table (name@seed -> sha256 hex)."""
    return json.loads(GOLDENS_PATH.read_text())


def compute_goldens() -> dict:
    """Recompute the digest table from the current engine."""
    table = {}
    for name, config in golden_configs().items():
        table[f"{name}@{config.seed}"] = result_digest(run_system(config))
    base = golden_configs()["g44_base"]
    for seed in SWEEP_SEEDS:
        table[f"g44_base@{seed}"] = result_digest(
            run_system(replace(base, seed=seed))
        )
    return table


def differential_gate(jobs: int = 2) -> dict:
    """All degenerate paths against the frozen goldens.

    Returns a report dict; ``report["failures"]`` is empty iff every
    cell matched.
    """
    goldens = load_goldens()
    failures = []
    cells = 0

    # Scalar: every degenerate spelling of every golden workload.
    for name, config in golden_configs().items():
        want = goldens[f"{name}@{config.seed}"]
        for variant in degenerate_spellings(config):
            cells += 1
            got = result_digest(run_system(variant))
            if got != want:
                failures.append(
                    f"scalar {name}@{config.seed} "
                    f"(type_grid={variant.type_grid!r}): {got} != {want}"
                )

    # Pooled sweep + cold/warm cache round trip, on a hetero-spelled
    # degenerate config.
    base = replace(golden_configs()["g44_base"], type_grid=("std",))
    sweep = [replace(base, seed=seed) for seed in SWEEP_SEEDS]
    for label, results in (
        ("pooled", run_many(sweep, jobs)),
        ("cached", _cached_twice(sweep)),
    ):
        for seed, result in zip(SWEEP_SEEDS, results):
            cells += 1
            want = goldens[f"g44_base@{seed}"]
            got = result_digest(result)
            if got != want:
                failures.append(f"{label} g44_base@{seed}: {got} != {want}")

    return {"cells": cells, "failures": failures}


def load_nondegenerate_goldens() -> dict:
    """The frozen ``result_digest`` / ``rows_digest`` non-degenerate table."""
    return json.loads(NONDEGENERATE_PATH.read_text())


def nondegenerate_gate(jobs: int = 2) -> dict:
    """Heterogeneous and ``ntv`` outputs against their frozen digests.

    Every config cell runs scalar (``run_system``) and pooled
    (``run_many``); every experiment cell runs serial and pooled.
    Returns a report dict like :func:`differential_gate`'s.
    """
    goldens = load_nondegenerate_goldens()
    failures = []
    cells = 0

    configs = nondegenerate_configs()
    names = sorted(configs)
    pooled = run_many([configs[name] for name in names], jobs)
    for name, pooled_result in zip(names, pooled):
        config = configs[name]
        key = f"{name}@{config.seed}"
        want = goldens["result_digest"][key]
        for label, result in (
            ("scalar", run_system(config)),
            ("pooled", pooled_result),
        ):
            cells += 1
            got = result_digest(result)
            if got != want:
                failures.append(f"{label} {key}: {got} != {want}")

    for experiment_id in sorted(ROWS_CELLS):
        want = goldens["rows_digest"][experiment_id]
        for label, experiment_jobs in (("serial", None), ("pooled", jobs)):
            cells += 1
            got = experiment_rows_digest(experiment_id, experiment_jobs)
            if got != want:
                failures.append(
                    f"{label} {experiment_id} rows: {got} != {want}"
                )

    return {"cells": cells, "failures": failures}


def _cached_twice(sweep):
    """Run a sweep cold then warm through a throwaway cache; return the
    warm results (their digests must equal the cold/scalar ones)."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = RunCache(cache_dir=tmp)
        run_many(sweep, None, cache=cache)
        warm = run_many(sweep, None, cache=cache)
        if cache.stats.hits < len(sweep):
            raise RuntimeError(
                f"warm sweep hit the cache only {cache.stats.hits}/"
                f"{len(sweep)} times"
            )
        return warm


def relations_gate(
    horizon_us: float = 8_000.0, seed: int = 11, jobs: int = 2
) -> dict:
    """One E11 campaign cell: experiment + invariants + hetero relations.

    The relation runs are pooled, so the gate also checks that workers
    see the ``canary`` core type the zero-hazard relation registers in
    this process.
    """
    from repro.experiments.runners import experiment_configs, run_experiment
    from repro.verify import check_relations, hetero_relations, verify_config

    failures = []
    table = run_experiment("E11", horizon_us=horizon_us, seed=seed)
    darks = [row[2] for row in table.rows]
    if not all(0.0 <= dark <= 1.0 for dark in darks):
        failures.append(f"E11 dark fractions escaped [0, 1]: {darks}")

    config = experiment_configs(horizon_us=horizon_us, seed=seed)["E11"]
    _, checker = verify_config(config)
    if not checker.ok:
        failures.append(
            f"E11 config violated {len(checker.violations)} invariant(s)"
        )

    report = check_relations(config, relations=hetero_relations(), jobs=jobs)
    failures.extend(report.failures())
    return {
        "e11_rows": len(table.rows),
        "relation_runs": report.n_runs,
        "invariant_ticks": checker.ticks_checked,
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="worker processes for the pooled cells (default 2)",
    )
    parser.add_argument(
        "--relations",
        action="store_true",
        help="also run the E11 campaign cell with the hetero relations",
    )
    parser.add_argument(
        "--e11-horizon-us",
        type=float,
        default=8_000.0,
        help="horizon of the E11 relations cell (default 8 ms)",
    )
    parser.add_argument(
        "--regen",
        action="store_true",
        help="refreeze the goldens from the current engine and exit",
    )
    parser.add_argument(
        "--json", default=None, help="write the report to this path"
    )
    args = parser.parse_args(argv)

    if args.regen:
        table = compute_goldens()
        GOLDENS_PATH.write_text(
            json.dumps(table, indent=2, sort_keys=True) + "\n"
        )
        print(f"refroze {len(table)} golden digest(s) to {GOLDENS_PATH}")
        return 0

    failures = []
    print(
        f"hetero differential gate: {len(GOLDEN_BASES)} workloads, "
        f"sweep seeds {SWEEP_SEEDS}, goldens {GOLDENS_PATH.name}"
    )
    differential = differential_gate(args.jobs)
    failures.extend(differential["failures"])
    if not differential["failures"]:
        print(
            f"degenerate identity: {differential['cells']}/"
            f"{differential['cells']} cells match the frozen goldens"
        )
    nondegenerate = nondegenerate_gate(args.jobs)
    failures.extend(nondegenerate["failures"])
    if not nondegenerate["failures"]:
        print(
            f"non-degenerate outputs: {nondegenerate['cells']}/"
            f"{nondegenerate['cells']} cells match "
            f"{NONDEGENERATE_PATH.name}"
        )

    relations = None
    if args.relations:
        relations = relations_gate(args.e11_horizon_us, jobs=args.jobs)
        failures.extend(relations["failures"])
        if not relations["failures"]:
            print(
                f"E11 cell: {relations['e11_rows']} experiment rows, "
                f"{relations['invariant_ticks']} invariant ticks, "
                f"{relations['relation_runs']} relation runs, all clean"
            )

    if args.json:
        report = {
            "differential": differential,
            "nondegenerate": nondegenerate,
            "relations": relations,
            "failures": failures,
        }
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        "hetero gate ok: the degenerate path is byte-identical and the "
        "non-degenerate outputs match their frozen digests"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
