"""Cache effectiveness gate: warm sweeps must be fast *and* identical.

Runs the same ``run_many`` sweep twice against one cache directory:

* **cold** — every point is a miss, computed and stored;
* **warm** — a fresh :class:`~repro.cache.RunCache` over the same
  directory must serve every point (100% hit rate, zero misses).

and gates on both halves of the cache's contract:

* **identity** — the cold and warm sweeps' ``rows_digest`` over the
  full-precision summary rows are byte-identical (a cached result is a
  pickle round-trip of the original, so any drift is a bug), and so
  are their detail digests: each result's decoded trace series, its
  ``manifest.to_dict()`` and the ``config_digest`` of its config (a
  result keeps these in a lazily decoded blob no summary row reads);
* **speed** — the warm sweep is at least ``--min-speedup`` (default
  10x) faster than the cold one.  Deserializing a blob is orders of
  magnitude cheaper than simulating, so 10x is a conservative floor
  even at CI smoke scale.

Usage::

    PYTHONPATH=src python benchmarks/bench_cache.py                   # full scale
    PYTHONPATH=src python benchmarks/bench_cache.py --horizon-us 5000 # CI smoke
    PYTHONPATH=src python benchmarks/bench_cache.py --jobs 2 --json out.json

Exit status is non-zero on a digest mismatch, an imperfect warm hit
rate, or a missed speedup floor.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
import time

from repro.cache import RunCache
from repro.core.system import SystemConfig
from repro.experiments.parallel import run_many
from repro.obs.provenance import config_digest, digest_of, rows_digest


def sweep_configs(horizon_us: float, points: int):
    """A TDP sweep at the paper's default scale (8x8 mesh, 16 nm)."""
    return [
        SystemConfig(
            width=8,
            height=8,
            node_name="16nm",
            horizon_us=horizon_us,
            tdp_w=40.0 + 10.0 * i,
            test_policy="power-aware",
            seed=17 + i,
        )
        for i in range(points)
    ]


def detail_digest(results) -> str:
    """Digest over each result's decoded trace series, manifest and
    config identity."""
    parts = []
    for result in results:
        trace = result.metrics.trace
        parts.append(
            [
                [(name, trace.series(name)) for name in trace.names()],
                sorted(result.manifest.to_dict().items()),
                config_digest(result.config),
            ]
        )
    return digest_of(parts)


def run_gate(
    cache_dir: str,
    horizon_us: float,
    points: int,
    jobs: int,
    min_speedup: float,
) -> dict:
    """Cold sweep, warm sweep, and every gate check; returns the report."""
    configs = sweep_configs(horizon_us, points)

    cold_cache = RunCache(cache_dir=cache_dir)
    t0 = time.perf_counter()
    cold = run_many(configs, jobs, cache=cold_cache)
    cold_s = time.perf_counter() - t0

    warm_cache = RunCache(cache_dir=cache_dir)
    t0 = time.perf_counter()
    warm = run_many(configs, jobs, cache=warm_cache)
    warm_s = time.perf_counter() - t0

    cold_digest = rows_digest([r.summary() for r in cold])
    warm_digest = rows_digest([r.summary() for r in warm])
    cold_detail = detail_digest(cold)
    warm_detail = detail_digest(warm)
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    report = {
        "points": points,
        "horizon_us": horizon_us,
        "jobs": jobs,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(speedup, 2),
        "min_speedup": min_speedup,
        "cold_digest": cold_digest,
        "warm_digest": warm_digest,
        "cold_detail_digest": cold_detail,
        "warm_detail_digest": warm_detail,
        "cold_stats": cold_cache.stats.as_dict(),
        "warm_stats": warm_cache.stats.as_dict(),
        "failures": [],
    }
    if warm_digest != cold_digest:
        report["failures"].append("digest mismatch: warm != cold")
    if warm_detail != cold_detail:
        report["failures"].append("detail digest mismatch: warm != cold")
    if cold_cache.stats.misses != points or cold_cache.stats.hits != 0:
        report["failures"].append(
            f"cold run expected {points} misses, got "
            f"{cold_cache.stats.as_dict()}"
        )
    if warm_cache.stats.hits != points or warm_cache.stats.misses != 0:
        report["failures"].append(
            f"warm run expected {points} hits (100%), got "
            f"{warm_cache.stats.as_dict()}"
        )
    if speedup < min_speedup:
        report["failures"].append(
            f"speedup {speedup:.1f}x below the {min_speedup:g}x floor"
        )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizon-us", type=float, default=30_000.0)
    parser.add_argument("--points", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=0)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="warm/cold wall-clock floor (default 10x)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="reuse a directory (default: fresh temp dir)",
    )
    parser.add_argument(
        "--json", default=None, help="write the report to this path"
    )
    args = parser.parse_args(argv)

    if args.cache_dir is not None:
        report = run_gate(
            args.cache_dir,
            args.horizon_us,
            args.points,
            args.jobs,
            args.min_speedup,
        )
    else:
        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as d:
            report = run_gate(
                d, args.horizon_us, args.points, args.jobs, args.min_speedup
            )

    print(
        f"cold: {report['cold_s']:.2f}s ({report['points']} miss(es))   "
        f"warm: {report['warm_s']:.3f}s "
        f"({report['warm_stats']['hits']} hit(s))   "
        f"speedup: {report['speedup']:.1f}x "
        f"(floor {report['min_speedup']:g}x)"
    )
    print(f"cold digest: {report['cold_digest']}")
    print(f"warm digest: {report['warm_digest']}")
    print(f"cold detail digest: {report['cold_detail_digest']}")
    print(f"warm detail digest: {report['warm_detail_digest']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    for failure in report["failures"]:
        print(f"FAIL: {failure}", file=sys.stderr)
    if report["failures"]:
        return 1
    print("cache gate ok: warm sweep identical and fast")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
