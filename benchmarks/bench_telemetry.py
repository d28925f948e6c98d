"""Telemetry gate: the metrics pipeline must be invisible and cheap.

Runs the paper's E2 sweep (four test-scheduler policies at 16 nm) twice
— plain, then with a telemetry registry handed to ``run_many`` — and
gates on telemetry's whole contract:

* **identity** — the instrumented sweep's ``rows_digest`` over the
  full-precision summary rows is byte-identical to the plain sweep's.
  Telemetry is a write-only sink: one perturbed float or stolen RNG
  draw breaks the digest;
* **liveness** — the registry actually collected the sweep (``sim.runs``
  equals the number of configs, ``sim.events`` is positive, power
  gauges sampled every control epoch).  A gate that passes with an
  empty registry would also pass with the instrumentation deleted;
* **overhead** — the instrumented sweep's best-of-``--repeats`` wall
  clock is within ``--max-overhead`` of the plain sweep's.  The
  default budget is deliberately loose for shared CI runners;
  ``--strict`` tightens it to the 5% contract for local runs.

Usage::

    PYTHONPATH=src python benchmarks/bench_telemetry.py                    # full scale
    PYTHONPATH=src python benchmarks/bench_telemetry.py --horizon-us 20000 # CI smoke
    PYTHONPATH=src python benchmarks/bench_telemetry.py --strict           # 5% budget

Exit status is non-zero on a digest mismatch, a dead registry, or a
blown overhead budget.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

from repro.core.system import SystemConfig, run_system
from repro.experiments.parallel import run_many
from repro.obs.provenance import rows_digest
from repro.telemetry import MetricsRegistry

#: The 5% contract (docs/observability.md) enforced under ``--strict``.
STRICT_MAX_OVERHEAD = 0.05

#: E2's policy axis: the throughput-penalty sweep at 16 nm.
E2_POLICIES = ("none", "power-aware", "unaware", "round-robin")


def bench_configs(horizon_us: float):
    """The E2 sweep configs (8x8 mesh, 16 nm, one config per policy)."""
    base = SystemConfig(
        width=8,
        height=8,
        node_name="16nm",
        horizon_us=horizon_us,
        seed=11,
    )
    return [replace(base, test_policy=policy) for policy in E2_POLICIES]


def run_gate(horizon_us: float, repeats: int, max_overhead: float) -> dict:
    """Plain sweep vs instrumented sweep, plus every gate check.

    The two variants are timed in interleaved pairs (best-of-``repeats``
    each) after one untimed warmup run: timing one variant's block after
    the other's lets CPU frequency drift masquerade as telemetry cost.
    """
    configs = bench_configs(horizon_us)

    run_system(configs[0])  # warmup, untimed

    plain_s = instrumented_s = float("inf")
    plain = instrumented = registry = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        plain = run_many(configs)
        plain_s = min(plain_s, time.perf_counter() - t0)

        candidate = MetricsRegistry()
        t0 = time.perf_counter()
        result = run_many(configs, telemetry=candidate)
        instrumented_s = min(instrumented_s, time.perf_counter() - t0)
        instrumented, registry = result, candidate

    plain_digest = rows_digest([r.summary() for r in plain])
    instrumented_digest = rows_digest([r.summary() for r in instrumented])
    overhead = (
        instrumented_s / plain_s - 1.0 if plain_s > 0 else float("inf")
    )
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    report = {
        "horizon_us": horizon_us,
        "repeats": repeats,
        "plain_s": round(plain_s, 4),
        "instrumented_s": round(instrumented_s, 4),
        "overhead": round(overhead, 4),
        "max_overhead": max_overhead,
        "plain_digest": plain_digest,
        "instrumented_digest": instrumented_digest,
        "sim_runs": counters.get("sim.runs", 0),
        "sim_events": counters.get("sim.events", 0),
        "power_samples": gauges.get("power.measured_w", {}).get("count", 0),
        "failures": [],
    }
    if instrumented_digest != plain_digest:
        report["failures"].append(
            "digest mismatch: telemetry perturbed the sweep"
        )
    if report["sim_runs"] != len(configs):
        report["failures"].append(
            f"registry counted {report['sim_runs']} run(s), expected "
            f"{len(configs)}: instrumentation is not wired through"
        )
    if report["sim_events"] <= 0 or report["power_samples"] <= 0:
        report["failures"].append(
            "registry collected no events/power samples: dead pipeline"
        )
    if overhead > max_overhead:
        report["failures"].append(
            f"telemetry overhead {overhead:.1%} exceeds the "
            f"{max_overhead:.0%} budget"
        )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizon-us", type=float, default=60_000.0)
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="wall-clock measurements per variant; best is kept (default 3)",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=0.25,
        help="instrumented/plain wall-clock overhead ceiling "
             "(default 0.25; CI runners are noisy)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help=f"enforce the {STRICT_MAX_OVERHEAD:.0%} overhead contract "
             f"regardless of --max-overhead",
    )
    parser.add_argument(
        "--json", default=None, help="write the report to this path"
    )
    args = parser.parse_args(argv)
    max_overhead = STRICT_MAX_OVERHEAD if args.strict else args.max_overhead

    report = run_gate(args.horizon_us, args.repeats, max_overhead)

    print(
        f"plain: {report['plain_s']:.3f}s   "
        f"instrumented: {report['instrumented_s']:.3f}s   "
        f"overhead: {report['overhead']:+.1%} "
        f"(budget {report['max_overhead']:.0%})"
    )
    print(
        f"collected: {report['sim_runs']} run(s), "
        f"{report['sim_events']} event(s), "
        f"{report['power_samples']} power sample(s)"
    )
    print(f"plain digest:        {report['plain_digest']}")
    print(f"instrumented digest: {report['instrumented_digest']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    for failure in report["failures"]:
        print(f"FAIL: {failure}", file=sys.stderr)
    if report["failures"]:
        return 1
    print("telemetry gate ok: invisible, live, within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
