"""Invariant-checker gate: verification must be read-only and cheap.

Runs the same seeded simulation twice — plain, then with the full
:class:`~repro.verify.InvariantChecker` attached — and gates on the
checker's whole contract:

* **identity** — the verified run's full-precision summary digest is
  byte-identical to the plain run's.  The checker promises to *look,
  never touch*: one RNG draw or perturbed float breaks the digest;
* **cleanliness** — the invariant catalog reports zero violations on
  the reference config (the no-violation pin `tests/test_verify.py`
  makes over E1–E9, kept here so the perf gate cannot pass on a broken
  model);
* **overhead** — the median over ``--pairs`` (default 25, at least 9)
  alternated plain/verified pairs of the per-pair wall-clock ratio is
  within ``--max-overhead`` (default 10%) of 1.  The process pins
  itself to one CPU, and each pair runs both variants back to back,
  alternating which goes first, so host speed drift cancels within a
  pair and the median discards the pairs a burst of host noise landed
  in.  The
  checker re-derives every power channel through the unmemoized scan
  every 16th epoch, so this bounds the *audit* cost, not just the hook
  cost.

Usage::

    PYTHONPATH=src python benchmarks/bench_verify.py                    # full scale
    PYTHONPATH=src python benchmarks/bench_verify.py --horizon-us 20000 # CI smoke
    PYTHONPATH=src python benchmarks/bench_verify.py --pairs 9          # quicker

CI runs with a relaxed ``--max-overhead``: shared runners are noisy and
the local 10% tripwire would flake there.  Exit status is non-zero on a
digest mismatch, any violation, or a blown overhead budget.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from repro.core.system import SystemConfig, run_system
from repro.obs.provenance import digest_of
from repro.verify import InvariantChecker


def bench_config(horizon_us: float) -> SystemConfig:
    """The paper's default scale (8x8 mesh, 16 nm, proposed policies)."""
    return SystemConfig(
        width=8,
        height=8,
        node_name="16nm",
        horizon_us=horizon_us,
        test_policy="power-aware",
        power_policy="pid",
        seed=17,
    )


#: Fewest pairs whose median the gate trusts, and the default: on a
#: shared 2 vCPU VM single pairs spread by ±15% around the median.
MIN_PAIRS = 9
PAIRS = 25


def pin_to_one_cpu() -> None:
    """Run on one CPU, so both variants of a pair see the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_gate(horizon_us: float, pairs: int, max_overhead: float) -> dict:
    """Plain run vs verified run, plus every gate check; returns the report.

    After one untimed warmup of each variant, ``pairs`` pairs are timed;
    pair ``i`` runs the plain variant first when ``i`` is even and the
    verified one first when it is odd.  The overhead is the median of
    the per-pair ratios ``verified_s / plain_s`` minus 1.
    """
    if pairs < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} pairs, got {pairs}")
    config = bench_config(horizon_us)

    def plain_run():
        return run_system(config), None

    def verified_run():
        checker = InvariantChecker()
        return run_system(config, verifier=checker), checker

    plain_run()
    verified_run()  # warmups, untimed

    ratios = []
    plain_times = []
    verified_times = []
    plain = verified = checker = None
    for index in range(pairs):
        order = (plain_run, verified_run)
        if index % 2:
            order = order[::-1]
        times = {}
        for run in order:
            t0 = time.perf_counter()
            result, candidate = run()
            times[run] = time.perf_counter() - t0
            if candidate is None:
                plain = result
            else:
                verified, checker = result, candidate
        plain_times.append(times[plain_run])
        verified_times.append(times[verified_run])
        ratios.append(times[verified_run] / times[plain_run])

    plain_digest = digest_of(sorted(plain.summary().items()))
    verified_digest = digest_of(sorted(verified.summary().items()))
    overhead = statistics.median(ratios) - 1.0
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    summary = checker.summary()
    report = {
        "horizon_us": horizon_us,
        "pairs": pairs,
        "plain_s": round(statistics.median(plain_times), 4),
        "verified_s": round(statistics.median(verified_times), 4),
        "overhead": round(overhead, 4),
        "overhead_q1": round(q1 - 1.0, 4),
        "overhead_q3": round(q3 - 1.0, 4),
        "pairs_over_budget": sum(r - 1.0 > max_overhead for r in ratios),
        "max_overhead": max_overhead,
        "plain_digest": plain_digest,
        "verified_digest": verified_digest,
        "ticks_checked": summary["ticks_checked"],
        "checks_run": summary["checks_run"],
        "violations": summary["violations"],
        "failures": [],
    }
    if verified_digest != plain_digest:
        report["failures"].append(
            "digest mismatch: the checker perturbed the run"
        )
    if summary["violations"]:
        report["failures"].append(
            f"{summary['violations']} invariant violation(s) on the "
            f"reference config: {summary['per_invariant']}"
        )
    if summary["ticks_checked"] == 0:
        report["failures"].append("checker observed zero control epochs")
    if overhead > max_overhead:
        report["failures"].append(
            f"verification overhead {overhead:.1%} exceeds the "
            f"{max_overhead:.0%} budget"
        )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizon-us", type=float, default=60_000.0)
    parser.add_argument(
        "--pairs", type=int, default=PAIRS,
        help=f"alternated plain/verified pairs timed (default {PAIRS}, at "
        f"least {MIN_PAIRS}); the gate reads their median ratio",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=0.10,
        help="verified/plain wall-clock overhead ceiling (default 0.10)",
    )
    parser.add_argument(
        "--json", default=None, help="write the report to this path"
    )
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")

    pin_to_one_cpu()
    report = run_gate(args.horizon_us, args.pairs, args.max_overhead)

    print(
        f"plain: {report['plain_s']:.3f}s   "
        f"verified: {report['verified_s']:.3f}s (medians)   "
        f"overhead: {report['overhead']:+.1%} "
        f"[q1 {report['overhead_q1']:+.1%}, q3 {report['overhead_q3']:+.1%}] "
        f"median of {report['pairs']} pairs, "
        f"{report['pairs_over_budget']} over "
        f"(budget {report['max_overhead']:.0%})"
    )
    print(
        f"checks: {report['checks_run']} over {report['ticks_checked']} "
        f"epoch(s), {report['violations']} violation(s)"
    )
    print(f"plain digest:    {report['plain_digest']}")
    print(f"verified digest: {report['verified_digest']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    for failure in report["failures"]:
        print(f"FAIL: {failure}", file=sys.stderr)
    if report["failures"]:
        return 1
    print("verify gate ok: read-only, clean, within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
