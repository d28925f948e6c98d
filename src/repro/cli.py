"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``        — run one simulation and print its summary
  (``--journal PATH`` writes a JSONL event journal, ``--profile`` prints
  self time per ``repro`` module)
* ``experiment`` — run experiment(s) by id (E1..E11, A1..A8)
* ``sweep``      — sweep one config field over values, print a row per run
* ``obs``        — summarize/filter a JSONL run journal
* ``campaign``   — fault-injection campaigns: ``run``/``resume``/``report``
  over a checkpointed campaign directory (see :mod:`repro.campaign`),
  plus read-only ``status`` against a running (or finished) directory
* ``top``        — one-line live status per campaign directory, read
  from the atomically-flushed ``status.json`` (see
  :mod:`repro.telemetry.status`); ``--url HOST:PORT`` instead polls a
  running ``repro serve`` instance's ``/status`` endpoint
* ``serve``      — the multi-tenant simulation server: sweep points and
  campaign specs over HTTP, results streamed back as JSONL, identical
  digests to direct runs (see :mod:`repro.serve` and docs/serving.md)
* ``cache``      — run-result cache maintenance: ``stats``/``verify``/
  ``gc``/``clear`` (see :mod:`repro.cache`)
* ``verify``     — runtime verification: ``invariants`` over the
  experiment configs, the metamorphic ``relations`` suite, and journal
  ``replay`` cross-checks (see :mod:`repro.verify`); ``run --verify``
  attaches the invariant checker to a single run
* ``list``       — show available experiments, scenarios, nodes, policies

``run``, ``sweep``, ``experiment`` and ``campaign run/resume`` accept
``--cache`` / ``--no-cache`` / ``--cache-dir DIR`` to memoize results
in the content-addressed run cache (off by default; ``--cache-dir``
implies ``--cache``; ``--no-cache`` forces a cold computation even
where project config or scripts turn caching on).

The CLI is a thin shell over the library: everything it does is a few
lines of :mod:`repro.core.system` / :mod:`repro.experiments` calls, and
``main(argv)`` returns an exit code so it is unit-testable.  Its top
level imports only what building the parser needs; each command imports
the library it runs, so ``repro --help`` loads no simulator.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.metrics.report import format_table
from repro.platform.technology import node_names
from repro.workload.scenarios import SCENARIOS, scenario_config_kwargs

if TYPE_CHECKING:
    from repro.core.config_io import SystemConfig


def _jobs_arg(raw: str) -> int:
    """argparse type for ``--jobs``: friendly rejection at parse time.

    Without this, a negative value surfaces as a ValueError from deep
    inside ``run_many`` mid-sweep.
    """
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"jobs must be an integer, got {raw!r}"
        )
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"jobs must be >= 0 (0 or 1 means serial), got {value}"
        )
    return value


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ``--cache/--no-cache/--cache-dir`` flag triple."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--cache", action="store_true",
        help="memoize run results in the content-addressed cache "
             "(default dir: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="force cold computation (ignore any cached results)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="cache directory (implies --cache)",
    )


def _open_cache(args: argparse.Namespace, cache_dir: Optional[str]):
    """A :class:`repro.cache.RunCache` that :func:`main` closes on exit."""
    from repro.cache import RunCache

    cache = RunCache(cache_dir=cache_dir)
    args.resources.callback(cache.close)
    return cache


def _cache_from_args(args: argparse.Namespace):
    """Build the :class:`repro.cache.RunCache` the flags ask for (or None)."""
    if getattr(args, "no_cache", False):
        return None
    if not (getattr(args, "cache", False) or getattr(args, "cache_dir", None)):
        return None
    return _open_cache(args, args.cache_dir)


def _print_cache_outcome(cache) -> None:
    stats = cache.stats
    rate = stats.hit_rate()
    print(
        f"cache: {stats.hits} hit(s), {stats.misses} miss(es), "
        f"{stats.bypasses} bypassed"
        + (f" ({100.0 * rate:.0f}% hit rate)" if rate is not None else "")
    )


_POLICY_CHOICES = {
    "mapper": ("contiguous", "scatter", "random", "mappro", "test-aware"),
    "power_policy": ("pid", "tsp", "naive", "worst-case", "none"),
    "test_policy": ("power-aware", "none", "unaware", "round-robin"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Power-aware online testing of manycore systems in the dark "
            "silicon era (DATE 2015) - reproduction CLI"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation")
    run_p.add_argument(
        "--config", metavar="PATH", help="JSON config file to start from"
    )
    run_p.add_argument(
        "--scenario", choices=sorted(SCENARIOS), help="workload scenario"
    )
    run_p.add_argument(
        "--node", choices=node_names(), help="technology node"
    )
    run_p.add_argument(
        "--tdp-w", type=float, metavar="W", help="TDP power budget in watts"
    )
    run_p.add_argument(
        "--horizon-ms", type=float, metavar="MS",
        help="simulation horizon in milliseconds",
    )
    run_p.add_argument(
        "--rate-per-ms", type=float, metavar="RATE",
        help="task arrival rate per millisecond",
    )
    run_p.add_argument("--seed", type=int, metavar="N", help="base RNG seed")
    run_p.add_argument(
        "--mapper", choices=_POLICY_CHOICES["mapper"], help="mapping policy"
    )
    run_p.add_argument(
        "--power-policy", choices=_POLICY_CHOICES["power_policy"],
        help="power budgeting policy",
    )
    run_p.add_argument(
        "--test-policy", choices=_POLICY_CHOICES["test_policy"],
        help="online test scheduling policy",
    )
    run_p.add_argument(
        "--thermal", action="store_true", help="enable RC thermal model"
    )
    run_p.add_argument(
        "--variation", action="store_true", help="enable process variation"
    )
    run_p.add_argument(
        "--save-config", metavar="PATH",
        help="write the effective config JSON here",
    )
    run_p.add_argument(
        "--export-trace", metavar="PATH",
        help="write the power/count traces as CSV here",
    )
    run_p.add_argument(
        "--journal", metavar="PATH",
        help="enable the event journal and write it as JSONL here",
    )
    run_p.add_argument(
        "--journal-level", choices=("info", "debug"), default="info",
        help="journal verbosity (debug adds core state transitions)",
    )
    run_p.add_argument(
        "--profile", action="store_true",
        help="profile the whole command and print self time per repro "
             "module (about 3x slower; a cache hit still serves)",
    )
    run_p.add_argument(
        "--verify", action="store_true",
        help="run the inline invariant checker (repro.verify) alongside "
             "the simulation; non-zero exit on any violation",
    )
    run_p.add_argument(
        "--telemetry", action="store_true",
        help="count the run (events, epochs, test sessions, power "
             "headroom) and print the counter summary; never changes "
             "the simulation result",
    )
    _add_cache_flags(run_p)

    exp_p = sub.add_parser("experiment", help="run experiments by id")
    exp_p.add_argument("ids", nargs="+", help="experiment ids, e.g. E2 E9 A4")
    exp_p.add_argument(
        "--horizon-us", type=float, metavar="US",
        help="override the horizon in microseconds",
    )
    exp_p.add_argument(
        "--jobs", type=_jobs_arg, default=None, metavar="N",
        help="worker processes for the experiment's independent runs "
             "(results are identical to a serial run)",
    )
    _add_cache_flags(exp_p)

    sweep_p = sub.add_parser("sweep", help="sweep one config field")
    sweep_p.add_argument("field", help="SystemConfig field, e.g. tdp_w")
    sweep_p.add_argument("values", help="comma-separated values, e.g. 40,60,80")
    sweep_p.add_argument(
        "--horizon-ms", type=float, default=30.0, metavar="MS",
        help="simulation horizon in milliseconds (default 30)",
    )
    sweep_p.add_argument(
        "--seed", type=int, default=1, metavar="N",
        help="base RNG seed (default 1)",
    )
    sweep_p.add_argument(
        "--jobs", type=_jobs_arg, default=None, metavar="N",
        help="worker processes for the sweep points "
             "(results are identical to a serial run)",
    )
    _add_cache_flags(sweep_p)

    obs_p = sub.add_parser("obs", help="summarize/filter a JSONL run journal")
    obs_p.add_argument("journal", help="JSONL journal written by run --journal")
    obs_p.add_argument(
        "--type", dest="type_prefix", metavar="PREFIX",
        help="print events whose type starts with PREFIX (e.g. test.)",
    )
    obs_p.add_argument(
        "--core", type=int, metavar="ID",
        help="restrict --type output to one core id",
    )
    obs_p.add_argument(
        "--tail", type=int, metavar="N", help="print only the last N matches"
    )
    obs_p.add_argument(
        "--decisions", action="store_true",
        help="print every test launch/defer decision with reason and headroom",
    )

    camp_p = sub.add_parser(
        "campaign",
        help="fault-injection campaigns (run/resume/report)",
    )
    camp_sub = camp_p.add_subparsers(dest="campaign_command", required=True)

    def _campaign_exec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=_jobs_arg, default=None, metavar="N",
            help="worker processes (0/1 = serial; aggregates are "
                 "identical either way)",
        )
        p.add_argument(
            "--timeout-s", type=float, default=None, metavar="SECONDS",
            help="per-run timeout in seconds (timed-out runs are "
                 "retried, then quarantined)",
        )
        p.add_argument(
            "--max-attempts", type=int, default=3, metavar="N",
            help="attempts per point before quarantine (default 3)",
        )
        p.add_argument(
            "--backoff-s", type=float, default=0.5, metavar="SECONDS",
            help="base retry backoff in seconds (default 0.5, doubles "
                 "per failure, capped)",
        )
        p.add_argument(
            "--interrupt-after", type=int, default=None, metavar="N",
            help="testing/ops hook: simulate a crash after N "
                 "checkpointed results (exit code 3; resume continues)",
        )
        p.add_argument(
            "--no-telemetry", action="store_true",
            help="skip collecting runtime telemetry and writing the "
                 "status.json/telemetry.prom/telemetry.json files "
                 "(results are identical either way)",
        )
        _add_cache_flags(p)

    camp_run = camp_sub.add_parser(
        "run", help="start a campaign from a spec JSON"
    )
    camp_run.add_argument("spec", help="campaign spec JSON file")
    camp_run.add_argument(
        "--dir", required=True, dest="campaign_dir", metavar="DIR",
        help="campaign directory (checkpoint store lives here)",
    )
    _campaign_exec_args(camp_run)

    camp_res = camp_sub.add_parser(
        "resume", help="resume an interrupted campaign directory"
    )
    camp_res.add_argument(
        "campaign_dir", help="campaign directory with spec.json"
    )
    _campaign_exec_args(camp_res)

    camp_rep = camp_sub.add_parser(
        "report", help="rebuild the report/manifest of a campaign"
    )
    camp_rep.add_argument(
        "campaign_dir", help="campaign directory with spec.json"
    )

    camp_stat = camp_sub.add_parser(
        "status",
        help="read-only progress of a campaign directory (live or "
             "finished; degrades to row counts for pre-telemetry dirs)",
    )
    camp_stat.add_argument(
        "campaign_dir", help="campaign directory with spec.json"
    )
    camp_stat.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the raw status document as JSON",
    )

    dse_p = sub.add_parser(
        "dse",
        help="surrogate-guided design-space exploration "
             "(run/report/front; see docs/dse.md)",
    )
    dse_sub = dse_p.add_subparsers(dest="dse_command", required=True)

    dse_run = dse_sub.add_parser(
        "run", help="run or resume a search from a dse spec JSON"
    )
    dse_run.add_argument(
        "spec", nargs="?", default=None,
        help="dse spec JSON file (omit to resume an existing "
             "search directory)",
    )
    dse_run.add_argument(
        "--dir", required=True, dest="search_dir", metavar="DIR",
        help="search directory (spec, generation campaigns, cache and "
             "front.json live here)",
    )
    dse_run.add_argument(
        "--jobs", type=_jobs_arg, default=None, metavar="N",
        help="worker processes per generation campaign (0/1 = serial; "
             "fronts are identical either way)",
    )
    dse_run.add_argument(
        "--interrupt-after", type=int, default=None, metavar="N",
        help="testing/ops hook: simulate a crash after N checkpointed "
             "results (exit code 3; rerunning resumes)",
    )
    dse_run.add_argument(
        "--no-telemetry", action="store_true",
        help="skip dse.* counters and per-generation status files "
             "(results are identical either way)",
    )
    dse_run.add_argument(
        "--no-cache", action="store_true",
        help="force cold evaluation (skip the search-local run cache)",
    )
    dse_run.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="run-cache directory (default: <search-dir>/cache)",
    )

    dse_rep = dse_sub.add_parser(
        "report", help="print counters and front of a search directory"
    )
    dse_rep.add_argument(
        "search_dir", help="search directory with spec.json"
    )
    dse_rep.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the raw report document as JSON",
    )

    dse_front = dse_sub.add_parser(
        "front", help="rank the Pareto front of a finished search"
    )
    dse_front.add_argument(
        "search_dir", help="search directory with front.json"
    )
    dse_front.add_argument(
        "--weights", metavar="W1,W2,...", default=None,
        help="weighted-sum MCDM weights, one per objective "
             "(default: equal weights)",
    )
    dse_front.add_argument(
        "--lex", metavar="OBJ1,OBJ2,...", default=None,
        help="lexicographic MCDM instead: objective names by "
             "decreasing priority (must mention every objective)",
    )
    dse_front.add_argument(
        "--tolerance", type=float, default=0.0, metavar="FRACTION",
        help="lexicographic tolerance band as a fraction of each "
             "objective's span (default 0 = strict)",
    )
    dse_front.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="print only the N best-ranked points",
    )
    dse_front.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the ranked points as JSON",
    )

    top_p = sub.add_parser(
        "top", help="one-line live status per campaign directory"
    )
    top_p.add_argument(
        "campaign_dirs", nargs="*",
        help="campaign directories to watch (omit when using --url)",
    )
    top_p.add_argument(
        "--url", metavar="HOST:PORT",
        help="poll a running 'repro serve' instance instead of local "
             "directories (accepts host:port, a base URL, or a full "
             "/status URL)",
    )
    top_p.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="refresh every SECONDS until interrupted "
             "(default: print once and exit)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the multi-tenant simulation server "
             "(HTTP + JSONL streaming; see docs/serving.md)",
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default localhost)",
    )
    serve_p.add_argument(
        "--port", type=int, default=8742, metavar="PORT",
        help="TCP port; 0 picks an ephemeral port (default 8742)",
    )
    serve_p.add_argument(
        "--port-file", metavar="PATH", default=None,
        help="write the bound port here once listening (for harnesses "
             "that start the server with --port 0)",
    )
    serve_p.add_argument(
        "--state-dir", default="serve-state", metavar="DIR",
        help="server state directory: campaign checkpoints, final "
             "status/metrics exports (default ./serve-state)",
    )
    serve_p.add_argument(
        "--jobs", type=_jobs_arg, default=0, metavar="N",
        help="worker processes for sweep points (0 = in-process "
             "threads; results are identical either way)",
    )
    serve_p.add_argument(
        "--max-queue", type=int, default=1024, metavar="N",
        help="global queued-point bound; beyond it submissions get "
             "429 + Retry-After (default 1024)",
    )
    serve_p.add_argument(
        "--tenant-quota", type=int, default=256, metavar="N",
        help="per-tenant in-flight point bound (default 256)",
    )
    serve_p.add_argument(
        "--max-points", type=int, default=None, metavar="N",
        help="per-request resolved-point ceiling (default 4096)",
    )
    serve_p.add_argument(
        "--max-campaigns", type=int, default=4, metavar="N",
        help="concurrently executing campaign jobs (default 4)",
    )
    serve_p.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="graceful-shutdown budget for in-flight work (default 30)",
    )
    serve_p.add_argument(
        "--no-resume", action="store_true",
        help="do not auto-resume interrupted campaigns found in the "
             "state dir at startup",
    )
    _add_cache_flags(serve_p)

    cache_p = sub.add_parser(
        "cache", help="run-result cache maintenance (stats/verify/gc/clear)"
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)

    def _cache_dir_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-dir", metavar="DIR",
            help="cache directory (default: $REPRO_CACHE_DIR or "
                 "~/.cache/repro)",
        )

    cache_stats = cache_sub.add_parser(
        "stats", help="show entry count, size and lifetime hit/miss counters"
    )
    _cache_dir_arg(cache_stats)

    cache_verify = cache_sub.add_parser(
        "verify",
        help="re-hash every entry; delete corrupt ones (exit 1 if any)",
    )
    _cache_dir_arg(cache_verify)

    cache_gc = cache_sub.add_parser(
        "gc",
        help="evict LRU entries to a size cap, compact the pack",
    )
    _cache_dir_arg(cache_gc)
    cache_gc.add_argument(
        "--max-mb", type=float, default=None, metavar="MB",
        help="size cap to evict down to (omit to only compact)",
    )

    cache_clear = cache_sub.add_parser(
        "clear", help="delete every cached result"
    )
    _cache_dir_arg(cache_clear)

    ver_p = sub.add_parser(
        "verify",
        help="runtime invariants, metamorphic relations, journal replay",
    )
    ver_sub = ver_p.add_subparsers(dest="verify_command", required=True)

    ver_inv = ver_sub.add_parser(
        "invariants",
        help="run the invariant checker over the experiment configs",
    )
    ver_inv.add_argument(
        "--experiments", nargs="+", default=None, metavar="ID",
        help="experiment ids to certify (default: E1-E9, E11, A5)",
    )
    ver_inv.add_argument(
        "--horizon-ms", type=float, default=20.0, metavar="MS",
        help="horizon per run in milliseconds (default 20)",
    )
    ver_inv.add_argument(
        "--seed", type=int, default=11, metavar="N",
        help="base RNG seed (default 11)",
    )

    ver_rel = ver_sub.add_parser(
        "relations", help="check the metamorphic relation suite"
    )
    ver_rel.add_argument(
        "--relations", nargs="+", default=None, metavar="NAME",
        help="relation names (default: the full catalog; see "
             "docs/verification.md)",
    )
    ver_rel.add_argument(
        "--horizon-ms", type=float, default=20.0, metavar="MS",
        help="horizon per run in milliseconds (default 20)",
    )
    ver_rel.add_argument(
        "--seed", type=int, default=11, metavar="N",
        help="base RNG seed (default 11)",
    )
    ver_rel.add_argument(
        "--jobs", type=_jobs_arg, default=None, metavar="N",
        help="worker processes for the relation runs",
    )
    _add_cache_flags(ver_rel)

    ver_rep = ver_sub.add_parser(
        "replay",
        help="re-simulate a journal and cross-check its recorded power",
    )
    ver_rep.add_argument(
        "journal", help="JSONL journal written by run --journal --verify"
    )
    ver_rep.add_argument(
        "--tolerance-w", type=float, default=1e-9, metavar="W",
        help="per-channel disagreement tolerance in watts (default 1e-9)",
    )

    sub.add_parser("list", help="show experiments, scenarios, nodes, policies")
    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _effective_config(args: argparse.Namespace) -> SystemConfig:
    from repro.core.config_io import SystemConfig, load_config

    config = load_config(args.config) if args.config else SystemConfig()
    updates = {}
    if args.scenario:
        updates.update(scenario_config_kwargs(args.scenario))
    if args.node:
        updates["node_name"] = args.node
    if args.tdp_w is not None:
        updates["tdp_w"] = args.tdp_w
    if args.horizon_ms is not None:
        updates["horizon_us"] = args.horizon_ms * 1000.0
    if args.rate_per_ms is not None:
        updates["arrival_rate_per_ms"] = args.rate_per_ms
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.mapper:
        updates["mapper"] = args.mapper
    if args.power_policy:
        updates["power_policy"] = args.power_policy
    if args.test_policy:
        updates["test_policy"] = args.test_policy
    if args.thermal:
        updates["thermal_enabled"] = True
    if args.variation:
        updates["variation_enabled"] = True
    if updates:
        config = dataclasses.replace(config, **updates)
    return config


def cmd_run(args: argparse.Namespace) -> int:
    if not args.profile:
        return _run_command(args)
    from repro.obs import Profile

    with Profile() as profile:
        # Via a frame cProfile saw start: it is charged the command's teardown.
        status = (lambda: _run_command(args))()
    print(profile.report())
    return status


def _run_command(args: argparse.Namespace) -> int:
    from repro.core.config_io import save_config
    from repro.core.system import run_system
    from repro.metrics.export import trace_to_csv, write_text
    from repro.obs import Journal

    try:
        config = _effective_config(args)
    except (OSError, ValueError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    if args.save_config:
        save_config(config, args.save_config)
    journal = Journal(level=args.journal_level) if args.journal else None
    verifier = None
    if args.verify:
        from repro.verify import InvariantChecker

        verifier = InvariantChecker()
    telemetry_reg = None
    if args.telemetry:
        # Counts are derived from the result: unlike the journal they
        # neither bypass the cache nor change the result.
        from repro.telemetry.registry import MetricsRegistry, count_run

        telemetry_reg = MetricsRegistry()
    cache = _cache_from_args(args)
    cache_hit = False
    if cache is not None and (journal is not None or verifier is not None):
        # A cached result cannot carry the journal/verification stream of
        # the run it would skip; count the bypass, compute cold.
        cache.note_bypass(telemetry_reg)
        cache = None
    if cache is not None:
        result, cache_hit = cache.get_or_run(config, telemetry_reg)
    else:
        result = run_system(config, journal=journal, verifier=verifier)
        if telemetry_reg is not None:
            count_run(telemetry_reg, result)
    rows = [[key, value] for key, value in result.summary().items()]
    print(
        format_table(
            ["metric", "value"],
            rows,
            precision=4,
            title=(
                f"{config.width}x{config.height} @ {config.node_name}, "
                f"TDP {config.tdp_w:g} W, {config.horizon_us / 1000:g} ms, "
                f"mapper={result.mapper_name}, test={result.scheduler_name}, "
                f"power={result.power_policy_name}"
            ),
        )
    )
    if result.peak_temperature_c is not None:
        print(f"peak temperature: {result.peak_temperature_c:.1f} C")
    if args.export_trace:
        write_text(args.export_trace, trace_to_csv(result.metrics.trace))
        print(f"trace written to {args.export_trace}")
    if journal is not None:
        journal.write_jsonl(args.journal)
        print(f"journal written to {args.journal} ({len(journal)} events)")
    if telemetry_reg is not None:
        # A cache hit counts its lookup; a computed run its counts.
        snapshot = telemetry_reg.snapshot()
        print("telemetry:")
        for name, value in snapshot["counters"].items():
            print(f"  {name} = {value}")
        for name, gauge in snapshot["gauges"].items():
            print(
                f"  {name} = {gauge['last']:g} "
                f"(min {gauge['min']:g}, max {gauge['max']:g})"
            )
    if cache is not None:
        print(f"cache: {'hit' if cache_hit else 'miss (stored)'}")
    if verifier is not None:
        summary = verifier.summary()
        print(
            f"verify: {summary['checks_run']} check(s) over "
            f"{summary['ticks_checked']} epoch(s), "
            f"{summary['violations']} violation(s)"
        )
        if not verifier.ok:
            for violation in verifier.violations[:10]:
                print(
                    f"  [{violation.invariant}] t={violation.time:g}: "
                    f"{violation.message}",
                    file=sys.stderr,
                )
            return 1
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import Journal, audit

    try:
        events = Journal.load_jsonl(args.journal)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read journal {args.journal!r}: {exc}", file=sys.stderr)
        return 2
    if args.decisions:
        decisions = audit.test_decisions(events)
        if not decisions:
            print("no test decisions in journal")
            return 0
        rows = [
            [
                d["time"],
                d["action"],
                d["core"],
                d["level"] if d["level"] is not None else "-",
                d["headroom_w"],
                d["reason"],
            ]
            for d in decisions
        ]
        print(
            format_table(
                ["t_us", "action", "core", "level", "headroom_w", "reason"],
                rows,
                title=f"test decisions ({len(rows)})",
            )
        )
        return 0
    if args.type_prefix:
        matches = [e for e in events if e.type.startswith(args.type_prefix)]
        if args.core is not None:
            matches = [e for e in matches if e.data.get("core") == args.core]
        if args.tail is not None:
            matches = matches[-args.tail:]
        for event in matches:
            print(event.to_json())
        return 0
    print(audit.format_summary(events))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS, run_experiment

    unknown = [i for i in args.ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        print(f"known: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    cache = _cache_from_args(args)
    params = {}
    if args.horizon_us is not None:
        params["horizon_us"] = args.horizon_us
    for experiment_id in args.ids:
        result = run_experiment(
            experiment_id, jobs=args.jobs, cache=cache, **params
        )
        print(result.render())
        print()
    if cache is not None:
        _print_cache_outcome(cache)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.system import SystemConfig
    from repro.experiments.parallel import run_many

    field_names = {f.name: f for f in dataclasses.fields(SystemConfig)}
    if args.field not in field_names:
        print(f"unknown config field {args.field!r}", file=sys.stderr)
        return 2
    raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not raw_values:
        print("no sweep values given", file=sys.stderr)
        return 2

    def coerce(raw: str):
        for cast in (int, float):
            try:
                return cast(raw)
            except ValueError:
                continue
        if raw in ("true", "false"):
            return raw == "true"
        return raw

    base = SystemConfig(
        horizon_us=args.horizon_ms * 1000.0, seed=args.seed
    )
    values = [coerce(raw) for raw in raw_values]
    configs = [
        dataclasses.replace(base, **{args.field: value}) for value in values
    ]
    cache = _cache_from_args(args)
    results = run_many(configs, args.jobs, cache=cache)
    rows = []
    for value, result in zip(values, results):
        summary = result.summary()
        rows.append(
            [
                value,
                summary["throughput_ops_per_us"],
                summary["avg_power_w"],
                summary["budget_violation_rate"],
                int(summary["tests_completed"]),
            ]
        )
    print(
        format_table(
            [args.field, "throughput_ops_per_us", "avg_power_w",
             "violation_rate", "tests"],
            rows,
            title=f"sweep of {args.field}",
        )
    )
    if cache is not None:
        _print_cache_outcome(cache)
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignInterrupted,
        CampaignSpec,
        RetryPolicy,
        report_campaign,
        run_campaign,
    )
    from repro.campaign.store import MANIFEST_FILE

    if args.campaign_command == "report":
        try:
            report = report_campaign(args.campaign_dir)
        except (OSError, ValueError) as exc:
            print(f"cannot report campaign: {exc}", file=sys.stderr)
            return 2
        print(report.render())
        print(f"manifest written to "
              f"{args.campaign_dir}/{MANIFEST_FILE}")
        return 0

    if args.campaign_command == "status":
        import json

        from repro.telemetry.status import load_status, render_status

        try:
            status = load_status(args.campaign_dir)
        except (OSError, ValueError) as exc:
            print(f"cannot read campaign status: {exc}", file=sys.stderr)
            return 2
        if args.as_json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            print(render_status(status))
        return 0

    cache = _cache_from_args(args)
    kwargs = dict(
        jobs=args.jobs,
        retry=RetryPolicy(
            max_attempts=args.max_attempts, backoff_s=args.backoff_s
        ),
        timeout_s=args.timeout_s,
        interrupt_after=args.interrupt_after,
        cache=cache,
        telemetry=not args.no_telemetry,
    )
    try:
        if args.campaign_command == "run":
            spec = CampaignSpec.load(args.spec)
            report = run_campaign(args.campaign_dir, spec=spec, **kwargs)
        else:  # resume
            report = run_campaign(args.campaign_dir, resume=True, **kwargs)
    except CampaignInterrupted as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"campaign failed: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    print(f"manifest written to {args.campaign_dir}/{MANIFEST_FILE}")
    if cache is not None:
        _print_cache_outcome(cache)
    if report.quarantined:
        print(
            f"warning: {len(report.quarantined)} point(s) quarantined "
            f"(see failures.jsonl); a later resume retries them",
            file=sys.stderr,
        )
    return 0


def cmd_dse(args: argparse.Namespace) -> int:
    import json

    from repro.dse import (
        DseSpec,
        SearchInterrupted,
        lexicographic_ranking,
        load_front,
        report_search,
        run_search,
        weighted_sum_ranking,
    )
    from repro.dse.search import FRONT_FILE, REPORT_FILE

    if args.dse_command == "report":
        try:
            outcome = report_search(args.search_dir)
        except (OSError, ValueError) as exc:
            print(f"cannot report search: {exc}", file=sys.stderr)
            return 2
        if args.as_json:
            with open(
                os.path.join(args.search_dir, REPORT_FILE),
                "r", encoding="utf-8",
            ) as handle:
                print(handle.read(), end="")
        else:
            print(outcome.render())
        return 0

    if args.dse_command == "front":
        if args.weights and args.lex:
            print("--weights and --lex are mutually exclusive",
                  file=sys.stderr)
            return 2
        try:
            doc = load_front(args.search_dir)
        except (OSError, ValueError) as exc:
            print(f"cannot load front: {exc}", file=sys.stderr)
            return 2
        names = list(doc["objectives"])
        senses = list(doc["senses"])
        points = list(doc["points"])
        if not points:
            print("front is empty (no candidates evaluated yet)")
            return 0
        vectors = [
            tuple(p["objectives"][n] for n in names) for p in points
        ]
        digests = [p["cell_digest"] for p in points]
        try:
            if args.lex:
                order_names = [s.strip() for s in args.lex.split(",")]
                if sorted(order_names) != sorted(names):
                    raise ValueError(
                        f"--lex must mention every objective exactly "
                        f"once; objectives are {names}"
                    )
                order = [names.index(n) for n in order_names]
                ranking = lexicographic_ranking(
                    vectors, senses, order,
                    tolerance=args.tolerance, tie_break=digests,
                )
            else:
                weights = (
                    [float(w) for w in args.weights.split(",")]
                    if args.weights
                    else None
                )
                ranking = weighted_sum_ranking(
                    vectors, senses, weights, tie_break=digests
                )
        except ValueError as exc:
            print(f"cannot rank front: {exc}", file=sys.stderr)
            return 2
        if args.top is not None:
            ranking = ranking[: args.top]
        if args.as_json:
            print(json.dumps(
                [points[i] for i in ranking], indent=2, sort_keys=True
            ))
            return 0
        rows = []
        for rank, i in enumerate(ranking, start=1):
            point = points[i]
            params = " ".join(
                f"{k}={v}" for k, v in sorted(point["params"].items())
            )
            rows.append(
                [rank, digests[i][:12]]
                + [point["objectives"][n] for n in names]
                + [params]
            )
        print(format_table(
            ["rank", "cell"] + names + ["params"],
            rows,
            title=(
                f"{doc['name']}: {len(points)} front point(s) of "
                f"{doc['n_evaluated']} evaluated"
            ),
        ))
        return 0

    # run
    cache: object = None
    if args.no_cache:
        cache = False
    elif args.cache_dir:
        cache = _open_cache(args, args.cache_dir)
    try:
        spec = DseSpec.load(args.spec) if args.spec else None
        outcome = run_search(
            args.search_dir,
            spec=spec,
            jobs=args.jobs,
            cache=cache,
            interrupt_after=args.interrupt_after,
            telemetry=not args.no_telemetry,
        )
    except SearchInterrupted as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        return 2
    print(outcome.render())
    print(
        f"front written to {args.search_dir}/{FRONT_FILE}, "
        f"report to {args.search_dir}/{REPORT_FILE}"
    )
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import default_cache_dir

    cache_dir = args.cache_dir or default_cache_dir()
    if args.cache_command != "stats" and not os.path.isdir(cache_dir):
        print(f"no cache at {cache_dir!r}", file=sys.stderr)
        return 2
    cache = _open_cache(args, cache_dir)
    if args.cache_command == "stats":
        stats = cache.store.stats()
        rows = [[key, value if value is not None else "-"]
                for key, value in stats.items()]
        print(
            format_table(
                ["stat", "value"], rows, title=f"cache at {cache_dir}"
            )
        )
        served = stats["touches"]
        stored = stats["puts"]
        if served + stored:
            print(
                f"lifetime hit rate: "
                f"{100.0 * served / (served + stored):.1f}% "
                f"({served} served / {stored} stored)"
            )
        return 0
    if args.cache_command == "verify":
        report = cache.verify()
        print(
            f"checked {report['checked']} blob(s): {report['ok']} ok, "
            f"{len(report['corrupt'])} corrupt"
        )
        for key in report["corrupt"]:
            print(f"  corrupt {key}")
        return 1 if report["corrupt"] else 0
    if args.cache_command == "gc":
        max_bytes = (
            int(args.max_mb * 1_000_000) if args.max_mb is not None else None
        )
        outcome = cache.gc(max_bytes=max_bytes)
        print(
            f"evicted {len(outcome['evicted'])} entr(ies), reclaimed "
            f"{outcome['reclaimed_bytes']} byte(s); "
            f"{outcome['entries']} entr(ies) / {outcome['bytes']} bytes kept"
        )
        return 0
    # clear
    removed = cache.clear()
    print(f"cleared {removed} entr(ies) from {cache_dir}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import (
        RELATIONS,
        ReplayError,
        check_relations,
        replay_journal,
        verify_config,
    )

    if args.verify_command == "replay":
        try:
            report = replay_journal(args.journal, tolerance_w=args.tolerance_w)
        except ReplayError as exc:
            print(f"cannot replay journal: {exc}", file=sys.stderr)
            return 2
        print(
            f"replayed {report.ticks_checked} epoch(s): "
            f"{len(report.mismatches)} power mismatch(es), "
            f"{len(report.transition_violations)} illegal transition(s) "
            f"over {report.transitions_checked} recorded transition(s), "
            f"max |error| {report.max_abs_error_w:g} W"
        )
        for mismatch in report.mismatches[:10]:
            print(
                f"  t={mismatch['time']:g}: {mismatch['channel']} recorded "
                f"{mismatch['recorded_w']!r} vs replayed "
                f"{mismatch['replayed_w']!r}",
                file=sys.stderr,
            )
        for violation in report.transition_violations[:10]:
            print(
                f"  t={violation['time']:g}: core {violation['core']} "
                f"{violation['from_state']} -> {violation['to_state']}",
                file=sys.stderr,
            )
        return 0 if report.ok else 1

    if args.verify_command == "relations":
        relations = None
        if args.relations is not None:
            unknown = [n for n in args.relations if n not in RELATIONS]
            if unknown:
                print(f"unknown relations: {unknown}", file=sys.stderr)
                print(f"known: {sorted(RELATIONS)}", file=sys.stderr)
                return 2
            relations = [RELATIONS[name]() for name in args.relations]
        from repro.experiments.runners import DEFAULT_CONFIG

        base = dataclasses.replace(
            DEFAULT_CONFIG,
            horizon_us=args.horizon_ms * 1000.0,
            seed=args.seed,
        )
        cache = _cache_from_args(args)
        report = check_relations(
            base, relations=relations, jobs=args.jobs, cache=cache
        )
        rows = [
            [o.name, o.n_runs, "ok" if o.ok else "FAIL", o.description]
            for o in report.outcomes
        ]
        print(
            format_table(
                ["relation", "runs", "status", "property"],
                rows,
                title=f"metamorphic relations ({report.n_runs} runs)",
            )
        )
        if cache is not None:
            _print_cache_outcome(cache)
        for failure in report.failures():
            print(f"FAIL: {failure}", file=sys.stderr)
        return 0 if report.ok else 1

    # invariants: the configs each experiment's declaration certifies
    from repro.experiments import EXPERIMENTS

    certified = {}
    for experiment_id, factory in EXPERIMENTS.items():
        spec = factory(horizon_us=args.horizon_ms * 1000.0)
        if spec.certified:
            certified[experiment_id] = spec.certified_configs(args.seed)
    wanted = args.experiments or sorted(certified)
    unknown = [i for i in wanted if i not in certified]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        print(f"known: {sorted(certified)}", file=sys.stderr)
        return 2
    rows = []
    failed = False
    first_bad = None
    for experiment_id in wanted:
        for config in certified[experiment_id]:
            _result, checker = verify_config(config)
            summary = checker.summary()
            rows.append(
                [
                    experiment_id,
                    config.node_name,
                    config.test_policy,
                    config.power_policy,
                    summary["ticks_checked"],
                    summary["checks_run"],
                    summary["violations"],
                    "ok" if checker.ok else "FAIL",
                ]
            )
            if not checker.ok:
                failed = True
                if first_bad is None:
                    first_bad = (experiment_id, checker)
    print(
        format_table(
            [
                "experiment", "node", "test_policy", "power_policy",
                "epochs", "checks", "violations", "status",
            ],
            rows,
            title=f"invariant checks ({len(rows)} config(s))",
        )
    )
    if first_bad is not None:
        experiment_id, checker = first_bad
        for violation in checker.violations[:10]:
            print(
                f"FAIL [{experiment_id}/{violation.invariant}] "
                f"t={violation.time:g}: {violation.message}",
                file=sys.stderr,
            )
    return 1 if failed else 0


def _server_top_statuses(url: str) -> List[dict]:
    """Fetch a server's ``/status`` and shape it into ``render_top`` rows.

    One row for the server itself (aggregate sweep throughput) plus one
    per campaign the server knows about — the same renderer the
    directory mode uses, so local and remote watching look alike.
    """
    from repro.serve.client import fetch_status

    doc = fetch_status(url)
    server_row = {
        "name": str(doc.get("name", "server")),
        "state": str(doc.get("state", "?")),
        "points_done": doc.get("points_done"),
        "points_planned": doc.get("points_planned"),
        "rate_per_s": doc.get("rate_per_s"),
        "eta_s": doc.get("eta_s"),
        "events_per_s": doc.get("events_per_s"),
        "workers": doc.get("workers") or {},
    }
    rows = [server_row]
    campaigns = doc.get("campaigns")
    if isinstance(campaigns, list):
        rows.extend(c for c in campaigns if isinstance(c, dict))
    return rows


def cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.telemetry.status import load_status, render_top

    if not args.campaign_dirs and not args.url:
        print(
            "top: give campaign directories and/or --url HOST:PORT",
            file=sys.stderr,
        )
        return 2
    try:
        while True:
            statuses = []
            errors = 0
            for directory in args.campaign_dirs:
                try:
                    statuses.append(load_status(directory))
                except (OSError, ValueError) as exc:
                    errors += 1
                    print(f"{directory}: {exc}", file=sys.stderr)
            if args.url:
                try:
                    statuses.extend(_server_top_statuses(args.url))
                except Exception as exc:
                    errors += 1
                    print(f"{args.url}: {exc}", file=sys.stderr)
            if statuses:
                print(render_top(statuses))
            if args.watch is None:
                return 2 if errors and not statuses else 0
            time.sleep(args.watch)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.protocol import MAX_POINTS_PER_REQUEST
    from repro.serve.server import ServeConfig, serve_main

    cache = _cache_from_args(args)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        state_dir=args.state_dir,
        cache=cache,
        max_queue=args.max_queue,
        tenant_quota=args.tenant_quota,
        max_points_per_request=(
            args.max_points if args.max_points is not None
            else MAX_POINTS_PER_REQUEST
        ),
        max_campaigns=args.max_campaigns,
        drain_timeout_s=args.drain_timeout,
        auto_resume=not args.no_resume,
    )
    try:
        return asyncio.run(serve_main(config, port_file=args.port_file))
    except KeyboardInterrupt:  # pragma: no cover - signal path races
        return 0


def cmd_list(_args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS

    print("experiments:", ", ".join(sorted(EXPERIMENTS)))
    print("scenarios:  ", ", ".join(sorted(SCENARIOS)))
    print("nodes:      ", ", ".join(node_names()))
    for field, choices in _POLICY_CHOICES.items():
        print(f"{field + ':':12s}", ", ".join(choices))
    return 0


_COMMANDS = {
    "run": cmd_run,
    "experiment": cmd_experiment,
    "sweep": cmd_sweep,
    "obs": cmd_obs,
    "campaign": cmd_campaign,
    "dse": cmd_dse,
    "cache": cmd_cache,
    "verify": cmd_verify,
    "top": cmd_top,
    "serve": cmd_serve,
    "list": cmd_list,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    with contextlib.ExitStack() as resources:
        # Whatever a command opens for its whole run (caches) closes here.
        args.resources = resources
        return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
