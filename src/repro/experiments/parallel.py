"""Sweeps: :func:`run_many` over the point executor
(:mod:`repro.experiments.pool`).

Importing this module imports the model: each pool worker's forkserver
preloads it, and a caller that runs points in its own process
(``jobs`` of ``None``, ``0`` or ``1``: no pool, no pickling) imports it
before its first point.  :func:`run_many` is all-or-nothing (a sweep
with holes is not a sweep): a failing run raises :class:`RunFailed`
naming its index and config digest.  :class:`repro.campaign.RobustExecutor`
retries, times out and quarantines instead, and
:class:`repro.serve.ServeEngine` admits asynchronously.

**Memoization.**  ``run_many(cache=)`` (a :class:`repro.cache.RunCache`)
serves previously-computed points without re-running them: the
supervisor probes the cache for every config, dispatches only the
misses, then stores the fresh results itself — workers never touch the
cache, so the index has exactly one writer.  Cached results are pickle
round-trips of the originals, so a warm sweep is byte-identical to a
cold one.  A :class:`repro.obs.Profile` around the call observes from
outside, so profiling a cache hit shows the cache's own cost.  A
journal is not a ``run_many`` argument: a journaled run is one
``run_system(config, journal=)`` call.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import repro.core.system  # noqa: F401  (the model; see the docstring)
from repro.core.config_io import SystemConfig
from repro.experiments.pool import Outcome, WorkerPool, execute
from repro.metrics.collectors import SimulationResult
from repro.obs.provenance import config_digest
from repro.telemetry.registry import MetricsRegistry, count_run


class RunFailed(RuntimeError):
    """One run of a sweep failed; identifies exactly which one."""

    def __init__(self, index: int, digest: str, error: str) -> None:
        super().__init__(
            f"run {index} (config digest {digest[:12]}) failed: {error}"
        )
        self.index = index
        self.digest = digest
        self.error = error


def _run_indexed(
    config_list: List[SystemConfig],
    indices: List[int],
    jobs: Optional[int],
    telemetry: Optional[MetricsRegistry],
) -> List[SimulationResult]:
    """Run the configs at ``indices``; failures keep original indices.

    Every result is counted into ``telemetry`` in index order, serial
    and pooled alike, which is what makes their snapshots identical.
    """
    work = [config_list[index] for index in indices]
    if not jobs or jobs == 1 or len(indices) <= 1:
        # Lazy: a failing run stops the sweep before the next one runs.
        outcomes: Iterable[Outcome] = (execute(config) for config in work)
    else:
        with WorkerPool(min(jobs, len(indices))) as pool:
            futures = [pool.submit(execute, config) for config in work]
            outcomes = [future.result() for future in futures]
    results = []
    for index, outcome in zip(indices, outcomes):
        if outcome.error is not None:
            raise RunFailed(
                index, config_digest(config_list[index]), outcome.error
            )
        count_run(telemetry, outcome.result)
        results.append(outcome.result)
    return results


def run_many(
    configs: Iterable[SystemConfig],
    jobs: Optional[int] = None,
    cache=None,
    telemetry: Optional[MetricsRegistry] = None,
) -> List[SimulationResult]:
    """Run every config, optionally across ``jobs`` worker processes.

    ``jobs=None`` (or ``0``/``1``) runs serially in-process.  Results are
    returned in the order of ``configs`` and are identical to a serial
    run: each simulation is deterministic given its config, and the
    pooled path reassembles results by original index.

    ``cache`` (a :class:`repro.cache.RunCache`) memoizes results by
    salted config digest — hits are served without running, misses are
    computed (pooled if asked) and stored by the supervisor.  Results
    are identical with the cache on, off, warm or cold.

    ``telemetry`` (a :class:`repro.telemetry.MetricsRegistry`) counts
    every computed run (:func:`repro.telemetry.count_run`, in index
    order) and every cache lookup and store.  Cache hits are not
    simulated, so they add ``cache.*`` counters but no ``sim.*`` ones.

    Raises :class:`RunFailed` (with the failing config's index and
    digest) if any run fails; nothing is cached for a failing sweep.
    A nonsensical ``jobs`` fails fast, before any work starts: a non-int
    (including a bool) raises :class:`TypeError`, a negative one raises
    :class:`ValueError`.
    """
    config_list = list(configs)
    if jobs is not None:
        if isinstance(jobs, bool) or not isinstance(jobs, int):
            raise TypeError(
                f"jobs must be an int or None, got "
                f"{type(jobs).__name__} ({jobs!r})"
            )
        if jobs < 0:
            raise ValueError(
                f"jobs must be non-negative (0 or 1 means serial), "
                f"got {jobs}"
            )
    if cache is None:
        return _run_indexed(
            config_list, list(range(len(config_list))), jobs, telemetry
        )
    results: List[Optional[SimulationResult]] = [None] * len(config_list)
    # One digest per config, shared by the probe and the store.
    digests = [config_digest(config) for config in config_list]
    miss_indices: List[int] = []
    for index, digest in enumerate(digests):
        cached = cache.get_result(digest, telemetry)
        if cached is not None:
            results[index] = cached
        else:
            miss_indices.append(index)
    if miss_indices:
        fresh = _run_indexed(config_list, miss_indices, jobs, telemetry)
        for index, result in zip(miss_indices, fresh):
            cache.put_result(digests[index], result, telemetry)
            results[index] = result
    return results  # type: ignore[return-value]
