"""Benchmark-harness helpers.

Every benchmark runs its experiment exactly once via ``benchmark.pedantic``
(a full experiment is many simulations already; repeating it buys nothing),
prints the reconstructed paper table/figure, and asserts the claim the
experiment validates so a regression in the reproduction fails the bench.
"""

from __future__ import annotations


def run_once(benchmark, experiment_id, **kwargs):
    """``run_experiment(experiment_id, **kwargs)`` once under
    pytest-benchmark; prints the result and returns it."""
    from repro.experiments import run_experiment

    result = benchmark.pedantic(
        run_experiment,
        args=(experiment_id,),
        kwargs=kwargs,
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())
    return result
