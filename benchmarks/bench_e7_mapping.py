"""E7: runtime-mapping comparison (the test-aware utilization mapper).

At moderate load the proposed mapper keeps contiguous-level communication
locality while reducing test aborts/staleness versus the contiguous
baseline (random placement gets freshness too, but wrecks locality).
"""

from conftest import run_once


def test_e7_mapping(benchmark):
    result = run_once(benchmark, "E7", horizon_us=60_000.0)
    rows = {r[0]: r for r in result.rows}
    # Locality: test-aware ~ contiguous, both far better than random.
    assert result.scalars["hops_overhead_vs_contiguous"] < 0.5
    assert rows["test-aware"][2] < rows["random"][2] - 0.5
    # Test freshness: no worse than the contiguous baseline on aborts.
    assert rows["test-aware"][5] <= rows["contiguous"][5]
