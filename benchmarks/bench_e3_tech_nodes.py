"""E3: dark-silicon squeeze across 45/32/22/16 nm.

The lit fraction under a fixed 80 W TDP shrinks monotonically with
scaling, while the proposed scheduler's throughput penalty stays
negligible at every node.
"""

from conftest import run_once


def test_e3_tech_nodes(benchmark):
    result = run_once(benchmark, "E3", horizon_us=60_000.0)
    lits = [row[1] for row in result.rows]
    assert lits == sorted(lits, reverse=True)  # 45nm most lit ... 16nm least
    assert result.scalars["worst_penalty_pct"] < 1.5
