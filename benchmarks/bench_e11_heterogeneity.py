"""E11: power-aware testing on a heterogeneous floorplan (repo extension).

The claim: "the dark-silicon ratio follows the tile mix and technology
model while the budget stays honoured".  On the three-type 4x4
floorplan, swapping homogeneous ``std`` tiles for the IO/O3/accelerator
mix darkens more of the chip, and the near-threshold model darkens more
still; under all three, no power sample exceeds the budget.
"""

from conftest import run_once

from repro.experiments import run_e11_hetero


def test_e11_heterogeneity(benchmark):
    result = run_once(benchmark, run_e11_hetero, horizon_us=60_000.0)
    rows = {(r[0], r[1]): r for r in result.rows}
    dark = [
        rows[("homogeneous", "cmos")][2],
        rows[("hetero-3type", "cmos")][2],
        rows[("hetero-3type", "ntv")][2],
    ]
    assert all(0.0 <= d <= 1.0 for d in dark)
    # The dark fraction follows the tile mix, then the technology model.
    assert dark[0] < dark[1] < dark[2]
    # The budget stays honoured: no violated sample on any platform.
    assert all(row[-1] == 0.0 for row in result.rows)
    # Testing carries over: every platform completes test sessions.
    assert all(row[4] > 0 for row in result.rows)
