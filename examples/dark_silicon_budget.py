#!/usr/bin/env python3
"""Dark-silicon arithmetic and the budget squeeze across technology nodes.

Shows (a) the static picture — how many cores of an 8x8 chip can run at
peak under a fixed 80 W TDP at each node — and (b) the dynamic picture:
the same workload simulated at 45 nm and 16 nm, with the PID power manager
absorbing the squeeze through fine-grained DVFS while the proposed test
scheduler keeps screening cores from whatever budget is left over.

Run:  python examples/dark_silicon_budget.py
"""

from dataclasses import replace

from repro import Chip, SystemConfig, node_names, run_system
from repro.metrics import format_table


def static_picture(width: int, height: int, tdp_w: float) -> None:
    n_cores = width * height
    rows = []
    for name in node_names():
        chip = Chip.build(width, height, name, tdp_w)
        peak = chip.tech_model.peak_core_power(chip.node, chip.core_types[0])
        lit = chip.lit_fraction()
        rows.append(
            [
                name,
                peak,
                n_cores * peak,
                lit * 100.0,
                (1.0 - lit) * 100.0,
                int(lit * n_cores),
            ]
        )
    print(
        format_table(
            [
                "node", "peak W/core", "demand (W)",
                "lit (%)", "dark (%)", "cores at peak",
            ],
            rows,
            precision=1,
            title=f"static dark-silicon picture, {n_cores} cores, TDP {tdp_w:.0f} W",
        )
    )


def dynamic_picture() -> None:
    base = SystemConfig(horizon_us=30_000.0, arrival_rate_per_ms=8.0, seed=11)
    rows = []
    for name in ("45nm", "16nm"):
        result = run_system(replace(base, node_name=name))
        rows.append(
            [
                name,
                result.throughput_ops_per_us,
                result.metrics.average_power(base.horizon_us),
                result.metrics.audit.violation_rate,
                result.tests_completed,
                result.test_power_share * 100.0,
            ]
        )
    print(
        format_table(
            [
                "node", "throughput(ops/us)", "avg power (W)",
                "violations", "tests", "test-energy(%)",
            ],
            rows,
            precision=2,
            title="dynamic picture: same workload, PID budgeting + power-aware test",
        )
    )


def main() -> None:
    static_picture(width=8, height=8, tdp_w=80.0)
    print()
    dynamic_picture()


if __name__ == "__main__":
    main()
