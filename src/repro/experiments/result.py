"""What every experiment runner shares: the result container, the
baseline configuration and the throughput-penalty helper."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.system import SystemConfig
from repro.metrics.report import format_table, sparkline

#: Baseline workload used by most experiments (16 nm, saturating load).
DEFAULT_CONFIG = SystemConfig(
    node_name="16nm",
    tdp_w=80.0,
    horizon_us=60_000.0,
    arrival_rate_per_ms=8.0,
    seed=11,
)


def _penalty_pct(baseline: float, measured: float) -> float:
    """Throughput penalty (%) of ``measured`` against ``baseline``."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (1.0 - measured / baseline)


@dataclass
class ExperimentResult:
    """Table + optional series produced by one experiment runner."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[List[object]]
    claim: str = ""
    notes: List[str] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)
    scalars: Dict[str, float] = field(default_factory=dict)
    #: Run provenance (experiment id, code version, kwargs, rows digest);
    #: filled by :func:`repro.experiments.run_experiment`.
    provenance: Dict[str, object] = field(default_factory=dict)

    def render(self, precision: int = 3) -> str:
        """Human-readable report block for terminals and logs."""
        parts = [f"== {self.experiment_id}: {self.title} =="]
        if self.claim:
            parts.append(f"claim: {self.claim}")
        parts.append(format_table(self.headers, self.rows, precision=precision))
        for name, values in sorted(self.series.items()):
            parts.append(f"{name}: {sparkline(values)}")
        for note in self.notes:
            parts.append(f"note: {note}")
        if self.scalars:
            rendered = ", ".join(
                f"{k}={v:.4g}" for k, v in sorted(self.scalars.items())
            )
            parts.append(f"scalars: {rendered}")
        return "\n".join(parts)

    def row_dicts(self) -> List[Dict[str, object]]:
        """Rows as dictionaries keyed by column header."""
        return [dict(zip(self.headers, row)) for row in self.rows]

    def to_csv(self) -> str:
        """The result table as CSV text (for external plotting)."""
        from repro.metrics.export import rows_to_csv

        return rows_to_csv(self.headers, self.rows)

    def series_csv(self) -> str:
        """All series as CSV columns (index column is the sample rank)."""
        from repro.metrics.export import series_to_csv

        if not self.series:
            raise ValueError(f"{self.experiment_id} has no series")
        n = max(len(v) for v in self.series.values())
        columns: Dict[str, List[float]] = {"sample": list(range(n))}
        for name, values in sorted(self.series.items()):
            padded = list(values) + [float("nan")] * (n - len(values))
            columns[name] = padded
        return series_to_csv(columns)
