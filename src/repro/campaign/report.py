"""Campaign aggregation: per-cell statistics, report and manifest.

The report is a *pure function of the checkpoint store*: it is computed
from the JSONL records alone (the ones the store wrote or loaded, never
from in-memory results), sorted by point digest, so the same set of
completed points produces the same bytes whether the campaign ran
straight through, crashed and resumed, or ran with a different worker
count.  ``aggregate_digest`` pins that.

Per grid cell it reports the paper's campaign-grade robustness numbers:

* fault-detection probability with a Wilson (or Clopper-Pearson)
  confidence interval — every injected fault is one Bernoulli trial;
* detection-latency distribution (mean / p50 / p95), the E8 headline;
* **escapes** — faults still undetected at the end of a run, the
  zero-test-escapes claim;
* V/F-corner coverage — which DVFS levels ever ran a test, the E6/TC'16
  "test at every level" claim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro._sum import lsum
from repro.campaign.spec import CampaignSpec, Cell, cell_label, freeze_value
from repro.campaign.store import ResultStore
from repro.metrics.report import format_table
from repro.metrics.stats import BinomialEstimate, binomial_interval

_HEADERS = (
    "cell",
    "runs",
    "injected",
    "detected",
    "escapes",
    "det_rate",
    "ci_low",
    "ci_high",
    "mean_lat_us",
    "p95_lat_us",
    "vf_coverage",
)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not sorted_values:
        return float("nan")
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values))))
    return sorted_values[rank]


@dataclass
class CellSummary:
    """Aggregates over every completed run of one grid cell."""

    cell: Cell
    runs: int = 0
    injected: int = 0
    detected: int = 0
    latencies: List[float] = field(default_factory=list)
    levels_tested: set = field(default_factory=set)
    n_levels: int = 0

    @property
    def escapes(self) -> int:
        """Injected faults that were never detected."""
        return self.injected - self.detected

    def interval(self, method: str = "wilson") -> BinomialEstimate:
        """Confidence interval on the cell's detection probability."""
        return binomial_interval(self.detected, self.injected, method)

    @property
    def vf_coverage(self) -> float:
        """Fraction of the chip's V/F levels exercised by tests."""
        if self.n_levels == 0:
            return 0.0
        return len(self.levels_tested) / self.n_levels

    def row(self, method: str = "wilson") -> List[object]:
        """One formatted table row (see CampaignReport.headers)."""
        est = self.interval(method)
        latencies = sorted(self.latencies)
        mean = (
            lsum(latencies) / len(latencies) if latencies else float("nan")
        )
        return [
            cell_label(self.cell),
            self.runs,
            self.injected,
            self.detected,
            self.escapes,
            est.point,
            est.low,
            est.high,
            mean,
            _percentile(latencies, 0.95),
            self.vf_coverage,
        ]


@dataclass
class CampaignReport:
    """The rendered outcome of a campaign (tables + manifest data)."""

    name: str
    spec_digest: str
    aggregate: str
    headers: Sequence[str]
    rows: List[List[object]]
    n_completed: int
    n_planned: Optional[int]
    interval_method: str
    quarantined: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def render(self, precision: int = 4) -> str:
        """Human-readable report: table, notes, quarantine, digest."""
        parts = [
            format_table(
                list(self.headers),
                self.rows,
                precision=precision,
                title=(
                    f"campaign {self.name}: {self.n_completed} run(s)"
                    + (
                        f" of {self.n_planned} planned"
                        if self.n_planned is not None
                        else " (sequential)"
                    )
                ),
            )
        ]
        for note in self.notes:
            parts.append(f"note: {note}")
        if self.quarantined:
            parts.append(
                f"QUARANTINED {len(self.quarantined)} point(s):"
            )
            for entry in self.quarantined:
                parts.append(
                    f"  - digest {str(entry.get('digest'))[:12]} "
                    f"seed {entry.get('seed')} "
                    f"({entry.get('error', 'unknown error')})"
                )
        parts.append(f"aggregate digest: {self.aggregate}")
        return "\n".join(parts)

    def row_dicts(self) -> List[Dict[str, object]]:
        """Table rows as dicts keyed by the report's column headers."""
        return [dict(zip(self.headers, row)) for row in self.rows]

    def manifest(self, version: str) -> Dict[str, object]:
        """JSON-ready campaign manifest (the build artifact)."""
        return {
            "schema": 1,
            "name": self.name,
            "version": version,
            "spec_digest": self.spec_digest,
            "aggregate_digest": self.aggregate,
            "interval_method": self.interval_method,
            "n_completed": self.n_completed,
            "n_planned": self.n_planned,
            "n_quarantined": len(self.quarantined),
            "quarantined": self.quarantined,
            "rows": self.row_dicts(),
            "notes": self.notes,
        }

    def manifest_json(self, version: str) -> str:
        """The manifest rendered as pretty-printed, key-sorted JSON."""
        return json.dumps(self.manifest(version), indent=2, sort_keys=True)


def summarize_cells(
    records: Iterable[Dict[str, object]]
) -> Dict[Cell, CellSummary]:
    """Group completed records by grid cell and accumulate statistics."""
    cells: Dict[Cell, CellSummary] = {}
    for record in records:
        # JSON round-trips grid tuples as lists; re-freeze so the cell
        # key compares equal to the spec's enumeration.
        cell: Cell = tuple(
            (str(name), freeze_value(value))
            for name, value in record.get("cell", [])
        )
        summary = cells.get(cell)
        if summary is None:
            summary = cells[cell] = CellSummary(cell=cell)
        summary.runs += 1
        summary.n_levels = max(
            summary.n_levels, int(record.get("n_levels", 0))
        )
        for fault in record.get("faults", []):
            summary.injected += 1
            detected_at = fault.get("detected_at")
            if detected_at is not None:
                summary.detected += 1
                summary.latencies.append(
                    float(detected_at) - float(fault["injected_at"])
                )
        for level, count in record.get("per_level_tests", {}).items():
            if count:
                summary.levels_tested.add(int(level))
    return cells


def build_report(
    spec: CampaignSpec,
    store: ResultStore,
    quarantined: Optional[List[Dict[str, object]]] = None,
) -> CampaignReport:
    """Build the campaign report from a checkpoint store's records (the
    ones it keeps; see :class:`~repro.campaign.store.ResultStore`)."""
    records = store.records
    method = spec.stop.method if spec.stop else "wilson"
    # Deterministic record order: sorted by point digest (see store).
    ordered = [records[d] for d in sorted(records)]
    by_cell = summarize_cells(ordered)
    # Row order follows the spec's cell enumeration; cells with no
    # completed runs yet still get a row (all-zero) so partial reports
    # show the full grid.
    rows: List[List[object]] = []
    total = CellSummary(cell=())
    for cell in spec.cells():
        summary = by_cell.get(cell, CellSummary(cell=cell))
        rows.append(summary.row(method))
        total.runs += summary.runs
        total.injected += summary.injected
        total.detected += summary.detected
        total.latencies.extend(summary.latencies)
        total.levels_tested |= summary.levels_tested
        total.n_levels = max(total.n_levels, summary.n_levels)
    if len(spec.cells()) > 1:
        row = total.row(method)
        row[0] = "ALL"
        rows.append(row)
    notes: List[str] = []
    if spec.stop is not None:
        notes.append(
            f"sequential mode: CI half-width target "
            f"{spec.stop.target_half_width:g} ({spec.stop.method}), "
            f"runs per cell in [{spec.stop.min_runs}, "
            f"{spec.stop.max_runs}] step {spec.stop.batch}"
        )
    return CampaignReport(
        name=spec.name,
        spec_digest=spec.spec_digest(),
        aggregate=store.aggregate(),
        headers=_HEADERS,
        rows=rows,
        n_completed=len(ordered),
        n_planned=spec.n_planned_points(),
        interval_method=method,
        quarantined=list(quarantined or []),
        notes=notes,
    )
