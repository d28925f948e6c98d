"""Fault-injection campaigns: resumable, crash-tolerant Monte-Carlo
batches with statistical stopping rules.

A single-seed fault-injection run is an anecdote; the paper's
robustness claims (detection latency, V/F-corner coverage, zero escapes
under the power budget) need *campaigns* — systematic sampling of the
(config × seed × fault-space) cross-product with confidence intervals,
checkpointed execution and failure quarantine.  This package turns the
deterministic simulator into that batch workload:

>>> from repro.campaign import CampaignSpec, run_campaign
>>> spec = CampaignSpec.from_dict({
...     "name": "doc-smoke",
...     "base": {"width": 4, "height": 4, "horizon_us": 3000.0,
...              "fault_hazard_per_us": 2e-4},
...     "grid": {"test_policy": ["power-aware", "none"]},
...     "seeds": {"start": 1, "count": 1},
... })
>>> len(spec.fixed_points())
2

See ``repro.campaign.runner`` for the resume-identity contract and the
CLI (``python -m repro campaign run/resume/report``) for the shell
interface.
"""

from repro.campaign.executor import (
    CampaignInterrupted,
    ExecutionStats,
    PointFailure,
    RetryPolicy,
    RobustExecutor,
)
from repro.campaign.report import (
    CampaignReport,
    CellSummary,
    build_report,
    summarize_cells,
)
from repro.campaign.runner import (
    load_spec,
    plan_missing,
    report_campaign,
    run_campaign,
)
from repro.campaign.spec import (
    CampaignPoint,
    CampaignSpec,
    SeedPlan,
    StopRule,
    cell_digest,
    cell_label,
    freeze_cell,
)
from repro.campaign.store import (
    FailureLog,
    ResultStore,
    aggregate_digest,
    record_from_result,
)

__all__ = [
    "CampaignInterrupted",
    "CampaignPoint",
    "CampaignReport",
    "CampaignSpec",
    "CellSummary",
    "ExecutionStats",
    "FailureLog",
    "PointFailure",
    "ResultStore",
    "RetryPolicy",
    "RobustExecutor",
    "SeedPlan",
    "StopRule",
    "aggregate_digest",
    "build_report",
    "cell_digest",
    "cell_label",
    "freeze_cell",
    "load_spec",
    "plan_missing",
    "record_from_result",
    "report_campaign",
    "run_campaign",
    "summarize_cells",
]
