"""Server-side campaign jobs: checkpointed, resumable, kill-safe.

A campaign submitted to the server is just :func:`repro.campaign.
run_campaign` pointed at a directory under the server's state dir —
``<state_dir>/campaigns/<name>-<spec_digest[:12]>`` — so every
durability property of the campaign subsystem carries over verbatim:
fsynced JSONL checkpoints, quarantine, sequential stopping, and the
resume-identity contract (kill the *server* with ``SIGKILL`` mid-
campaign, restart it, resubmit — the aggregate digest is byte-identical
to an uninterrupted run; the serve-smoke CI job does exactly this).

Jobs are identified by the spec digest, which doubles as coalescing:
resubmitting a running campaign's spec attaches to the running job
instead of double-executing its directory, and resubmitting a finished
spec resumes (a no-op that rebuilds the report) rather than erroring.
Execution happens on daemon threads — ``run_campaign`` is synchronous
and checkpoint-driven, so abandoning a thread at process exit loses at
most the in-flight points, which a later resume re-runs.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

from repro.campaign import CampaignSpec
from repro.campaign.store import MANIFEST_FILE, RESULTS_FILE, SPEC_FILE
from repro.telemetry.status import load_status

__all__ = ["CampaignJob", "CampaignManager"]

#: Subdirectory of the server state dir that holds campaign dirs.
CAMPAIGNS_SUBDIR = "campaigns"


class CampaignJob:
    """One campaign execution owned by the server.

    ``state`` moves ``running`` → ``complete`` | ``failed``; attribute
    writes happen on the job thread and reads on the event loop, which
    is safe for the plain scalars involved (the GIL orders them) —
    readers poll, they never block on the thread.
    """

    def __init__(
        self, job_id: str, directory: str, spec: CampaignSpec, resumed: bool
    ) -> None:
        self.job_id = job_id
        self.directory = directory
        self.spec = spec
        self.resumed = resumed
        self.state = "running"
        self.error: Optional[str] = None
        self.aggregate_digest: Optional[str] = None
        self.n_completed: Optional[int] = None
        self.n_quarantined: Optional[int] = None
        self.started_at = time.time()
        self.finished_at: Optional[float] = None
        self.done = threading.Event()

    @property
    def name(self) -> str:
        """The campaign's human name (from its spec)."""
        return self.spec.name

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready job descriptor for events and ``/status``."""
        return {
            "job_id": self.job_id,
            "name": self.name,
            "dir": self.directory,
            "state": self.state,
            "resumed": self.resumed,
            "error": self.error,
            "aggregate_digest": self.aggregate_digest,
            "n_completed": self.n_completed,
            "n_quarantined": self.n_quarantined,
        }


class CampaignManager:
    """Runs and tracks campaign jobs under one server state directory."""

    def __init__(
        self,
        state_dir: str,
        jobs: Optional[int] = None,
        cache=None,
        max_active: int = 4,
    ) -> None:
        self.root = os.path.join(state_dir, CAMPAIGNS_SUBDIR)
        os.makedirs(self.root, exist_ok=True)
        self.jobs = jobs
        self.cache = cache
        self.max_active = max_active
        self._jobs: Dict[str, CampaignJob] = {}

    # ------------------------------------------------------------------
    def _job_id(self, spec: CampaignSpec) -> str:
        return f"{spec.name}-{spec.spec_digest()[:12]}"

    def active(self) -> List[CampaignJob]:
        """Jobs currently executing."""
        return [j for j in self._jobs.values() if j.state == "running"]

    def submit(
        self, spec: CampaignSpec, jobs: Optional[int] = None
    ) -> CampaignJob:
        """Start (or attach to, or resume) the job for ``spec``.

        Identical specs coalesce onto the running job.  A directory
        left behind by a previous run — completed or killed — is
        resumed, which re-runs only unfinished points and then rebuilds
        the same aggregate.  Raises ``RuntimeError`` when ``max_active``
        jobs are already executing (the HTTP layer maps it to 429).
        """
        job_id = self._job_id(spec)
        existing = self._jobs.get(job_id)
        if existing is not None and existing.state == "running":
            return existing
        if len(self.active()) >= self.max_active:
            raise RuntimeError(
                f"{self.max_active} campaign job(s) already active"
            )
        directory = os.path.join(self.root, job_id)
        resumed = os.path.exists(os.path.join(directory, RESULTS_FILE))
        job = CampaignJob(job_id, directory, spec, resumed)
        self._jobs[job_id] = job
        thread = threading.Thread(
            target=self._run,
            args=(job, jobs if jobs is not None else self.jobs),
            name=f"campaign-{job_id}",
            daemon=True,
        )
        thread.start()
        return job

    def _run(self, job: CampaignJob, jobs: Optional[int]) -> None:
        from repro.campaign import run_campaign

        try:
            kwargs = dict(jobs=jobs, cache=self.cache)
            if job.resumed:
                report = run_campaign(job.directory, resume=True, **kwargs)
            else:
                report = run_campaign(job.directory, spec=job.spec, **kwargs)
            job.aggregate_digest = report.aggregate
            job.n_completed = report.n_completed
            job.n_quarantined = len(report.quarantined)
            job.state = "complete"
        except Exception as exc:  # surfaced to the client, never the loop
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = "failed"
        finally:
            job.finished_at = time.time()
            job.done.set()

    # ------------------------------------------------------------------
    def resume_incomplete(self) -> List[CampaignJob]:
        """Resume every on-disk campaign that never finished (startup).

        A campaign directory with a spec but no ``manifest.json`` was
        interrupted — typically by the previous server process dying.
        Each one is resubmitted as a resume job, up to ``max_active``.
        """
        resumed: List[CampaignJob] = []
        if not os.path.isdir(self.root):
            return resumed
        for entry in sorted(os.listdir(self.root)):
            directory = os.path.join(self.root, entry)
            spec_path = os.path.join(directory, SPEC_FILE)
            if not os.path.isfile(spec_path):
                continue
            if os.path.isfile(os.path.join(directory, MANIFEST_FILE)):
                continue  # finished cleanly
            if len(self.active()) >= self.max_active:
                break
            try:
                spec = CampaignSpec.load(spec_path)
            except (OSError, ValueError):
                continue  # unreadable spec: leave it for forensics
            resumed.append(self.submit(spec))
        return resumed

    def statuses(self) -> List[Dict[str, object]]:
        """Per-campaign status docs (live or finished) for ``/status``.

        Directory statuses come from the same
        :func:`repro.telemetry.status.load_status` reader the CLI uses,
        augmented with the job descriptor when the server owns the job.
        """
        docs: List[Dict[str, object]] = []
        if not os.path.isdir(self.root):
            return docs
        for entry in sorted(os.listdir(self.root)):
            directory = os.path.join(self.root, entry)
            if not os.path.isfile(os.path.join(directory, SPEC_FILE)):
                continue
            try:
                status = load_status(directory)
            except (OSError, ValueError):
                continue
            job = self._jobs.get(entry)
            if job is not None:
                status["job"] = job.as_dict()
                if job.state != "running":
                    status["state"] = job.state
            docs.append(status)
        return docs
