"""Workflow-aware priority aging.

Priorities implement Section III's "all jobs that are part of a
workflow as a unit": a workflow job ages from the *workflow creation
time*, not its own submission, so late phases do not restart at the
back of the queue while earlier phases run.

slurmctld's scheduling passes live in :mod:`repro.slurm.policies`,
which read priorities through :class:`PriorityCalculator`.
"""

from __future__ import annotations

from typing import Optional

from repro.slurm.job import Job
from repro.slurm.workflow import WorkflowManager

__all__ = ["PriorityCalculator"]


class PriorityCalculator:
    """base priority + age, with workflow-level aging."""

    def __init__(self, age_weight: float = 1.0 / 3600.0) -> None:
        self.age_weight = age_weight

    def priority(self, job: Job, now: float,
                 workflows: Optional[WorkflowManager] = None) -> float:
        ref = job.submit_time
        if workflows is not None and job.workflow_id is not None:
            wf = workflows.workflow(job.workflow_id)
            ref = min(ref, wf.created_at)
        age = max(0.0, now - ref)
        return job.spec.base_priority + self.age_weight * age
