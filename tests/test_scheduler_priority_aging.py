"""PriorityCalculator workflow-level aging edge cases.

Section III ages every workflow job from the *workflow creation time*
so late phases do not restart at the back of the queue — but the
reference must be the *earlier* of job submit and workflow creation,
and aging must degrade gracefully when the workflow link or the age
weight is absent.
"""

import pytest

from repro.slurm.job import Job, JobSpec
from repro.slurm.scheduler import PriorityCalculator
from repro.slurm.workflow import Workflow, WorkflowManager


def make_workflow(first_submit=100.0):
    manager = WorkflowManager()
    first = Job(JobSpec(name="root", workflow_start=True),
                submit_time=first_submit)
    wf = manager.place_job(first)
    return manager, wf, first


class TestWorkflowAging:
    def test_member_ages_from_workflow_creation(self):
        manager, wf, first = make_workflow(first_submit=100.0)
        late = Job(JobSpec(name="late",
                           workflow_prior_dependency=first.job_id),
                   submit_time=500.0)
        wf.add_job(late, prior=first.job_id)
        calc = PriorityCalculator(age_weight=1.0)
        # ages from t=100 (workflow creation), not its own submit t=500
        assert calc.priority(late, 600.0, manager) == pytest.approx(500.0)

    def test_job_submitted_before_workflow_creation(self):
        # A job can carry a submit time earlier than the workflow's
        # created_at (e.g. a requeued job adopted into a workflow); the
        # reference must be min(submit, created_at) so age never drops.
        manager, wf, first = make_workflow(first_submit=100.0)
        early = Job(JobSpec(name="early",
                            workflow_prior_dependency=first.job_id),
                    submit_time=40.0)
        wf.add_job(early, prior=first.job_id)
        calc = PriorityCalculator(age_weight=1.0)
        assert calc.priority(early, 600.0, manager) == pytest.approx(560.0)

    def test_missing_workflow_id_uses_own_submit(self):
        manager, _wf, _first = make_workflow()
        plain = Job(JobSpec(name="plain"), submit_time=200.0)
        assert plain.workflow_id is None
        calc = PriorityCalculator(age_weight=1.0)
        assert calc.priority(plain, 600.0, manager) == pytest.approx(400.0)

    def test_no_manager_uses_own_submit(self):
        manager, wf, first = make_workflow(first_submit=100.0)
        member = Job(JobSpec(name="m",
                             workflow_prior_dependency=first.job_id),
                     submit_time=500.0)
        wf.add_job(member, prior=first.job_id)
        calc = PriorityCalculator(age_weight=1.0)
        # without the manager the workflow reference is unavailable
        assert calc.priority(member, 600.0, None) == pytest.approx(100.0)

    def test_zero_age_weight_is_pure_base_priority(self):
        manager, wf, first = make_workflow(first_submit=0.0)
        member = Job(JobSpec(name="m", base_priority=7.5,
                             workflow_prior_dependency=first.job_id),
                     submit_time=10.0)
        wf.add_job(member, prior=first.job_id)
        calc = PriorityCalculator(age_weight=0.0)
        assert calc.priority(member, 1e9, manager) == pytest.approx(7.5)
        assert calc.priority(member, 10.0, manager) == pytest.approx(7.5)

    def test_age_never_negative(self):
        calc = PriorityCalculator(age_weight=1.0)
        job = Job(JobSpec(name="future"), submit_time=1000.0)
        # queried before its own submit instant (clock skew guard)
        assert calc.priority(job, 500.0, None) == pytest.approx(0.0)
