"""EASY backfill — the engine's default policy.

The highest-priority blocked job gets a reservation (its *shadow time*
computed from running jobs' expected completions, which include staging
E.T.A.s); lower-priority jobs may start only if they fit on
non-reserved nodes or finish before the shadow time.

The pass exposes three override hooks (queue order, reservation start,
backfill completion estimate) so variants like the staging-aware
policy reuse this loop instead of copying it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.slurm.job import Job
from repro.slurm.policies.base import (
    ScheduleDecision, SchedulingPolicy, register_policy,
)

__all__ = ["EasyBackfillPolicy"]


@register_policy
class EasyBackfillPolicy(SchedulingPolicy):
    """EASY: one reservation for the highest-priority blocked job."""

    name = "backfill"
    summary = "EASY backfill: one reservation for the blocked head job"

    # -- subclass hooks ----------------------------------------------------
    def order(self, state, now: float) -> List[Job]:
        """The queue order the pass walks (best job first)."""
        return state.eligible(now)

    def reservation_start(self, state, job: Job, now: float,
                          start: float) -> float:
        """Adjust the blocked head job's reservation start time."""
        return start

    def backfill_completion(self, state, job: Job, now: float) -> float:
        """When a backfill candidate would release its nodes."""
        return now + job.spec.time_limit

    # -- the pass ----------------------------------------------------------
    def schedule(self, state, now: float) -> List[ScheduleDecision]:
        free = state.free.copy()
        decisions: List[ScheduleDecision] = []
        reserved_until: Optional[float] = None
        reserved_nodes: set[str] = set()
        # Running-job completion times, computed lazily on the first
        # blocked job: EASY takes a single reservation, so at most once.
        completions: Optional[list] = None

        for job in self.order(state, now):
            if reserved_until is None:
                if self.fits(job, free):
                    nodes = self.pick(job, free.sorted(), state.selector)
                    free.discard_many(nodes)
                    decisions.append(ScheduleDecision(job, tuple(nodes)))
                else:
                    # Head job blocked: compute its reservation
                    # (drained/down nodes never become available).
                    if completions is None:
                        completions = self.completion_events(
                            now, state.running_jobs(),
                            exclude=state.unavailable)
                    reserved_until, reserved_nodes = self.shadow(
                        job, now, free.sorted(), completions)
                    reserved_until = self.reservation_start(
                        state, job, now, reserved_until)
            else:
                # Backfill: must not delay the reservation.
                if not self.fits(job, free):
                    continue
                candidate = [n for n in free.sorted()
                             if n not in reserved_nodes]
                fits_outside = self.fits(job, candidate)
                finishes_in_time = (
                    self.backfill_completion(state, job, now)
                    <= reserved_until)
                if fits_outside:
                    nodes = self.pick(job, candidate, state.selector)
                elif finishes_in_time:
                    nodes = self.pick(job, free.sorted(), state.selector)
                else:
                    continue
                free.discard_many(nodes)
                decisions.append(ScheduleDecision(job, tuple(nodes),
                                                  backfilled=True))
        return decisions
