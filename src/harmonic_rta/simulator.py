"""Exact preemptive fixed-priority uniprocessor schedule, built level by level.

Serves as an empirical oracle: exact integer times, synchronous worst-case
first releases, per-job response times.  Release offsets model the
worst-case early-release (jitter) pattern: task i's first job arrives at
-offset_i and is released at time 0 together with every other first job;
all later jobs of the task arrive and release at k*period - offset_i, so
consecutive releases of a task are squeezed to the minimum spacing the
jitter bound allows.  Zero offsets therefore reproduce the jitter-free
critical instant, and offsets equal to the jitters reproduce the jitter-aware
worst-case demand.

The schedule is built one priority level at a time.  A lower-priority job
never delays a higher-priority one, so once the higher levels are placed,
each job of the next task simply occupies the first C units of processor
time left free at or after its release, and the jobs of one task run in
release order.  Every gap in a job's execution is time taken by a
higher-priority release, that is one preemption; a release exactly at a
job's finish preempts nothing.  The free gaps left once every level is
placed are the processor's idle intervals.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import inf
from operator import itemgetter
from typing import NamedTuple

from .model import TaskSet

ARRIVAL_MIN_SPACING = "min-interarrival"


class HorizonTooShort(RuntimeError):
    """A first job (the analyzed one) did not finish within the horizon."""


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    `horizon` bounds the release window: jobs are released strictly before
    it (first jobs always release at 0).  `release_offsets` gives one
    non-negative offset per task, each at most that task's jitter; None means
    all zero.  `arrival_policy` fixes arrivals at minimum inter-arrival
    spacing (the only supported policy).
    """

    horizon: int
    release_offsets: tuple[int, ...] | None = None
    arrival_policy: str = ARRIVAL_MIN_SPACING


class Job(NamedTuple):
    task_id: str
    job_index: int
    arrival: int
    release: int
    start: int
    finish: int

    @property
    def response(self) -> int:
        return self.finish - self.release


# Builds a Job from one tuple without the Python-level __new__ call.
_new_job = tuple.__new__


@dataclass(frozen=True)
class SimTrace:
    """Full schedule: jobs, per-task maximum response times, preemptions."""

    jobs: tuple[Job, ...]
    response_times: dict
    preemption_count: int
    idle_intervals: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def first_response(self, task_id: str) -> int:
        for job in self.jobs:
            if job.task_id == task_id and job.job_index == 0:
                return job.response
        raise KeyError(f"no first job recorded for task {task_id!r}")

    def to_tsv(self) -> str:
        """One line per job: task, job, arrival, release, start, finish."""
        lines = ["\t".join(("task", "job", "arrival", "release", "start",
                            "finish"))]
        for j in self.jobs:
            lines.append("\t".join(str(v) for v in (
                j.task_id, j.job_index, j.arrival, j.release, j.start,
                j.finish)))
        return "\n".join(lines) + "\n"


def simulate(ts: TaskSet, cfg: SimConfig) -> SimTrace:
    """Run the schedule and return the exact trace.

    Jobs are released strictly before cfg.horizon (first jobs always at 0)
    and every one of them is scheduled to completion; a job finishing past
    the horizon is exact for this finite workload (no further releases
    exist to preempt it).  HorizonTooShort is raised iff some task's first
    job (the analyzed one under the worst-case release pattern) fails to
    finish by the horizon; it names the highest-priority such task.  Jobs
    are listed by (release, finish, task id).
    """
    n = len(ts)
    offsets = cfg.release_offsets if cfg.release_offsets is not None else (0,) * n
    if len(offsets) != n:
        raise ValueError(f"need {n} release offsets, got {len(offsets)}")
    for task, off in zip(ts, offsets):
        if not 0 <= off <= task.jitter:
            raise ValueError(
                f"offset {off} of task {task.id} outside [0, jitter={task.jitter}]")
        if type(task.wcet) is not int:
            raise ValueError(
                f"task {task.id}: simulation needs integer wcets, got {task.wcet!r}")
    if cfg.arrival_policy != ARRIVAL_MIN_SPACING:
        raise ValueError(f"unknown arrival policy {cfg.arrival_policy!r}")
    horizon = cfg.horizon
    if horizon < max(t.period for t in ts):
        raise ValueError("horizon must be at least the largest period")

    # Processor time not taken by the levels placed so far: disjoint,
    # non-adjacent intervals [starts[m], ends[m]) in time order, the last
    # one unbounded.  TaskSet index order is priority order.
    starts = [0]
    ends = [inf]
    preemptions = 0
    jobs = []
    response_times: dict = {}
    for task, off in zip(ts, offsets):
        task_id = task.id
        period = task.period
        wcet = task.wcet
        k = 0
        arrival = -off
        release = 0
        worst = 0
        m = 0
        while True:
            # The first free interval m ending after the release.  Releases
            # only grow, and every interval before the previous job's m ends
            # at or before that job's release, so the search starts there.
            m = bisect_right(ends, release, m)
            head = starts[m]
            start = head if head > release else release
            finish = start + wcet
            end = ends[m]
            if finish < end:
                if head < start:
                    # Give back [head, start): interval m splits in two.
                    ends.insert(m, start)
                    starts.insert(m + 1, finish)
                else:
                    starts[m] = finish
            elif finish == end:
                if head < start:
                    ends[m] = start
                else:
                    del starts[m]
                    del ends[m]
            else:
                # Run on in free intervals m+1..last until wcet units are
                # done; each gap before one of them is a preemption.
                left = finish - end
                last = m + 1
                begin = starts[last]
                while ends[last] - begin < left:
                    left -= ends[last] - begin
                    last += 1
                    begin = starts[last]
                finish = begin + left
                preemptions += last - m
                # Give back [finish, ends[last]) and [head, start), drop the
                # rest.
                stop = last + 1
                if finish < ends[last]:
                    starts[last] = finish
                    stop = last
                if head < start:
                    ends[m] = start
                    m += 1
                del starts[m:stop]
                del ends[m:stop]
            if k == 0 and finish > horizon:
                raise HorizonTooShort(
                    f"first job of task {task_id} unfinished at horizon "
                    f"{horizon}")
            jobs.append(_new_job(Job, (task_id, k, arrival, release, start,
                                       finish)))
            if finish - release > worst:
                worst = finish - release
            k += 1
            arrival += period
            if arrival >= horizon:
                break
            release = arrival
        response_times[task_id] = worst

    # Stable on release: jobs released together stay in priority order,
    # which is their finish order, so this is (release, finish, task id).
    jobs.sort(key=itemgetter(3))
    idle = tuple(zip(starts[:-1], ends[:-1]))
    return SimTrace(tuple(jobs), response_times, preemptions, idle)
