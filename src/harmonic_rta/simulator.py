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
job's finish preempts nothing.  Each job finds its first free interval by
walking forward from the previous job's one, so one level's walk passes
each free interval at most once.  The free gaps left once every level is
placed are the processor's idle intervals.  The trace keeps each level's
release, start and finish columns, from which the job records are built
on first read (see JobRecords).  Its per-task maxima, from those columns,
and its idle intervals, from that final free list, are deferred fields
of the frozen trace (see model._Deferred): built on first read, with the
same values an eager build would give.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from math import inf
from operator import itemgetter, sub
from typing import NamedTuple

from .model import TaskSet, _Deferred, _deferred

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


class JobRecords(Sequence):
    """The jobs of one simulation: a read-only sequence of Job records.

    It holds each task's release, start and finish times, one list each,
    and builds the Job tuples on the first index or iteration, in
    (release, finish, task id) order, caching them for later reads.  `len`
    and SimTrace.first_response build none.  It compares equal to, and
    prints as, the tuple of those records.
    """

    def __init__(self, levels: dict, count: int):
        # task id -> (offset, releases, starts, finishes), priority order.
        self._levels = levels
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._records[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, JobRecords):
            other = other._records
        return self._records == other

    def __repr__(self) -> str:
        return repr(self._records)

    @cached_property
    def _records(self) -> tuple[Job, ...]:
        jobs = []
        for task_id, (off, *columns) in self._levels.items():
            jobs += [Job(task_id, k, r if k else -off, r, s, f)
                     for k, (r, s, f) in enumerate(zip(*columns))]
        # Stable on release: jobs released together stay in priority order,
        # which is their finish order, so this is (release, finish, task id).
        jobs.sort(key=itemgetter(3))
        return tuple(jobs)


@dataclass(frozen=True)
class SimTrace(_Deferred):
    """Full schedule: jobs, per-task maximum response times, preemptions
    and idle intervals.

    `jobs` builds its Job records only when read (see JobRecords).  In a
    trace from `simulate`, `response_times` (task id -> largest response,
    in priority order) and `idle_intervals` (the finite free gaps, in time
    order) are built on their first read; the job count, `first_response`
    and `preemption_count` need none of them.
    """

    jobs: JobRecords
    response_times: dict
    preemption_count: int
    idle_intervals: tuple[tuple[int, int], ...]

    # A frozen dataclass would hash its fields, and the maxima are a dict.
    __hash__ = None

    def first_response(self, task_id: str) -> int:
        """The response of the task's first job: its finish, as it is
        released at 0."""
        try:
            return self.jobs._levels[task_id][3][0]
        except KeyError:
            raise KeyError(
                f"no first job recorded for task {task_id!r}") from None


def _maxima(levels: dict) -> dict:
    """Task id -> largest response, from the per-level columns."""
    return {task_id: max(map(sub, finishes, releases))
            for task_id, (_, releases, _, finishes) in levels.items()}


def _idle(starts: list, ends: list) -> tuple[tuple[int, int], ...]:
    """The finite free intervals; the last, unbounded one is dropped."""
    return tuple(zip(starts[:-1], ends[:-1]))


def simulate(ts: TaskSet, cfg: SimConfig) -> SimTrace:
    """Run the schedule and return the exact trace.

    Jobs are released strictly before cfg.horizon (first jobs always at 0)
    and every one of them is scheduled to completion; a job finishing past
    the horizon is exact for this finite workload (no further releases
    exist to preempt it).  HorizonTooShort is raised iff some task's first
    job (the analyzed one under the worst-case release pattern) fails to
    finish by the horizon; it names the highest-priority such task.  The
    horizon, the offsets and the wcets must be ints.
    """
    tasks = ts.tasks
    n = len(tasks)
    offsets = cfg.release_offsets
    if offsets is None:
        # Zero offsets are ints within every task's jitter.
        offsets = (0,) * n
    else:
        if len(offsets) != n:
            raise ValueError(f"need {n} release offsets, got {len(offsets)}")
        for task, off in zip(tasks, offsets):
            if type(off) is not int:
                raise ValueError(f"task {task.id}: simulation needs integer "
                                 f"offsets, got {off!r}")
            if not 0 <= off <= task.jitter:
                raise ValueError(f"offset {off} of task {task.id} outside "
                                 f"[0, jitter={task.jitter}]")
    for task in tasks:
        if type(task.wcet) is not int:
            raise ValueError(
                f"task {task.id}: simulation needs integer wcets, got {task.wcet!r}")
    if cfg.arrival_policy != ARRIVAL_MIN_SPACING:
        raise ValueError(f"unknown arrival policy {cfg.arrival_policy!r}")
    horizon = cfg.horizon
    if type(horizon) is not int:
        raise ValueError(f"simulation needs an integer horizon, got {horizon!r}")
    if horizon < max([task.period for task in tasks]):
        raise ValueError("horizon must be at least the largest period")

    # Processor time not taken by the levels placed so far: disjoint,
    # non-adjacent intervals [starts[m], ends[m]) in time order, the last
    # one unbounded.  TaskSet index order is priority order.
    starts = [0]
    ends = [inf]
    preemptions = 0
    job_count = 0
    levels = {}
    for task, off in zip(tasks, offsets):
        task_id = task.id
        period = task.period
        wcet = task.wcet
        # Job 0 arrives at -off and releases at 0; job k >= 1 arrives and
        # releases at k*period - off, while that is before the horizon.
        releases = [0, *range(period - off, horizon, period)]
        job_starts = []
        finishes = []
        m = 0
        for release in releases:
            # The first free interval m ending after the release.  Releases
            # only grow, and every interval before the previous job's m ends
            # at or before that job's release, so the walk starts there; it
            # passes each interval at most once per level and stops at the
            # last, unbounded one.
            while ends[m] <= release:
                m += 1
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
            else:
                # Run on in free intervals m..last until wcet units are
                # done; each gap passed is a preemption and moves the
                # finish past it.
                last = m
                while finish > ends[last]:
                    finish += starts[last + 1] - ends[last]
                    last += 1
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
            job_starts.append(start)
            finishes.append(finish)
        if finishes[0] > horizon:
            raise HorizonTooShort(
                f"first job of task {task_id} unfinished at horizon {horizon}")
        levels[task_id] = off, releases, job_starts, finishes
        job_count += len(releases)

    return _deferred(SimTrace, {"jobs": JobRecords(levels, job_count),
                                "preemption_count": preemptions,
                                "_response_times": (_maxima, levels),
                                "_idle_intervals": (_idle, starts, ends)})
