"""Test-side oracles: analyses that only the tests use.

`classify_gamma` sorts one adjacent pair of the shift solver's order into
its local solution case; `adversarial_response` scans release-offset
corner patterns with the simulator; `unit_step_schedule` builds the
simulator's schedule again, one time unit at a time.
"""

from dataclasses import dataclass
from itertools import product

from harmonic_rta import SimConfig, TaskSet, simulate
from harmonic_rta.feasibility import _feasibility_view


class IndexOutOfRange(ValueError):
    """Stage index outside 1..k-1 for k interfering tasks."""


@dataclass(frozen=True)
class GammaCase:
    """Local solution count of one adjacent-pair congruence stage."""

    case_id: str
    jtilde: int


def classify_gamma(ts: TaskSet, target_index: int | None, i: int) -> GammaCase:
    """Solution count of the adjacent congruence at stage i (1-based).

    Looks at the pair (pi(i), pi(i+1)): jtilde is the jitter difference
    modulo the smaller period; the case says how many shift counts the pair
    admits locally: "Zero" extra, exactly "One", "Both" candidates, or an
    "Empty" local window.
    """
    view = _feasibility_view(ts, target_index)
    periods, jitters, suffix = view.periods, view.jitters, view.suffix_wcet
    unit = view.scale                      # one time unit in view units
    k = len(periods)
    if not 1 <= i <= k - 1:
        raise IndexOutOfRange(f"stage {i} outside 1..{k - 1}")
    jtilde = (jitters[i] - jitters[i - 1]) % periods[i]
    after = suffix[i]                      # wcets strictly after pi(i+1)
    gap = periods[i] - suffix[i - 1]       # period minus wcets after pi(i)
    if jtilde <= after and jtilde <= gap - unit:
        case = "Zero"
    elif jtilde >= after + unit and jtilde >= gap:
        case = "One"
    elif gap <= jtilde <= after:
        case = "Both"
    else:
        case = "Empty"
    return GammaCase(case, jtilde // unit)


def adversarial_response(ts: TaskSet, target_index: int, cfg: SimConfig) -> int:
    """Largest observed target first-job response over offset corner patterns.

    Scans every combination of offset in {0, jitter} for the higher-priority
    tasks (the target's own offset shifts only its arrival, never its release
    or response, so it stays 0).  An empirical lower bound on the jitter-aware
    WCRT; exact at the critical instant for jitter-free sets.
    """
    if len(ts) > 6:
        raise ValueError("offset scan is exponential; need n <= 6")
    target = ts[target_index]
    choices = []
    for i, task in enumerate(ts):
        if i == target_index:
            choices.append((0,))
        else:
            choices.append((0, task.jitter) if task.jitter else (0,))
    best = 0
    for offsets in product(*choices):
        trace = simulate(ts, SimConfig(cfg.horizon, tuple(offsets),
                                       cfg.arrival_policy))
        best = max(best, trace.first_response(target.id))
    return best


def unit_step_schedule(ts: TaskSet, horizon: int, offsets) -> tuple:
    """The simulator's schedule, built one time unit at a time.

    Releases follow the simulator's pattern: job k of task i arrives at
    k*T_i - offsets[i] and is released at max(0, arrival), for its first job
    and every later arrival before the horizon.  At each time unit the
    highest-priority task with a pending job runs the earliest released of
    them.  Returns (jobs, resumptions, idle): the job tuples (task id, job
    index, arrival, release, start, finish) ordered by (release, finish,
    priority), the number of times a job ran again after a gap, and the
    idle intervals before the last finish.
    """
    arrivals = []
    for priority, (task, offset) in enumerate(zip(ts, offsets)):
        arrival = -offset
        k = 0
        while k == 0 or arrival < horizon:
            arrivals.append((max(arrival, 0), priority, k, arrival))
            arrival += task.period
            k += 1
    arrivals.sort()
    # Pending jobs per task: [index, arrival, release, units left, start].
    queues = [[] for _ in ts]
    done = []
    resumptions = 0
    idle = []
    previous = None
    t = 0
    released = 0
    while len(done) < len(arrivals):
        while released < len(arrivals) and arrivals[released][0] <= t:
            release, priority, k, arrival = arrivals[released]
            queues[priority].append([k, arrival, release, ts[priority].wcet,
                                     None])
            released += 1
        priority = next((p for p, queue in enumerate(queues) if queue), None)
        if priority is None:
            if idle and idle[-1][1] == t:
                idle[-1] = (idle[-1][0], t + 1)
            else:
                idle.append((t, t + 1))
            previous = None
            t += 1
            continue
        job = queues[priority][0]
        if job[4] is None:
            job[4] = t
        elif job is not previous:
            resumptions += 1
        job[3] -= 1
        previous = job
        t += 1
        if job[3] == 0:
            queues[priority].pop(0)
            k, arrival, release, _, start = job
            done.append((release, t, priority,
                         (ts[priority].id, k, arrival, release, start, t)))
    done.sort()
    return [record for *_, record in done], resumptions, tuple(idle)
