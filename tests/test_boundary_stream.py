"""The exact methods agree on sets that no generated stream draws.

Every golden, corpus and benchmark stream draws D = T and rate-monotonic
priorities.  This seeded stream draws strict and relaxed sets of 1-8 tasks
with shuffled priorities, D uniform in [C, T], harmonic periods with ties,
jitters of 0, T - 1 or between (so tied periods carry mixed jitters), a
higher-priority utilization up to 1 - 1/T_1, and rational wcets in relaxed
sets.  For every target, each exact method that applies equals the
jitter-aware fixed point in wcrt, verdict and margin:

- jitter-free targets: harmonic, fixed-point and exclusion;
- jittered targets: virtual-jitter where the greedy solver succeeds, and
  uniform-jitter at the shared jitter where the restricted-jitter
  condition holds;
- integer sets whose simulation stays within a job bound: the simulator's
  first responses, released at the jitter-aware critical instant.

Every staged run spends at most one ceiling per higher-priority task.  The
``repr`` of every result is hashed; the digest was recorded before the
lazily-filled results were rebuilt on one flat instance dict and must never
be regenerated to make a change pass.
"""

import hashlib
import math
from fractions import Fraction

from harmonic_rta import (
    Rng,
    SimConfig,
    Task,
    TaskModelError,
    check_restricted_jitter,
    simulate,
    simulation_job_count,
    solve_feasibility,
    validate,
    wcrt_exclusion_model,
    wcrt_fixed_point,
    wcrt_fixed_point_jitter,
    wcrt_harmonic,
    wcrt_uniform_jitter,
    wcrt_virtual_jitter,
)
from harmonic_rta.harmonic import shared_jitter

SEED = 20261022
SETS = 3000
MAX_JOBS = 2000
DIGEST = "9b8adf8763cef5414d0d5f8bcd83887dec72c74e3978ad300bec7c085421f7e2"


def _shuffled(rng, items):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(0, i)
        items[i], items[j] = items[j], items[i]
    return items


def _fill(rng, wcets, periods, indices):
    """Scale the wcets at `indices` to a random share of 1 - 1/T_1 (T_1
    their largest period), filling a third of the groups up to it.
    Returns False when even unit wcets exceed it."""
    if not indices:
        return True
    cap = 1 - Fraction(1, max(periods[i] for i in indices))
    weights = {i: rng.randint(1, 100) for i in indices}
    share = cap * Fraction(rng.randint(1, 100), 100) / sum(weights.values())
    for i in indices:
        wcets[i] = max(1, int(share * weights[i] * periods[i]))
    room = cap - sum(Fraction(wcets[i], periods[i]) for i in indices)
    if room < 0:
        return False
    if rng.randint(0, 2) == 0:
        for i in _shuffled(rng, indices):
            grow = min(periods[i] - wcets[i], int(room * periods[i]))
            wcets[i] += grow
            room -= Fraction(grow, periods[i])
    return True


def _draw(rng):
    """One set, or None when its wcets cannot meet the utilization cap or
    validation refuses it."""
    n = rng.randint(1, 8)
    relaxed = rng.randint(0, 2) == 0
    jittered = rng.randint(0, 1) == 1
    # A harmonic chain; a factor of 1 ties two periods.
    periods = [rng.randint(2, 6)]
    for _ in range(n - 1):
        periods.append(periods[-1] * (1, 1, 2, 3)[rng.randint(0, 3)])
    periods = _shuffled(rng, periods)
    priorities = _shuffled(rng, range(1, n + 1))
    wcets = [0] * n
    # Strict sets cap the whole set's utilization.  Relaxed ones cap the
    # tasks above the lowest priority, whose own wcet is free, so their
    # total utilization may reach 1 or more.
    capped = list(range(n))
    if relaxed:
        lowest = priorities.index(n)
        capped.remove(lowest)
        wcets[lowest] = rng.randint(1, periods[lowest])
    if not _fill(rng, wcets, periods, capped):
        return None
    tasks = []
    for period, wcet, priority in zip(periods, wcets, priorities):
        if relaxed and rng.randint(0, 1):
            den = rng.randint(2, 4)
            wcet = Fraction(wcet * den - rng.randint(0, den - 1), den)
        deadline = rng.randint(math.ceil(wcet), period)
        jitter = 0
        if jittered:
            jitter = (0, period - 1, rng.randint(0, period - 1))[
                rng.randint(0, 2)]
        tasks.append(Task(period, wcet, deadline, jitter, priority))
    try:
        return validate(tasks, relaxed=relaxed)
    except TaskModelError:
        return None


def _agrees(result, exact):
    assert (result.wcrt, result.schedulable, result.margin) == (
        exact.wcrt, exact.schedulable, exact.margin)
    return repr(result)


def _target_lines(ts, k, exact, counts):
    lines = []
    if not any(task.jitter for task in ts.tasks[:k + 1]):
        staged, trace = wcrt_harmonic(ts, k)
        assert trace.ceil_evals <= k
        lines += [_agrees(staged, exact), repr(trace),
                  _agrees(wcrt_fixed_point(ts, k), exact),
                  _agrees(wcrt_exclusion_model(ts, k), exact)]
    elif k:
        feas = solve_feasibility(ts, k)
        lines.append(repr(feas))
        if feas.is_feasible:
            counts["virtual"] += 1
            virtual = wcrt_virtual_jitter(ts, k, feas)
            assert virtual.iterations <= k
            lines.append(_agrees(virtual, exact))
        if check_restricted_jitter(ts, k):
            counts["uniform"] += 1
            uniform, trace = wcrt_uniform_jitter(ts, k, shared_jitter(ts, k))
            assert trace.ceil_evals <= k
            lines += [_agrees(uniform, exact), repr(trace)]
    return lines


def _stream_lines():
    rng = Rng(SEED)
    counts = dict.fromkeys(("sets", "targets", "simulations", "virtual",
                            "uniform"), 0)
    lines = []
    for _ in range(SETS):
        ts = _draw(rng)
        if ts is None:
            continue
        counts["sets"] += 1
        lines.append(repr(ts))
        exact = [wcrt_fixed_point_jitter(ts, k) for k in range(len(ts))]
        for k, result in enumerate(exact):
            counts["targets"] += 1
            lines.append(repr(result))
            lines += _target_lines(ts, k, result, counts)
        if all(type(task.wcet) is int for task in ts):
            # Every task's first job finishes by the horizon.
            horizon = max(max(task.period for task in ts),
                          max(result.wcrt for result in exact))
            offsets = tuple(task.jitter for task in ts)
            if simulation_job_count(ts, horizon, offsets) <= MAX_JOBS:
                counts["simulations"] += 1
                sim = simulate(ts, SimConfig(horizon, offsets))
                first = tuple(sim.first_response(task.id) for task in ts)
                assert first == tuple(result.wcrt for result in exact)
                lines.append(repr(first))
    lines.append(repr(counts))
    return lines, counts


def test_boundary_stream_agrees_with_the_jitter_aware_fixed_point():
    lines, counts = _stream_lines()
    assert min(counts.values()) > 1000, counts
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
