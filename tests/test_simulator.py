"""Discrete-event scheduler: frozen traces, discipline invariants, oracles."""

import re
from collections.abc import Sequence
from dataclasses import FrozenInstanceError
from fractions import Fraction
from operator import itemgetter

import pytest

from harmonic_rta import (
    HorizonTooShort,
    Rng,
    SimConfig,
    SimTrace,
    main,
    oracle_cross_check,
    simulate,
    simulation_job_count,
    wcrt_fixed_point_jitter,
    wcrt_harmonic,
)
from harmonic_rta import simulator
from harmonic_rta.simulator import JobRecords
from conftest import mk, write_task_file
from oracles import adversarial_response, unit_step_schedule


def test_single_task_first_job():
    ts = mk([(60, 6, 0)])
    trace = simulate(ts, SimConfig(horizon=60))
    assert trace.first_response("t1") == 6
    job = trace.jobs[0]
    assert (job.release, job.start, job.finish) == (0, 0, 6)


def test_two_hp_tasks_target_response():
    ts = mk([(8, 2, 0), (4, 2, 0), (8, 1, 0)])
    trace = simulate(ts, SimConfig(horizon=8))
    assert trace.first_response("t3") == 7


def test_adversarial_below_analytic(table1):
    cfg = SimConfig(horizon=720)
    for i in (1, 5):
        observed = adversarial_response(table1, i, cfg)
        analytic = wcrt_fixed_point_jitter(table1, i).wcrt
        assert observed <= analytic


def test_adversarial_exact_when_jitter_free():
    ts = mk([(8, 2, 0), (4, 1, 0), (16, 3, 0), (16, 1, 0)])
    for i in range(len(ts)):
        observed = adversarial_response(ts, i, SimConfig(horizon=32))
        plain, _ = wcrt_harmonic(ts, i)
        assert observed == plain.wcrt


def test_offsets_must_respect_jitter(table1):
    bad = [0] * len(table1)
    bad[0] = table1[0].jitter + 1
    with pytest.raises(ValueError):
        simulate(table1, SimConfig(horizon=720, release_offsets=tuple(bad)))
    with pytest.raises(ValueError):
        simulate(table1, SimConfig(horizon=720, release_offsets=(0,)))


@pytest.mark.parametrize("horizon, offsets, message", [
    (360.0, None, "simulation needs an integer horizon, got 360.0"),
    (Fraction(360), None,
     "simulation needs an integer horizon, got Fraction(360, 1)"),
    (360, (Fraction(1, 2), 0, 0, 0, 0, 0),
     "task t1: simulation needs integer offsets, got Fraction(1, 2)"),
    (360, (0, 0, 9.0, 0, 0, 0),
     "task t3: simulation needs integer offsets, got 9.0"),
])
def test_horizon_and_offsets_must_be_ints(table1, horizon, offsets, message):
    # Exact integer times: a float or Fraction would make them rational.
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate(table1, SimConfig(horizon, offsets))


def test_horizon_too_short():
    # Offset 8 packs hp releases at 0, 2, 12: the target's first job
    # finishes at 21, past the horizon.
    ts = mk([(10, 4, 8), (20, 9, 0)])
    with pytest.raises(HorizonTooShort):
        simulate(ts, SimConfig(horizon=20, release_offsets=(8, 0)))
    with pytest.raises(ValueError):
        simulate(ts, SimConfig(horizon=4))


def test_schedule_invariants_random():
    rng = Rng(424242)
    for _ in range(60):
        n = rng.randint(1, 5)
        periods = [rng.randint(2, 6)]
        for _ in range(n - 1):
            periods.append(periods[-1] * rng.randint(1, 3))
        periods.reverse()
        rows = []
        for t in periods:
            rows.append([t, rng.randint(1, max(1, t // (n + 1))),
                         rng.randint(0, t - 1)])
        ts = mk(rows, relaxed=True)
        if ts.total_utilization >= 1:
            continue
        offsets = tuple(rng.randint(0, r[2]) for r in rows)
        horizon = 4 * periods[0]
        try:
            trace = simulate(ts, SimConfig(horizon=horizon,
                                           release_offsets=offsets))
        except HorizonTooShort:
            continue
        by_task = {}
        for job in trace.jobs:
            assert job.finish - job.release >= remaining_wcet(ts, job.task_id)
            assert job.start >= job.release
            assert job.finish > job.start
            by_task.setdefault(job.task_id, []).append(job)
        for jobs in by_task.values():
            jobs.sort(key=lambda j: j.job_index)
            for a, b in zip(jobs, jobs[1:]):
                assert a.finish <= b.finish or b.release > a.release
        # Work conservation: no job may span an idle interval.
        for a, b in trace.idle_intervals:
            assert a < b
            for job in trace.jobs:
                assert job.finish <= a or job.release >= b


def _compare_with_unit_step(ts, horizon, offsets):
    """Check simulate against the unit-step schedule; returns None when a
    first job misses the horizon, else the number of resumptions."""
    jobs, resumptions, idle = unit_step_schedule(ts, horizon, offsets)
    late = [job[0] for job in jobs if job[1] == 0 and job[5] > horizon]
    if late:
        first = next(t.id for t in ts if t.id in late)
        with pytest.raises(HorizonTooShort, match=re.escape(
                f"first job of task {first} unfinished at horizon "
                f"{horizon}")):
            simulate(ts, SimConfig(horizon, offsets))
        return None
    trace = simulate(ts, SimConfig(horizon, offsets))
    assert simulation_job_count(ts, horizon, offsets) == len(trace.jobs)
    assert list(trace.jobs) == jobs
    assert trace.preemption_count == resumptions
    assert trace.idle_intervals == idle
    for t in ts:
        assert trace.response_times[t.id] == max(
            job[5] - job[3] for job in jobs if job[0] == t.id)
    return resumptions


def test_simulator_matches_unit_step_schedule():
    # Non-harmonic sets, some overloaded, jitter on about half the tasks.
    rng = Rng(8128)
    compared = preempted = too_short = 0
    for _ in range(2000):
        n = rng.randint(1, 5)
        rows = []
        for _ in range(n):
            period = rng.randint(2, 30)
            jitter = rng.randint(1, period - 1) if rng.randint(0, 1) else 0
            rows.append((period, rng.randint(1, max(1, period // n)), jitter))
        ts = mk(rows, relaxed=True)
        offsets = tuple(rng.randint(0, t.jitter) for t in ts)
        horizon = rng.randint(max(t.period for t in ts), 120)
        resumptions = _compare_with_unit_step(ts, horizon, offsets)
        if resumptions is None:
            too_short += 1
            continue
        compared += 1
        preempted += resumptions > 0
    assert (compared, preempted, too_short) == (1962, 1054, 38)


def test_simulator_matches_unit_step_schedule_rate_monotonic():
    # Harmonic sets in rate-monotonic order: a short top period leaves a
    # long free list, and the sparse lower levels walk far along it between
    # jobs.  Some sets are overloaded, jitter on about a third of the tasks.
    rng = Rng(4096)
    compared = preempted = too_short = 0
    for _ in range(300):
        periods = [rng.randint(2, 4)]
        while len(periods) < 6 and periods[-1] * 16 <= 1024:
            periods.append(periods[-1] * rng.randint(2, 16))
        rows = []
        for i, period in enumerate(periods):
            wcet = rng.randint(1, period // 2) if i == 0 else rng.randint(1, 3)
            jitter = rng.randint(1, period - 1) if rng.randint(0, 2) == 0 else 0
            rows.append((period, wcet, jitter))
        ts = mk(rows, relaxed=True)
        offsets = tuple(rng.randint(0, t.jitter) for t in ts)
        horizon = rng.randint(periods[-1], 4096)
        resumptions = _compare_with_unit_step(ts, horizon, offsets)
        if resumptions is None:
            too_short += 1
            continue
        compared += 1
        preempted += resumptions > 0
    assert (compared, preempted, too_short) == (296, 219, 4)


def remaining_wcet(ts, task_id):
    for t in ts:
        if t.id == task_id:
            return t.wcet
    raise KeyError(task_id)


def test_response_times_are_per_task_maxima(table1):
    trace = simulate(table1, SimConfig(horizon=360))
    for task_id, worst in trace.response_times.items():
        observed = max(j.response for j in trace.jobs if j.task_id == task_id)
        assert worst == observed


def test_trace_order_facts():
    # The trace order (release, finish, task id) is also the order of a
    # stable sort on release alone: equal-release jobs finish in priority
    # order.  Checked on non-harmonic sets, some overloaded, with random
    # offsets and up to 12 tasks (so "t10" < "t2" by id).
    rng = Rng(5150)
    checked = overloaded = wide = 0
    for k in range(300):
        n = rng.randint(1, 12)
        rows = []
        for _ in range(n):
            period = rng.randint(3, 30)
            wcet = rng.randint(1, max(1, min(period,
                                             period * (1 + k % 3) // (2 * n))))
            rows.append((period, wcet, rng.randint(0, period - 1)))
        ts = mk(rows, relaxed=True)
        offsets = tuple(rng.randint(0, t.jitter) for t in ts)
        horizon = max(t.period for t in ts) * rng.randint(1, 4)
        try:
            trace = simulate(ts, SimConfig(horizon, offsets))
        except HorizonTooShort:
            continue
        checked += 1
        overloaded += ts.total_utilization >= 1
        wide += n >= 10
        assert list(trace.jobs) == sorted(trace.jobs, key=itemgetter(3, 5, 0))
        priority = {t.id: t.priority for t in ts}
        for a, b in zip(trace.jobs, trace.jobs[1:]):
            if a.release == b.release:
                assert priority[a.task_id] < priority[b.task_id]
        assert list(trace.response_times) == [t.id for t in ts]
        for t in ts:
            worst = max(j.response for j in trace.jobs if j.task_id == t.id)
            assert trace.response_times[t.id] == worst
    assert (checked, overloaded, wide) == (218, 13, 19)


def test_simulation_matches_staged_on_critical_instant():
    rng = Rng(7777)
    for _ in range(40):
        n = rng.randint(2, 5)
        periods = [rng.randint(2, 8)]
        for _ in range(n - 1):
            periods.append(periods[-1] * rng.randint(1, 3))
        periods.reverse()
        rows = [[t, rng.randint(1, max(1, t // (n + 1))), 0] for t in periods]
        ts = mk(rows, relaxed=True)
        if ts.total_utilization >= 1:
            continue
        target = len(ts) - 1
        plain, _ = wcrt_harmonic(ts, target)
        horizon = max(periods[0], int(plain.wcrt) + 1)
        trace = simulate(ts, SimConfig(horizon=horizon))
        assert trace.first_response(ts[target].id) == plain.wcrt


def _no_build(self):
    raise RuntimeError("job records built")


def _no_maxima(levels):
    raise RuntimeError("maxima built")


def _no_idle(starts, ends):
    raise RuntimeError("idle intervals built")


def _forbid_trace_builds(monkeypatch):
    monkeypatch.setattr(JobRecords, "_records", property(_no_build))
    monkeypatch.setattr(simulator, "_maxima", _no_maxima)
    monkeypatch.setattr(simulator, "_idle", _no_idle)


def test_job_count_and_first_response_build_no_record(table1, monkeypatch):
    # The benchmark op's reads: job count, preemptions, first responses.
    _forbid_trace_builds(monkeypatch)
    trace = simulate(table1, SimConfig(horizon=360))
    count = len(trace.jobs)
    preemptions = trace.preemption_count
    firsts = {t.id: trace.first_response(t.id) for t in table1}
    for field, message in (("response_times", "maxima built"),
                           ("idle_intervals", "idle intervals built")):
        with pytest.raises(RuntimeError, match=message):
            getattr(trace, field)
    with pytest.raises(RuntimeError, match="job records built"):
        trace.jobs[0]
    monkeypatch.undo()
    assert count == simulation_job_count(table1, 360) == len(list(trace.jobs))
    assert firsts == {job.task_id: job.response for job in trace.jobs
                      if job.job_index == 0}
    assert preemptions == unit_step_schedule(table1, 360, (0,) * 6)[1]


def test_job_count_counts_each_offset_release():
    # Offset 5 releases t1 at 0, 5 and 15 below horizon 20, one job more
    # than ceil(20/10); t2 releases once.
    ts = mk([(10, 1, 5), (20, 2, 0)])
    assert simulation_job_count(ts, 20, (5, 0)) == 4
    assert len(simulate(ts, SimConfig(20, (5, 0))).jobs) == 4
    assert simulation_job_count(ts, 20) == simulation_job_count(
        ts, 20, (0, 0)) == len(simulate(ts, SimConfig(20)).jobs) == 3


def test_shipped_callers_build_no_record_maxima_or_idle(table1, tmp_path,
                                                        monkeypatch, capsys):
    # analyze --method simulate and oracle-cross-check read only the job
    # count and first responses.
    _forbid_trace_builds(monkeypatch)
    path = write_task_file(tmp_path / "table1.json", table1)
    assert main(["analyze", "--input", path, "--method", "simulate",
                 "--target", "all"]) == 0
    assert capsys.readouterr().out.count(",simulate,") == len(table1)
    rows = oracle_cross_check(sets=5, max_tasks=6, seed=1)
    assert all(row.agree and "simulate" in row.methods for row in rows)


def test_trace_fields_are_kept_and_compared_by_value(table1):
    offsets = tuple(t.jitter for t in table1)
    trace = simulate(table1, SimConfig(360, offsets))
    for field in ("jobs", "response_times", "idle_intervals"):
        assert getattr(trace, field) is getattr(trace, field)
    assert trace.jobs[0] is trace.jobs[0]
    twin = simulate(table1, SimConfig(360, offsets))
    assert trace == twin and not trace != twin
    assert trace != simulate(table1, SimConfig(360))
    assert trace != tuple(trace.jobs)
    # Traces that differ from `trace` in one field each, the job field by
    # one start.
    levels = dict(trace.jobs._levels)
    off, releases, starts, finishes = levels["t1"]
    levels["t1"] = off, releases, [starts[0] + 1, *starts[1:]], finishes
    (begin, end), *idle = trace.idle_intervals
    fields = (JobRecords(levels, len(trace.jobs)),
              {**trace.response_times, "t1": trace.response_times["t1"] + 1},
              trace.preemption_count + 1, ((begin + 1, end), *idle))
    same = (trace.jobs, trace.response_times, trace.preemption_count,
            trace.idle_intervals)
    assert SimTrace(*same) == trace
    for k in range(4):
        variant = SimTrace(*same[:k], fields[k], *same[k + 1:])
        differing = [field for field in ("jobs", "response_times",
                                         "preemption_count", "idle_intervals")
                     if getattr(variant, field) != getattr(trace, field)]
        assert len(differing) == 1
        assert variant != trace and not variant == trace
    with pytest.raises(TypeError, match="unhashable type: 'SimTrace'"):
        hash(trace)
    # Read-only before and after the deferred fields are first read.
    fresh = simulate(table1, SimConfig(360, offsets))
    for target in (fresh, trace):
        for field in ("jobs", "response_times", "preemption_count",
                      "idle_intervals", "anything"):
            with pytest.raises(FrozenInstanceError):
                setattr(target, field, None)
            with pytest.raises(FrozenInstanceError):
                delattr(target, field)
    assert fresh == trace


def test_job_records_read_as_their_tuple(table1):
    offsets = tuple(t.jitter for t in table1)
    expected = tuple(unit_step_schedule(table1, 360, offsets)[0])
    # A first read by a negative index builds the whole sequence.
    jobs = simulate(table1, SimConfig(360, offsets)).jobs
    assert jobs[-1] == expected[-1]
    assert isinstance(jobs, Sequence)
    assert len(jobs) == len(expected) == 34
    assert jobs[0] == expected[0]
    assert jobs[-len(jobs)] == expected[0]
    assert jobs[3:9] == expected[3:9]
    assert jobs[::-5] == expected[::-5]
    with pytest.raises(IndexError):
        jobs[len(jobs)]
    assert list(jobs) == list(expected)
    assert jobs.index(expected[7]) == 7
    # Equal to the built tuple both ways round, and to a second trace's jobs;
    # unequal to any other sequence.
    assert jobs == expected and expected == jobs
    assert not jobs != expected and not expected != jobs
    assert jobs != expected[:-1] and expected[:-1] != jobs
    assert jobs != list(expected)
    assert jobs == simulate(table1, SimConfig(360, offsets)).jobs
    assert jobs != simulate(table1, SimConfig(360)).jobs
    assert repr(jobs) == repr(tuple(jobs))
    assert repr(jobs).startswith("(Job(task_id='t1', job_index=0, arrival=-8,")


def test_first_response_unknown_task(table1):
    trace = simulate(table1, SimConfig(horizon=360))
    with pytest.raises(KeyError, match="no first job recorded for task 'nope'"):
        trace.first_response("nope")
