"""Golden check of the simulator's complete output.

Each group below runs ``simulate`` (or ``adversarial_response``) over a fixed
input stream and hashes the ``repr`` of every returned trace: every job's
arrival, release, start and finish, the per-task maxima in key order, the
preemption count and the idle intervals.  A raised error is recorded by its
type name and message.  The digests were recorded on the event-heap
simulator, before level-by-level placement replaced it, and must never be
regenerated to make a change pass.
"""

import hashlib
from fractions import Fraction

import pytest

from harmonic_rta import (
    Rng,
    SimConfig,
    first_job_sim_horizon,
    random_analysis_set,
    simulate,
    simulation_job_count,
    wcrt_harmonic,
)
from conftest import mk
from oracles import adversarial_response

PLAIN_SETS = 500
JITTER_SETS = 300
SIM_JOB_CAP = 20_000


def _record(lines, fn, *args):
    try:
        result = fn(*args)
    except (RuntimeError, ValueError) as exc:
        lines.append(f"raise {type(exc).__name__}: {exc}")
        return None
    lines.append(repr(result))
    return result


def _plain_corpus_sets():
    """The plain acceptance stream with its first-job horizons."""
    rng = Rng(20260817)
    for _ in range(PLAIN_SETS):
        while True:
            ts = random_analysis_set(rng, max_tasks=12)
            result, _ = wcrt_harmonic(ts, len(ts) - 1)
            horizon = first_job_sim_horizon(ts, result.wcrt)
            if simulation_job_count(ts, horizon) <= SIM_JOB_CAP:
                break
        yield ts, horizon


def _plain_corpus_lines():
    """The plain acceptance stream at its first-job horizons."""
    lines = []
    for ts, horizon in _plain_corpus_sets():
        _record(lines, simulate, ts, SimConfig(horizon=horizon))
    return lines


def _offset_patterns(ts, rng):
    return (tuple(t.jitter for t in ts),
            tuple(rng.randint(0, t.jitter) for t in ts),
            None)


def _jitter_lines():
    """Constrained-jitter sets: offsets at the jitters, random or none, at
    the largest period and twice it (some first jobs miss the horizon)."""
    rng = Rng(20260818)
    offset_rng = Rng(31337)
    lines = []
    for _ in range(JITTER_SETS):
        ts = random_analysis_set(rng, max_tasks=10, jitter_mode="constrained")
        longest = max(t.period for t in ts)
        for offsets in _offset_patterns(ts, offset_rng):
            for horizon in (longest, 2 * longest):
                _record(lines, simulate, ts, SimConfig(horizon, offsets))
    return lines


def _relaxed_lines():
    """Non-harmonic and overloaded (U >= 1) sets with random offsets."""
    rng = Rng(9090)
    lines = []
    overloaded = 0
    for k in range(400):
        rows = []
        for _ in range(rng.randint(1, 5)):
            period = rng.randint(3, 30)
            wcet = rng.randint(1, max(1, period // (1 + k % 3)))
            rows.append((period, wcet, rng.randint(0, period - 1)))
        ts = mk(rows, relaxed=True)
        overloaded += ts.total_utilization >= 1
        longest = max(t.period for t in ts)
        offsets = tuple(rng.randint(0, t.jitter) for t in ts)
        horizon = longest * rng.randint(1, 4)
        _record(lines, simulate, ts, SimConfig(horizon, offsets))
        _record(lines, simulate, ts, SimConfig(horizon))
    lines.append(f"overloaded {overloaded}")
    return lines


TABLE1_ROWS = [(60, 6, 8), (60, 8, 0), (30, 4, 9), (360, 13, 7), (120, 7, 3),
               (360, 12, 9)]


def _reference_lines():
    """Table-1 schedules, the adversarial scan, and every rejected input."""
    ts = mk(TABLE1_ROWS)
    jitters = tuple(t.jitter for t in ts)
    lines = []
    for horizon in (360, 720):
        _record(lines, simulate, ts, SimConfig(horizon))
        _record(lines, simulate, ts, SimConfig(horizon, jitters))
    for i in range(len(ts)):
        _record(lines, adversarial_response, ts, i, SimConfig(720))
    bad_offsets = list(jitters)
    bad_offsets[0] += 1
    _record(lines, simulate, ts, SimConfig(720, tuple(bad_offsets)))
    _record(lines, simulate, ts, SimConfig(720, (0,)))
    _record(lines, simulate, ts, SimConfig(359))
    _record(lines, simulate, ts, SimConfig(720, None, "random"))
    rational = mk([(10, Fraction(3, 2), 0), (20, 2, 0)], relaxed=True)
    _record(lines, simulate, rational, SimConfig(20))
    packed = mk([(10, 4, 8), (20, 9, 0)])
    _record(lines, simulate, packed, SimConfig(20, (8, 0)))
    return lines


GOLDEN = {
    "plain-corpus": ((500, "4e4473e4a3f160309e1831626c592a0d69ffb58325b3b2e997b540e8452af560"),
                     _plain_corpus_lines),
    "constrained-jitter": ((1800, "6a3e04eb3874a90d53a45bd98d88293b4932056e0729dec59e4fd26a353ebf3e"),
                           _jitter_lines),
    "relaxed": ((801, "32e7b2ddaa549197f24c53dd94f910b0141289c0fd79f00fd847d29a2c7b87da"),
                _relaxed_lines),
    "reference": ((16, "778c47a43962a4a8e54dc22b50e25255b12cf5f82f8409ad946d5f29b32d953b"),
                  _reference_lines),
}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_traces_match_golden_digest(group):
    (count, digest), make_lines = GOLDEN[group]
    lines = make_lines()
    assert len(lines) == count
    assert _digest(lines) == digest



def test_first_responses_match_built_first_jobs():
    # Read before the job records exist, then checked against them.
    for ts, horizon in _plain_corpus_sets():
        trace = simulate(ts, SimConfig(horizon=horizon))
        firsts = {task.id: trace.first_response(task.id) for task in ts}
        assert firsts == {job.task_id: job.finish - job.release
                          for job in trace.jobs if job.job_index == 0}
