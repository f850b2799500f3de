"""Deferred fields built on first read equal the fields built with the run.

The staged methods return the WCRT, margin and ceiling count of one run
and rebuild the stage values only when `RtaResult.trace` or
`HarmonicIterationTrace.stage_values` is read.  The fixed points (the
classic and jitter-aware ones, the exclusion model and the delayed
demand) rebuild their iterates the same way.  The references here build
every stage value or iterate during the run, as the methods once did.  A
simulated `SimTrace` builds its response maxima and idle intervals the
same way.
"""

import pickle
import threading
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from harmonic_rta import (
    GenConfig,
    HarmonicIterationTrace,
    Rng,
    RtaResult,
    SimConfig,
    cmd_analyze,
    generate_with_target,
    oracle_cross_check,
    pi_order,
    random_analysis_set,
    simulate,
    solve_feasibility,
    wcrt_exclusion_model,
    wcrt_fixed_point,
    wcrt_fixed_point_jitter,
    wcrt_harmonic,
    wcrt_uniform_jitter,
    wcrt_virtual_jitter,
    wcrt_with_delays,
)
from harmonic_rta import harmonic, rta, simulator
from harmonic_rta.experiments import EXACT_METHODS, method_values
from harmonic_rta.feasibility import _feasibility_view
from harmonic_rta.harmonic import _staged_fixed_point, shared_jitter
from harmonic_rta.model import ordered_view
from conftest import write_task_file


def _eager(view, const, jitter, budget, early_stop=True):
    """(RtaResult, HarmonicIterationTrace) with every stage value built
    during the run."""
    values = []
    _staged_fixed_point(view, const, jitter, early_stop, values)
    values = tuple(values)
    wcrt = values[-1]
    margin = budget - wcrt
    stages = len(values)
    return (RtaResult(wcrt, stages - 1, values, margin >= 0, margin),
            HarmonicIterationTrace(
                values, stages - 1,
                stages if stages <= len(view.periods) else None))


def _eager_fixed_point(view, offsets, start, budget):
    """The RtaResult of t = C_n + sum C_i*ceil((t - O_i)/T_i), offsets in
    view units, with every iterate built during the run."""
    if start is None:
        # The weighted start (C_n - sum U_i*O_i)/(1 - U_hp), task units.
        lcm, unum, total = view.rates()
        start = Fraction(view.target_wcet * lcm - sum(
            u * offset for u, offset in zip(unum, offsets)),
            (lcm - total) * view.scale)
        if start.denominator == 1:
            start = start.numerator
    num, den = start.numerator * view.scale, start.denominator
    cur = -(-num // den)
    values = []
    while True:
        nxt = view.target_wcet + sum(
            wcet * -((offset - cur) // period)
            for period, wcet, offset in zip(view.periods, view.wcets, offsets))
        values.append(nxt)
        # A start that is not an integer is no fixed point.
        if nxt == cur and (num % den == 0 or len(values) > 1):
            break
        cur = nxt
    trace = (start, *view.unscaled(values))
    wcrt = trace[-1]
    margin = budget - wcrt
    return RtaResult(wcrt, len(values), trace, margin >= 0, margin), None


def _fixed_point_cases(ts, k):
    """(method, call, eager reference) for every fixed point that applies
    to target k."""
    target = ts[k]
    view = ordered_view(ts, k)
    zeros = (0,) * len(view.order)
    start = Fraction(target.wcet, 3)
    cases = [
        ("fixed-point", lambda: (wcrt_fixed_point(ts, k), None),
         _eager_fixed_point(view, zeros, None, target.deadline)),
        ("fixed-point", lambda: (wcrt_fixed_point(ts, k, start), None),
         _eager_fixed_point(view, zeros, start, target.deadline)),
        ("fixed-point-jitter", lambda: (wcrt_fixed_point_jitter(ts, k), None),
         _eager_fixed_point(view, tuple(-j for j in view.jitters), None,
                            target.deadline - target.jitter))]
    if not any(t.jitter for t in ts.tasks[:k + 1]):
        cases.append((
            "exclusion", lambda: (wcrt_exclusion_model(ts, k), None),
            _eager_fixed_point(view, view.suffix_wcet, target.wcet,
                               target.deadline)))
        delta = [Fraction(c, 2) for c in pi_order(ts, k).cumulative_wcet]
        delayed = ordered_view(ts, k, extra=delta)
        cases.append((
            "with-delays", lambda: (wcrt_with_delays(ts, k, delta), None),
            _eager_fixed_point(delayed, [delayed.scaled(d) for d in delta],
                               target.wcet, target.deadline)))
    return cases


def _cases(ts, k):
    """(method, call, eager reference) for every staged method and every
    fixed point that applies to target k."""
    target = ts[k]
    cases = _fixed_point_cases(ts, k)
    if not any(t.jitter for t in ts.tasks[:k + 1]):
        view = ordered_view(ts, k)
        for early_stop in (True, False):
            cases.append((
                "harmonic",
                lambda early_stop=early_stop: wcrt_harmonic(ts, k, early_stop),
                _eager(view, view.target_wcet, 0, target.deadline,
                       early_stop)))
    jitter = shared_jitter(ts, k)
    view = ordered_view(ts, k, extra=(jitter,))
    cases.append(("uniform", lambda: wcrt_uniform_jitter(ts, k, jitter),
                  _eager(view, view.target_wcet, view.scaled(jitter),
                         target.deadline - target.jitter)))
    if k > 0:
        feas = solve_feasibility(ts, k)
        if feas.is_feasible:
            vjmax = feas.virtual_jitter_max
            view = _feasibility_view(ts, k, extra=(vjmax,))
            const = view.target_wcet - sum(
                m * w for m, w in zip(feas.m, view.wcets))
            eager = _eager(view, const, view.scaled(vjmax),
                           target.deadline - target.jitter)
            cases.append((
                "virtual", lambda: (wcrt_virtual_jitter(ts, k, feas), None),
                (eager[0], None)))
    return cases


def _sets(table1, walkthrough):
    sets = [table1, walkthrough]
    for seed, mode in ((20260817, "none"), (20260818, "constrained")):
        rng = Rng(seed)
        sets += [random_analysis_set(rng, max_tasks=10, jitter_mode=mode)
                 for _ in range(300)]
    # Rational wcets, whose fixed points return Fractions.
    rng = Rng(20260819)
    sets += [generate_with_target(
        GenConfig(rng.randint(1, 8), Fraction(rng.randint(5, 90), 100),
                  factor_range=(1, 3), integer_wcets=False), rng)
        for _ in range(40)]
    return sets


def _same(lazy, eager):
    """Each comparison on a fresh pair, so every one meets an unbuilt
    trace; the pair's trace is then read last."""
    checks = (repr, hash, lambda obj: obj,
              lambda obj: pickle.loads(pickle.dumps(obj)))
    for check in checks:
        result, trace = lazy()
        assert check(result) == check(eager[0])
        if trace is not None:
            assert check(trace) == check(eager[1])
        assert result.trace == eager[0].trace


def test_deferred_traces_equal_eager_ones(table1, walkthrough):
    runs = dict.fromkeys(("harmonic", "uniform", "virtual", "fixed-point",
                          "fixed-point-jitter", "exclusion", "with-delays"),
                         0)
    for ts in _sets(table1, walkthrough):
        for k in range(len(ts)):
            for method, call, eager in _cases(ts, k):
                runs[method] += 1
                _same(call, eager)
                # The trace read first, then everything else.
                result, trace = call()
                values = result.trace
                assert values == eager[0].trace
                assert result.trace is values
                assert repr(result) == repr(eager[0])
                assert result == eager[0] and hash(result) == hash(eager[0])
                if trace is not None:
                    assert trace.stage_values is values
                    assert repr(trace) == repr(eager[1])
    assert min(runs.values()) > 1000, runs


def test_stage_values_read_first_share_the_trace(table1):
    result, trace = wcrt_uniform_jitter(table1, 5, 8)
    values = trace.stage_values
    assert result.trace is values and trace.stage_values is values
    back_result, back_trace = pickle.loads(pickle.dumps((result, trace)))
    assert back_trace.stage_values is back_result.trace
    assert back_result == result and back_trace == trace


def test_deferred_fields_stay_read_only(table1):
    result, trace = wcrt_uniform_jitter(table1, 5, 8)
    with pytest.raises(FrozenInstanceError):
        result.trace = ()
    with pytest.raises(FrozenInstanceError):
        del trace.stage_values
    with pytest.raises(AttributeError, match="'RtaResult' object has no "
                                             "attribute 'stages'"):
        result.stages
    assert type(result) is RtaResult
    assert result.trace == trace.stage_values


def test_threads_reading_one_trace_get_one_tuple(table1, monkeypatch):
    # Two threads miss `response_times` at once and both build it.  The
    # builder holds the second one until the first one's read has
    # returned, so the second stores last; it must still return the
    # first one's value.
    cfg = SimConfig(360, tuple(t.jitter for t in table1))
    reference = simulate(table1, cfg)
    expected = reference.response_times
    both_inside = threading.Barrier(2, timeout=10)
    first_read = threading.Event()
    build = simulator._maxima

    def held_build(levels):
        value = build(levels)
        if both_inside.wait():
            assert first_read.wait(timeout=10)
        return value

    monkeypatch.setattr(simulator, "_maxima", held_build)
    sim = simulate(table1, cfg)
    seen = []

    def read():
        seen.append(sim.response_times)
        first_read.set()

    workers = [threading.Thread(target=read) for _ in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert len(seen) == 2 and seen[0] is seen[1] is sim.response_times
    assert seen[0] == expected and seen[0] is not expected
    # The other deferred field is still pending, and built once.
    assert "idle_intervals" not in vars(sim)
    assert sim.idle_intervals is sim.idle_intervals == reference.idle_intervals


def test_sim_traces_survive_pickle(table1):
    offsets = tuple(t.jitter for t in table1)
    built = simulate(table1, SimConfig(360, offsets))
    text = repr(built)
    for read_first in (False, True):
        trace = simulate(table1, SimConfig(360, offsets))
        if read_first:
            trace.response_times, trace.idle_intervals
        else:
            assert not {"response_times", "idle_intervals"} & set(vars(trace))
        back = pickle.loads(pickle.dumps(trace))
        assert back == trace == built and not back != built
        assert repr(back) == repr(trace) == text


@pytest.fixture
def stage_value_runs(monkeypatch):
    """A list that grows by one on every staged run that builds stage
    values."""
    runs = []
    real = harmonic._staged_fixed_point

    def counting(view, const, jitter, early_stop=True, stage_values=None):
        if stage_values is not None:
            runs.append(view)
        return real(view, const, jitter, early_stop, stage_values)

    monkeypatch.setattr(harmonic, "_staged_fixed_point", counting)
    return runs


def test_method_values_builds_no_stage_value(stage_value_runs, table1):
    plain = random_analysis_set(Rng(20260817), max_tasks=10)
    values = method_values(plain, len(plain) - 1, False)
    assert "harmonic" in values
    # Table 1, task t2: jittered, feasible and restricted, so both staged
    # jitter methods run.
    assert set(method_values(table1, 1, True)) == {
        "fixed-point-jitter", "virtual-jitter", "uniform-jitter"}
    assert stage_value_runs == []
    wcrt_harmonic(plain, len(plain) - 1)[0].trace
    assert len(stage_value_runs) == 1


@pytest.fixture
def iterate_runs(monkeypatch):
    """A list that grows by one on every fixed-point run that builds its
    iterates."""
    runs = []
    real = rta._kleene

    def counting(view, offsets, num, den, iterates=None):
        if iterates is not None:
            runs.append(view)
        return real(view, offsets, num, den, iterates)

    monkeypatch.setattr(rta, "_kleene", counting)
    return runs


def test_shipped_paths_build_no_fixed_point_trace(iterate_runs,
                                                  stage_value_runs, table1,
                                                  tmp_path):
    plain = random_analysis_set(Rng(20260817), max_tasks=10)
    assert set(method_values(plain, len(plain) - 1, False)) == {
        "harmonic", "fixed-point", "exclusion"}
    assert set(method_values(table1, 1, True)) == {
        "fixed-point-jitter", "virtual-jitter", "uniform-jitter"}
    files = {write_task_file(tmp_path / "plain.json", plain): EXACT_METHODS,
             write_task_file(tmp_path / "table1.json", table1): (
                 "fixed-point-jitter", "virtual-jitter", "uniform-jitter")}
    for path, methods in files.items():
        for method in (*methods, "simulate"):
            report = cmd_analyze(path, method, cross_validate=True,
                                 deterministic=True)
            assert report.rows
    for jittered in (False, True):
        rows = oracle_cross_check(sets=3, max_tasks=6, jittered=jittered,
                                  seed=1)
        assert len(rows) == 3 and all(row.agree for row in rows)
    assert iterate_runs == [] and stage_value_runs == []


def test_fixed_point_trace_is_built_once(iterate_runs, table1):
    result = wcrt_fixed_point_jitter(table1, 5)
    assert iterate_runs == [] and "trace" not in vars(result)
    trace = result.trace
    assert len(iterate_runs) == 1
    assert result.trace is trace and len(iterate_runs) == 1
    assert trace[-2:] == (72, 72) and trace[-1] == result.wcrt
