"""Staged linear-time WCRT: stage traces, jitter variants, shifted demand."""

import math
from fractions import Fraction

import pytest

from harmonic_rta import (
    DeltaOutOfRange,
    JitterPresent,
    Rng,
    check_restricted_jitter,
    pi_order,
    random_analysis_set,
    solve_feasibility,
    wcrt_exclusion_model,
    wcrt_fixed_point,
    wcrt_fixed_point_jitter,
    wcrt_harmonic,
    wcrt_jitter_bounds,
    wcrt_uniform_jitter,
    wcrt_virtual_jitter,
    wcrt_with_delays,
)
from harmonic_rta.harmonic import shared_jitter
from conftest import TABLE1_WCRTS, brute_wcrt, mk


def test_staged_values_frozen():
    # Stage values hand-evaluated against the brute scan: base 1/(1-3/4)=4,
    # then 6, then the fixed point 7.
    ts = mk([(8, 2, 0), (4, 2, 0), (8, 1, 0)])
    result, trace = wcrt_harmonic(ts, 2)
    assert trace.stage_values == (4, 6, 7)
    assert result.wcrt == 7 == brute_wcrt(ts, 2)
    assert trace.ceil_evals == 2
    assert trace.early_stop_stage is None


def test_early_stop_on_period_multiple():
    # Base value 4/(1-1/2)=8 is a multiple of both hp periods: no
    # refinement can move it.
    ts = mk([(8, 2, 0), (4, 1, 0), (16, 4, 0)])
    result, trace = wcrt_harmonic(ts, 2)
    assert result.wcrt == 8 == brute_wcrt(ts, 2)
    assert trace.stage_values == (8,)
    assert trace.ceil_evals == 0
    assert trace.early_stop_stage == 1
    full, full_trace = wcrt_harmonic(ts, 2, early_stop=False)
    assert full.wcrt == 8
    assert full_trace.early_stop_stage is None


def test_single_task_zero_stages():
    ts = mk([(10, 5, 0)])
    result, trace = wcrt_harmonic(ts, 0)
    assert result.wcrt == 5
    assert trace.stage_values == (5,)
    assert trace.ceil_evals == 0


def test_rejects_jitter():
    ts = mk([(8, 2, 3), (8, 1, 0)])
    with pytest.raises(JitterPresent):
        wcrt_harmonic(ts, 1)
    with pytest.raises(JitterPresent):
        wcrt_exclusion_model(ts, 1)
    with pytest.raises(JitterPresent):
        wcrt_with_delays(ts, 1, [0])


def test_uniform_jitter_stage_values(table1):
    result, trace = wcrt_uniform_jitter(table1, 1, 8)
    assert trace.stage_values == (Fraction(88, 9), 14)
    assert result.wcrt == 14
    result, trace = wcrt_uniform_jitter(table1, 2, 8)
    assert trace.stage_values == (Fraction(176, 23), Fraction(128, 9), 18)
    assert result.wcrt == 18


def test_uniform_jitter_zero_equals_plain():
    ts = mk([(8, 2, 0), (4, 2, 0), (8, 1, 0)])
    plain, _ = wcrt_harmonic(ts, 2)
    jittered, _ = wcrt_uniform_jitter(ts, 2, 0)
    assert plain.wcrt == jittered.wcrt == 7


def test_uniform_jitter_rejects_negative(table1):
    with pytest.raises(ValueError):
        wcrt_uniform_jitter(table1, 2, -1)


@pytest.mark.parametrize("value", [1.5, 0.5, "2", True])
@pytest.mark.parametrize("call, what", [
    (lambda ts, v: wcrt_uniform_jitter(ts, 1, v), "uniform jitter"),
    (lambda ts, v: wcrt_with_delays(ts, 1, [v]), r"delta\[0\]"),
], ids=["uniform-jitter", "delta"])
def test_time_arguments_must_be_ints_or_fractions(call, what, value):
    # Floats and strings used to fail inside the view build with
    # AttributeError or TypeError, and True passed as 1.
    ts = mk([(10, 2, 0), (20, 3, 0)])
    with pytest.raises(ValueError, match=f"^{what} must be an int or a "
                                         f"Fraction, got {value!r}$"):
        call(ts, value)


def test_uniform_jitter_matches_oracle_with_shared_jitter():
    # Setting every higher-priority jitter to the shared J must reproduce the
    # jitter-aware fixed point exactly.
    rng = Rng(13)
    for _ in range(100):
        n = rng.randint(2, 6)
        periods = [10]
        for _ in range(n - 1):
            periods.append(periods[-1] * rng.randint(1, 3))
        periods.reverse()
        rows = [[t, 1, 0] for t in periods]
        ts = mk(rows, relaxed=True)
        if ts.total_utilization >= 1:
            continue
        target = len(ts) - 1
        shared = rng.randint(0, min(periods[:-1]) - 1)
        result, _ = wcrt_uniform_jitter(ts, target, shared)
        oracle_rows = [[t, 1, shared] for t in periods[:-1]]
        oracle_rows.append([periods[-1], 1, 0])
        oracle = mk(oracle_rows, relaxed=True)
        assert result.wcrt == wcrt_fixed_point_jitter(oracle, target).wcrt


def test_jitter_bounds_table1(table1):
    low, high = wcrt_jitter_bounds(table1, 5)
    exact = wcrt_fixed_point_jitter(table1, 5).wcrt
    assert low <= exact <= high
    assert exact == 72


def test_jitter_bounds_degenerate():
    ts = mk([(20, 2, 5), (10, 1, 5), (20, 1, 0)])
    low, high = wcrt_jitter_bounds(ts, 2)
    assert low == high
    single = mk([(10, 2, 0), (10, 1, 0)])
    low, high = wcrt_jitter_bounds(single, 1)
    plain, _ = wcrt_harmonic(single, 1)
    assert low == high == plain.wcrt
    alone = mk([(10, 4, 0)])
    low, high = wcrt_jitter_bounds(alone, 0)
    assert low == high == 4
    assert repr(low) == "Fraction(4, 1)"
    # The first task of a relaxed set with rational wcets: its own wcet.
    relaxed = mk([(10, Fraction(7, 3), 2), (5, Fraction(1, 2), 1)],
                 relaxed=True)
    low, high = wcrt_jitter_bounds(relaxed, 0)
    assert repr(low) == repr(high) == "Fraction(7, 3)"


def test_exclusion_model_matches_plain():
    ts = mk([(8, 2, 0), (4, 2, 0), (8, 1, 0)])
    assert wcrt_exclusion_model(ts, 2).wcrt == 7
    single = mk([(10, 2, 0), (10, 1, 0)])
    assert (wcrt_exclusion_model(single, 1).wcrt
            == wcrt_harmonic(single, 1)[0].wcrt)


def test_exclusion_model_table1_zeroed(table1):
    zeroed = mk([(t.period, t.wcet, 0, t.deadline) for t in table1])
    for i in range(len(zeroed)):
        assert (wcrt_exclusion_model(zeroed, i).wcrt
                == wcrt_harmonic(zeroed, i)[0].wcrt)


def test_with_delays_boundary_cases():
    ts = mk([(8, 2, 0), (4, 2, 0), (8, 1, 0)])
    pi = pi_order(ts, 2)
    plain, _ = wcrt_harmonic(ts, 2)
    assert wcrt_with_delays(ts, 2, [0] * len(pi.order)).wcrt == plain.wcrt
    assert wcrt_with_delays(ts, 2, list(pi.cumulative_wcet)).wcrt == plain.wcrt


def test_with_delays_random_within_bounds():
    ts = mk([(8, 2, 0), (4, 2, 0), (8, 1, 0)])
    pi = pi_order(ts, 2)
    rng = Rng(5)
    for _ in range(50):
        delta = [Fraction(rng.randint(0, 1000), 1000) * w
                 for w in pi.cumulative_wcet]
        assert wcrt_with_delays(ts, 2, delta).wcrt == 7


def test_with_delays_out_of_range():
    ts = mk([(8, 2, 0), (4, 2, 0), (8, 1, 0)])
    pi = pi_order(ts, 2)
    bad = list(pi.cumulative_wcet)
    bad[0] += 1
    with pytest.raises(DeltaOutOfRange):
        wcrt_with_delays(ts, 2, bad)
    with pytest.raises(DeltaOutOfRange):
        wcrt_with_delays(ts, 2, [0])


def test_restricted_jitter_predicate():
    # pi order: (100, J=5) then (10, J=6); the last jitter is 6 and the first
    # must lie in [6 - 1, 6].
    ts = mk([(100, 1, 5), (10, 1, 6), (100, 1, 0)])
    assert check_restricted_jitter(ts, 2) is True
    uniform = mk([(100, 1, 6), (10, 1, 6), (100, 1, 0)])
    assert check_restricted_jitter(uniform, 2) is True


def test_restricted_jitter_false_on_table1(table1):
    # Target task 3: pi jitters are 0 then 8; 0 < 8 - 6 fails the window.
    assert check_restricted_jitter(table1, 2) is False


def test_staged_equals_fixed_point_random():
    rng = Rng(31415)
    for _ in range(300):
        n = rng.randint(2, 8)
        periods = [rng.randint(2, 10)]
        for _ in range(n - 1):
            periods.append(periods[-1] * rng.randint(1, 4))
        periods.reverse()
        rows = [[t, 1, 0] for t in periods]
        ts = mk(rows, relaxed=True)
        if ts.total_utilization >= 1:
            continue
        for target in range(1, n):
            staged, trace = wcrt_harmonic(ts, target)
            assert staged.wcrt == wcrt_fixed_point(ts, target).wcrt
            assert trace.ceil_evals <= target
            assert len(trace.stage_values) - 1 == trace.ceil_evals
            nostop, _ = wcrt_harmonic(ts, target, early_stop=False)
            assert nostop.wcrt == staged.wcrt


def test_priority_swap_of_equal_periods_keeps_wcrt():
    a = mk([(60, 6, 0), (60, 8, 0), (30, 4, 0), (60, 5, 0)])
    b = mk([(60, 8, 0), (60, 6, 0), (30, 4, 0), (60, 5, 0)])
    ra, _ = wcrt_harmonic(a, 3)
    rb, _ = wcrt_harmonic(b, 3)
    assert ra.wcrt == rb.wcrt


def _staged_fractions(ts, target):
    """Every stage value, wcrt and margin the staged methods return for
    one target."""
    results = [
        wcrt_uniform_jitter(ts, target, shared_jitter(ts, target))[0],
        wcrt_uniform_jitter(ts, target, Fraction(7, 3), early_stop=False)[0],
    ]
    if not any(t.jitter for t in ts.tasks[:target + 1]):
        results += [wcrt_harmonic(ts, target)[0],
                    wcrt_harmonic(ts, target, early_stop=False)[0]]
    elif target:
        feas = solve_feasibility(ts, target)
        if feas.is_feasible:
            results.append(wcrt_virtual_jitter(ts, target, feas))
    for result in results:
        yield from result.trace
        yield result.margin


def test_staged_values_are_reduced_fractions():
    # The staged path builds its Fractions without Fraction's own
    # normalization, so an unreduced pair would compare unequal to the
    # same value built normally.  The acceptance streams are analysed at
    # their last task, as in the acceptance corpora; relaxed sets with
    # rational wcets at every task.
    cases = []
    plain, jittered = Rng(20260817), Rng(20260818)
    for _ in range(2000):
        for ts in (random_analysis_set(plain, max_tasks=12),
                   random_analysis_set(jittered, max_tasks=10,
                                       jitter_mode="constrained")):
            cases.append((ts, len(ts) - 1))
    rng = Rng(2718)
    for _ in range(300):
        n = rng.randint(2, 6)
        periods = [rng.randint(2, 12)]
        for _ in range(n - 1):
            periods.append(periods[-1] * rng.randint(1, 3))
        periods.reverse()
        ts = mk([(t, Fraction(rng.randint(1, 3 * t), 3 * n), 0)
                 for t in periods], relaxed=True)
        if ts.total_utilization < 1:
            cases.extend((ts, target) for target in range(n))
    checked = thirds = 0
    for ts, target in cases:
        for value in _staged_fractions(ts, target):
            expected = Fraction(value.numerator, value.denominator)
            assert type(value) is Fraction
            assert value.denominator > 0
            assert math.gcd(value.numerator, value.denominator) == 1
            assert value == expected
            assert repr(value) == repr(expected)
            assert hash(value) == hash(expected)
            checked += 1
            thirds += value.denominator % 3 == 0
    assert checked > 100_000
    assert thirds > 10_000
