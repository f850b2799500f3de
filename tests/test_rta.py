"""Fixed-point oracle: frozen scan values, trace shape, nested-ceiling identity."""

import math
from fractions import Fraction

import pytest

import harmonic_rta.rta as rta
from harmonic_rta import (
    DomainError,
    NonConvergent,
    Rng,
    Task,
    nested_ceil,
    validate,
    wcrt_fixed_point,
    wcrt_fixed_point_jitter,
    wcrt_harmonic,
)
from conftest import TABLE1_WCRTS, brute_wcrt, mk


def test_single_task():
    ts = mk([(10, 6, 0)])
    assert wcrt_fixed_point(ts, 0).wcrt == 6


def test_two_hp_tasks_frozen_scan():
    # Frozen by the brute demand scan: demand(7) = 1 + 2*ceil(7/8) + 2*ceil(7/4) = 7.
    ts = mk([(8, 2, 0), (4, 2, 0), (8, 1, 0)])
    result = wcrt_fixed_point(ts, 2)
    assert result.wcrt == 7
    assert result.wcrt == brute_wcrt(ts, 2)


def test_two_hp_tasks_frozen_scan_b():
    # demand(6) = 2 + 1*ceil(6/8) + 1*ceil(6/2) = 6, and demand(t) > t below.
    ts = mk([(8, 1, 0), (2, 1, 0), (8, 2, 0)])
    result = wcrt_fixed_point(ts, 2)
    assert result.wcrt == 6
    assert result.wcrt == brute_wcrt(ts, 2)


def test_table1_jitter_aware(table1):
    assert wcrt_fixed_point_jitter(table1, 1).wcrt == 14
    assert wcrt_fixed_point_jitter(table1, 5).wcrt == 72
    for i, expected in enumerate(TABLE1_WCRTS):
        result = wcrt_fixed_point_jitter(table1, i)
        assert result.wcrt == expected
        assert result.schedulable
        assert result.margin == table1[i].deadline - table1[i].jitter - expected


def test_zero_jitter_reduces_to_plain(table1):
    zeroed = mk([(t.period, t.wcet, 0, t.deadline) for t in table1])
    for i in range(len(zeroed)):
        assert (wcrt_fixed_point(zeroed, i).wcrt
                == wcrt_fixed_point_jitter(zeroed, i).wcrt)


def test_trace_shape(table1):
    for i in range(len(table1)):
        result = wcrt_fixed_point_jitter(table1, i)
        trace = result.trace
        assert all(a <= b for a, b in zip(trace, trace[1:]))
        assert trace[-1] == trace[-2]
        assert result.wcrt >= table1[i].wcet
        assert result.iterations == len(trace) - 1


def test_jitter_never_decreases_wcrt(table1):
    for i in range(len(table1)):
        assert (wcrt_fixed_point_jitter(table1, i).wcrt
                >= wcrt_fixed_point(table1, i).wcrt)


def test_non_convergent_on_saturated_hp():
    a = Task(period=2, wcet=1, deadline=2, jitter=0, priority=1)
    b = Task(period=4, wcet=2, deadline=4, jitter=0, priority=2)
    c = Task(period=4, wcet=1, deadline=4, jitter=0, priority=3)
    ts = validate([a, b, c], relaxed=True)
    with pytest.raises(NonConvergent):
        wcrt_fixed_point(ts, 2)
    with pytest.raises(NonConvergent):
        wcrt_fixed_point_jitter(ts, 2)


def test_iteration_cap_raises_non_convergent(monkeypatch):
    # The fixed point 7 takes 3 steps from the weighted start 4.
    ts = mk([(8, 2, 0), (4, 2, 0), (8, 1, 0)])
    assert wcrt_fixed_point(ts, 2).iterations == 3
    monkeypatch.setattr(rta, "MAX_ITERATIONS", 1)
    with pytest.raises(NonConvergent) as info:
        wcrt_fixed_point(ts, 2)
    assert str(info.value) == "no fixed point after 1 steps"


def test_fixed_point_and_staged_share_the_overload_message():
    # Higher-priority utilization 1/2 + 3/4 = 5/4.
    ts = validate([Task(2, 1, 2, 0, 1), Task(4, 3, 4, 0, 2),
                   Task(4, 1, 4, 0, 3)], relaxed=True)
    messages = set()
    for fn in (wcrt_fixed_point, wcrt_harmonic):
        with pytest.raises(NonConvergent) as info:
            fn(ts, 2)
        messages.add(str(info.value))
    assert messages == {
        "higher-priority utilization 5/4 >= 1: no fixed point exists"}


def test_start_above_the_weighted_lower_bound_is_rejected():
    # Plain: WCRT 15 and weighted lower bound C_n/(1 - U_hp) = 5/(1/2) = 10;
    # from 21 the iteration would stop at the larger fixed point 22.
    plain = mk([(10, 3, 0), (20, 4, 0), (40, 5, 0)])
    # Jittered: the jitter-aware bound (5 + 3/10*2 + 4/20*4)/(1/2) = 64/5
    # lies above the plain one, 10.
    jittered = mk([(10, 3, 2), (20, 4, 4), (40, 5, 0)])
    # A rational wcet (view scale 2): bound 5/(1 - 3/20 - 1/5) = 100/13.
    rational = mk([(10, Fraction(3, 2), 0), (20, 4, 0), (40, 5, 0)],
                  relaxed=True)
    both = (wcrt_fixed_point, wcrt_fixed_point_jitter)
    cases = [
        (plain, both, (None, 5, 7, Fraction(19, 2), 10), 15,
         (21, Fraction(21, 2)), "10"),
        (jittered, (wcrt_fixed_point_jitter,), (12, Fraction(64, 5)), 15,
         (13,), "64/5"),
        (jittered, (wcrt_fixed_point,), (), None, (12, Fraction(64, 5)),
         "10"),
        (rational, both, (Fraction(100, 13),), 12, (Fraction(201, 26),),
         "100/13"),
    ]
    for ts, fns, accepted, wcrt, rejected, bound in cases:
        for fn in fns:
            for start in accepted:
                assert fn(ts, 2, start=start).wcrt == wcrt
            for start in rejected:
                with pytest.raises(ValueError, match=f"^start {start} is "
                                   f"above the weighted lower bound {bound} "):
                    fn(ts, 2, start=start)


@pytest.mark.parametrize("fn", [wcrt_fixed_point, wcrt_fixed_point_jitter])
@pytest.mark.parametrize("start", [1.5, 100.0, "3", True])
def test_start_must_be_an_int_or_a_fraction(fn, start):
    ts = mk([(10, 3, 0), (20, 4, 0), (40, 5, 0)])
    with pytest.raises(ValueError, match="^start must be an int or a "
                                         f"Fraction, got {start!r}$"):
        fn(ts, 2, start=start)


def test_random_sets_match_brute_scan():
    rng = Rng(101)
    for _ in range(150):
        n = rng.randint(2, 5)
        periods = [rng.randint(2, 4)]
        for _ in range(n - 1):
            periods.append(periods[-1] * rng.randint(1, 3))
        periods.reverse()                      # non-increasing with priority
        rows = []
        for k, t in enumerate(periods):
            jitter = rng.randint(0, t - 1)
            rows.append([t, 1, jitter])
        ts = mk(rows, relaxed=True)
        if ts.total_utilization >= 1:
            continue
        target = len(ts) - 1
        assert wcrt_fixed_point(ts, target).wcrt == brute_wcrt(ts, target)
        assert (wcrt_fixed_point_jitter(ts, target).wcrt
                == brute_wcrt(ts, target, jittered=True))


def test_nested_ceil_frozen():
    assert nested_ceil(Fraction(3, 2), Fraction(3, 2)) == 2
    assert nested_ceil(Fraction(1, 2), Fraction(5, 2)) == 3
    assert nested_ceil(2, 2) == 2


def test_nested_ceil_domain():
    with pytest.raises(DomainError):
        nested_ceil(0, 1)
    with pytest.raises(DomainError):
        nested_ceil(3, 2)
    with pytest.raises(DomainError):
        nested_ceil(Fraction(-1, 2), 2)


def test_nested_ceil_random_pairs():
    rng = Rng(77)
    for _ in range(2000):
        z = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 3))
        x = z * Fraction(rng.randint(1, 10 ** 6), 10 ** 6)
        assert 0 < x <= z
        assert nested_ceil(x, z) == math.ceil(z)
