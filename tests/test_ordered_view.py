"""The ordered view shared by back-to-back analyses of one task set."""

import copy
from fractions import Fraction

import pytest

from harmonic_rta import (
    Rng,
    TaskSet,
    brute_force_feasibility,
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
from harmonic_rta.model import OrderedView, ordered_view
from conftest import mk
from oracles import classify_gamma


@pytest.fixture
def constructions(monkeypatch):
    """A list that grows by one on every OrderedView construction."""
    built = []
    real_init = OrderedView.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(OrderedView, "__init__", counting_init)
    return built


def _corpus(seed, count, jitter_mode):
    rng = Rng(seed)
    return [random_analysis_set(rng, max_tasks=10, jitter_mode=jitter_mode)
            for _ in range(count)]


def _analyses(ts, k):
    """Every analysis of target k, as thunks in a fixed order."""
    steps = [
        lambda: pi_order(ts, k),
        lambda: wcrt_fixed_point_jitter(ts, k),
        lambda: wcrt_uniform_jitter(ts, k, shared_jitter(ts, k)),
        lambda: wcrt_uniform_jitter(ts, k, Fraction(7, 3)),
        lambda: wcrt_jitter_bounds(ts, k),
    ]
    if not any(t.jitter for t in ts.tasks[:k + 1]):
        suffix = pi_order(ts, k).cumulative_wcet
        halves = [Fraction(w) / 2 for w in suffix]
        steps += [
            lambda: wcrt_harmonic(ts, k),
            lambda: wcrt_fixed_point(ts, k),
            lambda: wcrt_exclusion_model(ts, k),
            lambda: wcrt_with_delays(ts, k, suffix),
            lambda: wcrt_with_delays(ts, k, halves),
        ]
    if k > 0:
        feas = solve_feasibility(ts, k)
        steps += [lambda: solve_feasibility(ts, k),
                  lambda: check_restricted_jitter(ts, k)]
        if feas.is_feasible:
            steps.append(lambda: wcrt_virtual_jitter(ts, k, feas))
    return steps


def _reprs(ts):
    return [repr(step()) for k in range(len(ts)) for step in _analyses(ts, k)]


def test_one_set_builds_one_view_for_the_plain_methods(constructions):
    ts = mk([(60, 6, 0), (60, 8, 0), (30, 4, 0), (360, 13, 0), (120, 7, 0)])
    for k in range(len(ts)):
        before = len(constructions)
        wcrt_harmonic(ts, k)
        wcrt_fixed_point(ts, k)
        wcrt_exclusion_model(ts, k)
        assert len(constructions) - before == 1


def _orders_agree(ts, target):
    """Whether period ties by jitter and by priority give one order."""
    hp = ts.tasks[:target]
    by_jitter = sorted(range(target),
                       key=lambda i: (-hp[i].period, hp[i].jitter, i))
    by_priority = sorted(range(target), key=lambda i: (-hp[i].period, i))
    return by_jitter == by_priority


def test_jitter_corpus_op_builds_its_two_orders_once(constructions):
    # The benchmark's jitter-corpus op: the WCRT order (period ties by
    # jitter) and the shift solver's order (period ties by priority), one
    # view when the two orders agree.
    built = []
    for ts in _corpus(20260818, 100, "constrained"):
        target = len(ts) - 1
        before = len(constructions)
        wcrt_fixed_point_jitter(ts, target)
        feas = solve_feasibility(ts, target)
        if feas.is_feasible:
            wcrt_virtual_jitter(ts, target, feas)
        if check_restricted_jitter(ts, target):
            order = pi_order(ts, target).order
            wcrt_uniform_jitter(ts, target, ts[order[-1]].jitter)
        wcrt_jitter_bounds(ts, target)
        built.append(len(constructions) - before)
        assert built[-1] == (1 if _orders_agree(ts, target) else 2)
    assert set(built) == {1, 2}


def test_shared_views_change_no_result(table1):
    # One view serves both tie orders when they agree, whichever order an
    # analysis asks for first; the results must be those of cold calls.
    evict = mk([(10, 1, 0)])
    agree = differ = 0
    for ts in _corpus(20260818, 300, "constrained") + [table1]:
        for k in range(1, len(ts)):
            steps = _analyses(ts, k)
            cold = []
            for step in steps:
                ordered_view(evict, 0)
                cold.append(repr(step()))
            for first in (lambda: wcrt_fixed_point_jitter(ts, k),
                          lambda: solve_feasibility(ts, k)):
                ordered_view(evict, 0)
                first()
                assert [repr(step()) for step in steps] == cold
                shared = ordered_view(ts, k) is ordered_view(
                    ts, k, jitter_ties=False)
                assert shared == _orders_agree(ts, k)
            agree += shared
            differ += not shared
    assert agree > 100 and differ > 100


def test_bounds_are_the_uniform_jitter_runs_at_the_extremes():
    rng = Rng(20260818)
    cases = [random_analysis_set(rng, max_tasks=10, jitter_mode="constrained")
             for _ in range(2000)]
    rng = Rng(2718)
    for _ in range(300):
        n = rng.randint(2, 6)
        periods = [rng.randint(2, 12)]
        for _ in range(n - 1):
            periods.append(periods[-1] * rng.randint(1, 3))
        periods.reverse()
        ts = mk([(t, Fraction(rng.randint(1, 3 * t), 3 * n),
                  rng.randint(0, t - 1)) for t in periods], relaxed=True)
        if ts.total_utilization < 1:
            cases.append(ts)
    checked = 0
    for ts in cases:
        for k in range(len(ts)):
            jitters = [t.jitter for t in ts.tasks[:k]] or [0]
            expected = tuple(repr(wcrt_uniform_jitter(ts, k, j)[0].wcrt)
                             for j in (min(jitters), max(jitters)))
            assert tuple(map(repr, wcrt_jitter_bounds(ts, k))) == expected
            checked += 1
    assert checked > 10_000


def test_interleaved_sets_give_the_results_of_separate_runs():
    sets = (_corpus(20260817, 100, "none")
            + _corpus(20260818, 100, "constrained"))
    separate = [_reprs(ts) for ts in sets]
    evict = mk([(10, 1, 0)])

    def cold(step):
        ordered_view(evict, 0)      # drops the views of the last set
        return repr(step())

    fresh = [[cold(step) for k in range(len(ts)) for step in _analyses(ts, k)]
             for ts in sets]
    assert separate == fresh
    interleaved = [[] for _ in sets]
    for a in range(0, len(sets), 2):
        steps = [[step for k in range(len(sets[i])) for step in
                  _analyses(sets[i], k)] for i in (a, a + 1)]
        for n in range(max(map(len, steps))):
            for i, own in zip((a, a + 1), steps):
                if n < len(own):
                    interleaved[i].append(repr(own[n]()))
    assert interleaved == separate
    assert sum(map(len, separate)) > 10_000


def test_rational_extras_build_unshared_views():
    ts = mk([(40, 3, 0), (20, 2, 0), (10, 1, 0), (40, 5, 0)])
    k = len(ts) - 1
    suffix = pi_order(ts, k).cumulative_wcet
    halves = [Fraction(w, 2) for w in suffix]

    def rational():
        return (repr(wcrt_uniform_jitter(ts, k, Fraction(7, 3))),
                repr(wcrt_with_delays(ts, k, halves)))

    def integer():
        return (repr(wcrt_uniform_jitter(ts, k, 2)),
                repr(wcrt_with_delays(ts, k, suffix)),
                repr(wcrt_harmonic(ts, k)))

    first = rational()
    plain = integer()
    assert rational() == first
    assert integer() == plain
    copy_ts = TaskSet(ts.tasks, ts.total_utilization)
    assert plain == (repr(wcrt_uniform_jitter(copy_ts, k, 2)),
                     repr(wcrt_with_delays(copy_ts, k, suffix)),
                     repr(wcrt_harmonic(copy_ts, k)))

    shared = ordered_view(ts, k)
    assert ordered_view(ts, k, extra=(2,)) is shared
    assert ordered_view(ts, k, extra=tuple(suffix)) is shared
    scaled = ordered_view(ts, k, extra=(Fraction(7, 3),))
    assert scaled is not shared and scaled.scale == 3
    assert ordered_view(ts, k, extra=(Fraction(7, 3),)) is not scaled
    assert ordered_view(ts, k) is shared


def test_bad_targets_raise_every_time():
    ts = mk([(20, 2, 0), (10, 1, 0)])
    ordered_view(ts, 1)
    for _ in range(2):
        with pytest.raises(IndexError):
            ordered_view(ts, 2)
        with pytest.raises(IndexError):
            ordered_view(ts, -1)
        # 1.0 == 1, but a float is no index, cached view or not.
        with pytest.raises(TypeError):
            pi_order(ts, 1.0)
        with pytest.raises(TypeError):
            check_restricted_jitter(ts, Fraction(1))


def _fields(view):
    return {name: copy.deepcopy(getattr(view, name))
            for name in OrderedView.__slots__}


@pytest.mark.parametrize("rows", [
    [(60, 6, 0), (60, 8, 0), (30, 4, 0), (360, 13, 0), (120, 7, 0),
     (360, 12, 0)],
    [(240, 1, 167), (120, 50, 119), (120, 50, 0), (20, 1, 0), (10, 1, 0),
     (240, 3, 0)],
    [(40, Fraction(7, 3), 5), (20, Fraction(9, 2), 1), (10, 1, 0),
     (40, Fraction(1, 6), 2)],
])
def test_analyses_leave_cached_views_unchanged(rows):
    ts = mk(rows, relaxed=True)
    keys = [(k, ties) for k in (None, *range(len(ts)))
            for ties in (True, False)]
    views = {key: ordered_view(ts, *key) for key in keys}
    for view in views.values():
        view.rates()
    before = {key: _fields(view) for key, view in views.items()}
    for k in range(len(ts)):
        for step in _analyses(ts, k):
            step()
        if k > 0:
            brute_force_feasibility(ts, k)
        for i in range(1, k):
            classify_gamma(ts, k, i)
    solve_feasibility(ts)
    for key, view in views.items():
        assert ordered_view(ts, *key) is view
        assert _fields(view) == before[key]
