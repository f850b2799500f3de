"""The ordered view shared by back-to-back analyses of one task set."""

import contextlib
import copy
import random
from fractions import Fraction

import pytest

import harmonic_rta.model as model
import harmonic_rta.rta as rta
from harmonic_rta import (
    NonConvergent,
    Rng,
    Task,
    TaskSet,
    brute_force_feasibility,
    check_restricted_jitter,
    pi_order,
    random_analysis_set,
    solve_feasibility,
    validate,
    wcrt_exclusion_model,
    wcrt_fixed_point,
    wcrt_fixed_point_jitter,
    wcrt_harmonic,
    wcrt_jitter_bounds,
    wcrt_uniform_jitter,
    wcrt_virtual_jitter,
    wcrt_with_delays,
)
from harmonic_rta.cli import METHODS
from harmonic_rta.experiments import method_result
from harmonic_rta.feasibility import FEASIBLE, FeasibilityResult
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


PER_TARGET = {
    "pi_order": pi_order,
    "wcrt_fixed_point": wcrt_fixed_point,
    "wcrt_fixed_point_jitter": wcrt_fixed_point_jitter,
    "wcrt_harmonic": wcrt_harmonic,
    "wcrt_uniform_jitter": lambda ts, k: wcrt_uniform_jitter(ts, k, 0),
    "wcrt_uniform_jitter_rational":
        lambda ts, k: wcrt_uniform_jitter(ts, k, Fraction(7, 3)),
    "wcrt_jitter_bounds": wcrt_jitter_bounds,
    "wcrt_exclusion_model": wcrt_exclusion_model,
    "wcrt_with_delays": lambda ts, k: wcrt_with_delays(ts, k, ()),
    "shared_jitter": shared_jitter,
    "check_restricted_jitter": check_restricted_jitter,
    "solve_feasibility": solve_feasibility,
    "brute_force_feasibility": brute_force_feasibility,
    "wcrt_virtual_jitter": lambda ts, k: wcrt_virtual_jitter(
        ts, k, FeasibilityResult(FEASIBLE, (1,), 0, None, ())),
    **{f"method_result[{method}]":
       lambda ts, k, method=method: method_result(ts, k, method)
       for method in METHODS if method != "simulate"},
}


@pytest.mark.parametrize("jittered", [True, False],
                         ids=["jittered", "jitter-free"])
@pytest.mark.parametrize("past_end", [True, False], ids=["n", "-1"])
@pytest.mark.parametrize("name", sorted(PER_TARGET))
def test_out_of_range_targets_raise_index_error(name, past_end, jittered,
                                                 table1):
    # Every analysis checks the index before it scans for jitter or reads
    # the target.
    ts = table1 if jittered else mk(
        [(t.period, t.wcet, 0, t.deadline) for t in table1])
    k = len(ts) if past_end else -1
    with pytest.raises(IndexError, match=f"^target index {k} out of range$"):
        PER_TARGET[name](ts, k)


@pytest.mark.parametrize("method", ["simulate", "fixed_point", ""])
def test_method_result_rejects_unknown_names(method, table1):
    with pytest.raises(ValueError, match=f"^unknown method '{method}'; "
                       "expected one of harmonic, .*, virtual-jitter$"):
        method_result(table1, 1, method)


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
        # The whole-set view of the second row set has utilization 1.
        with contextlib.suppress(NonConvergent):
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


def test_rates_raise_on_every_call_when_overloaded():
    # Higher-priority utilization 1/2 + 1/2 = 1 before the third task.
    ts = mk([(2, 1, 0), (4, 2, 0), (8, 1, 0)], relaxed=True)
    message = "^higher-priority utilization 1 >= 1: no fixed point exists$"
    overloaded = ordered_view(ts, 2)
    for _ in range(2):
        with pytest.raises(NonConvergent, match=message):
            overloaded.rates()
    view = ordered_view(ts, 1)
    rates = view.rates()
    assert rates == (2, [1], 1)
    assert view.rates() is rates
    assert rta.NonConvergent is model.NonConvergent is NonConvergent
    assert issubclass(NonConvergent, ArithmeticError)


def _reference_order(ts, target, jitter_ties):
    """The view order by a sort on (-period, jitter, index) or (-period,
    index)."""
    hp = range(len(ts)) if target is None else range(target)
    if jitter_ties:
        return sorted(hp, key=lambda i: (-ts[i].period, ts[i].jitter, i))
    return sorted(hp, key=lambda i: (-ts[i].period, i))


def _tie_heavy_sets():
    """Strict harmonic sets with long equal-period runs, and relaxed
    non-harmonic sets with rational wcets; periods in random priority
    order."""
    rng = random.Random(31337)
    sets = []
    for k in range(400):
        n = rng.randint(1, 9)
        if k % 2:
            periods = [rng.choice((6, 7, 10, 15)) for _ in range(n)]
            rows = [(t, Fraction(rng.randint(1, 7), 7 * n),
                     rng.randint(0, 2)) for t in periods]
            relaxed = True
        else:
            periods = [rng.choice((8, 16, 16, 32, 32, 32)) for _ in range(n)]
            # Jitters from a narrow range give tied and untied runs.
            rows = [(t, 1, rng.choice((0, 0, 1, 3))) for t in periods]
            relaxed = False
        ts = mk(rows, relaxed=relaxed)
        if relaxed or ts.total_utilization < 1:
            sets.append(ts)
    return sets


def test_view_order_matches_a_reference_sort():
    evict = mk([(10, 1, 0)])
    checked = ties = 0
    for ts in _tie_heavy_sets():
        for target in (None, *range(len(ts))):
            for first in (True, False):
                # Each tie order built cold, then taken from the store
                # after the other one.
                ordered_view(evict, 0)
                for jitter_ties in (first, not first):
                    view = ordered_view(ts, target, jitter_ties)
                    order = _reference_order(ts, target, jitter_ties)
                    assert list(view.order) == order
                    scale = view.scale
                    assert view.periods == tuple(ts[i].period * scale
                                                 for i in order)
                    assert view.jitters == tuple(ts[i].jitter * scale
                                                 for i in order)
                    assert view.wcets == tuple(int(ts[i].wcet * scale)
                                               for i in order)
                    checked += 1
            ties += any(a.period == b.period and a.jitter == b.jitter
                        for a in ts.tasks[:target] for b in ts.tasks[:target]
                        if a is not b)
    assert checked > 5000 and ties > 300


def test_views_share_on_941_of_1464_jitter_corpus_targets():
    shared = total = 0
    for ts in _corpus(20260818, 300, "constrained"):
        for k in range(1, len(ts)):
            same = ordered_view(ts, k) is ordered_view(ts, k,
                                                       jitter_ties=False)
            assert same == _orders_agree(ts, k)
            shared += same
            total += 1
    assert (shared, total) == (941, 1464)


def test_priorities_are_indices_plus_one():
    # The views read a task's index off its priority.
    rng = random.Random(4)
    for relaxed in (False, True):
        for _ in range(200):
            n = rng.randint(1, 8)
            priorities = list(range(1, n + 1))
            rng.shuffle(priorities)
            periods = [2 ** rng.randint(4, 6) for _ in priorities]
            tasks = [Task(period=t, wcet=1, deadline=t, priority=p)
                     for t, p in zip(periods, priorities)]
            ts = validate(tasks, relaxed=relaxed)
            assert [t.priority for t in ts] == list(range(1, n + 1))
    for ts in (_corpus(20260817, 100, "none")
               + _corpus(20260818, 100, "unconstrained")):
        assert [t.priority for t in ts] == list(range(1, len(ts) + 1))
