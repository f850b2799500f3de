"""Shift-count solver: worked example, brute-force agreement, virtual-jitter WCRT."""

import hashlib
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import harmonic_rta
import harmonic_rta.experiments as experiments
from harmonic_rta import (
    FeasibilityResult,
    Rng,
    Task,
    brute_force_feasibility,
    check_restricted_jitter,
    solve_feasibility,
    validate,
    wcrt_fixed_point_jitter,
    wcrt_harmonic,
    wcrt_uniform_jitter,
    wcrt_virtual_jitter,
)
from harmonic_rta.experiments import HeuristicQualityRow
from harmonic_rta.feasibility import (
    FEASIBLE,
    INFEASIBLE,
    Branch,
    InfeasibleInput,
    brute_force_last_values,
    satisfies_constraints,
    solve_feasibility_arrays,
)
from conftest import mk, write_task_file
from oracles import classify_gamma


def test_worked_example(walkthrough):
    fr = solve_feasibility(walkthrough, None)
    assert fr.is_feasible
    assert fr.m == (1, 3, 4, 24, 48)
    assert fr.virtual_jitter_max == 480
    assert fr.bound_trace[0] == (410, 500)
    assert fr.bound_trace[1] == (480, 500)
    assert fr.bound_trace[-1] == (480, 480)
    assert len(fr.branches) == 1
    branch = fr.branches[0]
    assert branch.stage == 2
    assert (branch.diff_lower, branch.diff_upper) == (0, 20)
    assert branch.chosen == "upper"


def test_single_hp_task():
    ts = mk([(10, 3, 4)])
    fr = solve_feasibility(ts, None)
    assert fr.is_feasible
    assert fr.m == (1,)
    assert fr.virtual_jitter_max == 4 + 10
    assert fr.failure_stage is None
    assert fr.bound_trace == ((10, 10),)
    assert fr.branches == ()
    # A rational jitter scales the view; windows stay in time units.
    fr = solve_feasibility_arrays((10,), (3,), (Fraction(7, 2),))
    assert repr(fr) == repr(FeasibilityResult(
        "feasible", (1,), Fraction(27, 2), None, ((10, 10),)))


def test_infeasible_pair_frozen():
    # Brute force over m_2 shows no integer hits the window at stage 1.
    fr = solve_feasibility_arrays((100, 10), (1, 1), (55, 0))
    assert not fr.is_feasible
    assert fr.failure_stage == 1
    assert fr.bound_trace == ((160, 150),)
    assert fr.branches == ()
    # Stage 3 (period 4, jitter 2) needs m >= 4 to stay above the window's
    # lower end 16 and m <= 3 to stay below its upper end 16: no count fits,
    # so the trace stops at stage 2's window.
    fr = solve_feasibility_arrays((8, 4, 4, 2), (1, 1, 1, 1), (7, 1, 2, 1))
    assert repr(fr) == repr(FeasibilityResult(
        "infeasible", None, None, 3, ((14, 16), (16, 16)),
        (Branch(2, 3, 4, 0, 0, "upper"),)))


def test_feasible_pair_frozen():
    # Unique solution from the brute scan: m = (1, 15), shifted max 150.
    fr = solve_feasibility_arrays((100, 10), (1, 1), (50, 0))
    assert fr.is_feasible
    assert fr.m == (1, 15)
    assert fr.virtual_jitter_max == 150
    values, witnesses = brute_force_last_values((100, 10), (1, 1), (50, 0), 40)
    assert values == [15]
    assert witnesses == [(1, 15)]


@pytest.mark.parametrize("periods, jitters, m", [
    ((2, 2, 2, 2, 2, 1), (0, 1, 1, 0, 1, 0), (1, 0, 0, 2, 1, 4)),
    ((2, 2, 2, 2, 2, 2, 1), (0, 0, 1, 1, 1, 0, 0), (1, 0, 0, 0, 1, 2, 4)),
    ((2, 2, 1, 1, 1, 1, 1), (1, 1, 0, 0, 0, 0, 0), (1, 0, 0, 4, 4, 4, 4)),
])
def test_greedy_never_keeps_a_negative_shift_count(periods, jitters, m):
    # U >= 1 on raw arrays.  Without the clamp at 0 the greedy kept a
    # count of -1, and its self-check raised although brute force has a
    # witness.
    wcets = (1,) * len(periods)
    fr = solve_feasibility_arrays(periods, wcets, jitters)
    assert fr.is_feasible and fr.m == m
    assert satisfies_constraints(periods, wcets, jitters, m)
    assert min(b.lower_m for b in fr.branches) == 0
    assert m[-1] in brute_force_last_values(periods, wcets, jitters, 10)[0]


def test_greedy_clamps_the_lower_window_to_the_current_one():
    # U = 3.75 on raw arrays.  The lower candidate's window at stages 2
    # and 3 reaches above the current upper bound, which clamps it.
    periods, wcets, jitters = (8, 4, 2, 2, 1), (2, 4, 1, 2, 1), (7, 3, 1, 1, 0)
    fr = solve_feasibility_arrays(periods, wcets, jitters)
    assert fr.is_feasible
    assert fr.m == (1, 5, 11, 11, 23)
    assert fr.virtual_jitter_max == 23
    assert fr.bound_trace == ((15, 23), (23, 23), (23, 23), (23, 23))
    assert fr.branches == (Branch(2, 2, 5, 0, 0, "upper"),
                           Branch(3, 10, 11, 0, 0, "upper"))
    assert satisfies_constraints(periods, wcets, jitters, fr.m)
    values, witnesses = brute_force_last_values(periods, wcets, jitters, 40)
    assert values[0] == 15
    assert witnesses[0] == (1, 2, 6, 7, 15)


def test_every_greedy_miss_in_a_small_sweep_has_a_witness(monkeypatch):
    # Every set heuristic_quality draws is feasible by construction, so
    # each infeasible verdict is a miss of the greedy branch rule; brute
    # force over the whole m_last box finds a witness for each.  As in
    # test_experiment_kernel_golden.py, the solver inputs, results and rows
    # are hashed; the digest was recorded before the overload check moved
    # into OrderedView.rates() and must never be regenerated.
    solve = experiments.solve_feasibility_arrays
    calls, lines = [], []

    def recorder(periods, wcets, jitters):
        result = solve(periods, wcets, jitters)
        calls.append((periods, wcets, jitters, result))
        lines.append(f"{tuple(periods)!r} {tuple(wcets)!r} "
                     f"{tuple(jitters)!r} {result!r}")
        return result

    monkeypatch.setattr(experiments, "solve_feasibility_arrays", recorder)
    rows = experiments.heuristic_quality(
        hp_count=6, sets_per_point=1000, grid=(Fraction(19, 20),), seed=0,
        jobs=1)
    assert rows == [HeuristicQualityRow(Fraction(19, 20), 1000, 6)]
    assert len(calls) == 1000
    lines += [repr(row) for row in rows]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "3fcb45715a5ff568701e9bf483bd2c9b9c055a36c2f31d168a16b29c91753be9")
    misses = [call for call in calls if not call[3].is_feasible]
    assert len(misses) == 6
    for periods, wcets, jitters, _ in misses:
        values, witnesses = brute_force_last_values(periods, wcets, jitters)
        assert values
        assert satisfies_constraints(periods, wcets, jitters, witnesses[0])


@pytest.mark.parametrize("periods, good, bad", [
    ((10, 5), (1, 3), (1,)),
    ((10,), (1,), (-1,)),
    ((10,), (1,), (1.0,)),
])
def test_constraints_reject_malformed_counts(periods, good, bad):
    # The negative and the float count meet every inequality; only the
    # count check rejects them.
    wcets, jitters = (1,) * len(periods), (5,) + (0,) * (len(periods) - 1)
    assert satisfies_constraints(periods, wcets, jitters, good)
    assert not satisfies_constraints(periods, wcets, jitters, bad)


@pytest.mark.parametrize("periods, jitters, message", [
    ((1, 1), (0, 2), r"jitters\[1\]=2 is outside \[0, 1\)"),
    ((10, 5), (0, 5), r"jitters\[1\]=5 is outside \[0, 5\)"),
    ((10, 5), (-1, 0), r"jitters\[0\]=-1 is outside \[0, 10\)"),
    ((10, 5), (Fraction(21, 2), 0), r"jitters\[0\]=21/2 is outside"),
    ((10, 5), (0, 7), r"jitters\[1\]=7 is outside \[0, 5\)"),
])
def test_arrays_reject_jitters_outside_the_period(periods, jitters, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        solve_feasibility_arrays(periods, (1, 1), jitters)
    with pytest.raises(ValueError, match=f"^{message}"):
        brute_force_last_values(periods, (1, 1), jitters, 3)


@pytest.mark.parametrize("periods, wcets, jitters, message", [
    ((10, 5), (1,), (0, 1),
     "periods, wcets and jitters have lengths 2, 1 and 2"),
    ((10,), (1, 1), (0, 0),
     "periods, wcets and jitters have lengths 1, 2 and 2"),
    ((), (), (), "need at least one task"),
    ((40.0, 20.0, 10.0, 10.0, 5.0), (1, 2, 1, 2, 2), (30, 12, 3, 1, 3),
     r"periods\[0\] must be an int, got 40\.0"),
    ((100, 10.0), (1, 1), (55, 0),
     r"periods\[1\] must be an int, got 10\.0"),
    ((10, 5), (1, 1.5), (0, 0),
     r"wcets\[1\] must be an int or a Fraction, got 1\.5"),
    ((10, 5), (True, 1), (0, 0),
     r"wcets\[0\] must be an int or a Fraction, got True"),
    ((10, 5), (1, 1), (0.5, 0),
     r"jitters\[0\] must be an int or a Fraction, got 0\.5"),
])
def test_arrays_need_one_length_and_a_task(periods, wcets, jitters, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve_feasibility_arrays(periods, wcets, jitters)
    with pytest.raises(ValueError, match=f"^{message}$"):
        brute_force_last_values(periods, wcets, jitters, 3)


def test_brute_force_on_worked_example(walkthrough):
    fr = brute_force_feasibility(walkthrough, None)
    assert fr.is_feasible
    assert fr.m[-1] == 48


def test_brute_force_infeasible():
    ts = mk([(100, 1, 55), (10, 1, 0)])
    assert not brute_force_feasibility(ts, None).is_feasible


def test_brute_force_single_task():
    ts = mk([(10, 1, 9)])
    assert brute_force_feasibility(ts, None).is_feasible


@pytest.mark.parametrize("jitter", [0, 4, 9])
def test_one_task_admits_only_m_last_one(jitter):
    # The one task is both the first (m_1 = 1) and the last one.
    assert brute_force_last_values((10,), (3,), (jitter,), 5) == ([1], [(1,)])
    assert brute_force_last_values((10,), (3,), (jitter,), 0) == ([], [])
    ts = mk([(10, 3, jitter), (20, 1, 0)])
    expected = FeasibilityResult(FEASIBLE, (1,), jitter + 10, None,
                                 ((10, 10),))
    assert brute_force_feasibility(ts, 1) == expected
    assert solve_feasibility(ts, 1) == expected


def _random_shift_rows(rng, relaxed):
    """Rows in solver order; relaxed rows may have rational wcets and
    a total utilization of 1 or more."""
    n = rng.randint(2, 6)
    periods = [rng.randint(n + 1, 24)]
    for _ in range(n - 1):
        periods.append(periods[-1] * rng.randint(1, 4))
    periods.reverse()
    rows = []
    for t in periods:
        if relaxed:
            wcet = Fraction(rng.randint(1, 3 * t), 3)
        else:
            wcet = rng.randint(1, t // (n + 1))
        rows.append((t, wcet, rng.randint(0, t - 1)))
    return rows


@pytest.mark.parametrize("relaxed", [False, True])
def test_brute_force_box_is_complete(relaxed):
    # The exact m_last box gives the same verdict and first witness as a
    # capped search of 8*T_1/T_last, at U < 1 and at U >= 1.
    rng = Rng(5150 + relaxed)
    seen = {True: 0, False: 0}
    overloaded = 0
    for _ in range(600):
        rows = _random_shift_rows(rng, relaxed)
        ts = mk(rows, relaxed=relaxed)
        overloaded += ts.total_utilization >= 1
        periods, wcets, jitters = (tuple(col) for col in zip(*rows))
        values, witnesses = brute_force_last_values(
            periods, wcets, jitters, 8 * (periods[0] // periods[-1]))
        fr = brute_force_feasibility(ts, None)
        assert fr.is_feasible == bool(values)
        seen[fr.is_feasible] += 1
        if values:
            assert fr.m == witnesses[0]
            assert fr.virtual_jitter_max == jitters[-1] + values[0] * periods[-1]
    assert min(seen.values()) >= 40
    assert (overloaded >= 40) == relaxed


def test_witness_satisfies_full_system(walkthrough):
    fr = solve_feasibility(walkthrough, None)
    periods = tuple(t.period for t in walkthrough)
    wcets = tuple(t.wcet for t in walkthrough)
    jitters = tuple(t.jitter for t in walkthrough)
    assert satisfies_constraints(periods, wcets, jitters, fr.m)
    assert not satisfies_constraints(periods, wcets, jitters,
                                     fr.m[:-1] + (fr.m[-1] + 1,))


def test_shift_system_dominates_per_task_demand(walkthrough):
    # Raising each jitter to J'_max while discarding m whole jobs never
    # loses interference, and the window constraints cap the surplus at
    # one job per period's worth of later-task wcet.  The last task's
    # shift is exact by construction.
    fr = solve_feasibility(walkthrough, None)
    j_max = fr.virtual_jitter_max
    wcets = [t.wcet for t in walkthrough]
    rng = Rng(4)
    for _ in range(200):
        t = Fraction(rng.randint(1, 10 ** 5), rng.randint(1, 100))
        for i, (task, m) in enumerate(zip(walkthrough, fr.m)):
            plain = math.ceil((t + task.jitter) / task.period)
            shifted = math.ceil((t + j_max) / task.period) - m
            surplus_cap = math.ceil(sum(wcets[i + 1:], 0) / task.period)
            assert plain <= shifted <= plain + surplus_cap
        last = walkthrough[-1]
        assert (math.ceil((t + j_max) / last.period) - fr.m[-1]
                == math.ceil((t + last.jitter) / last.period))


def test_solver_agrees_with_brute_random():
    rng = Rng(90210)
    feasible_seen = infeasible_seen = 0
    for _ in range(400):
        n = rng.randint(2, 6)
        periods = [rng.randint(2, 12)]
        for _ in range(n - 1):
            periods.append(periods[-1] * rng.randint(1, 4))
        periods.reverse()
        wcets = [rng.randint(1, max(1, t // n)) for t in periods]
        jitters = [rng.randint(0, t - 1) for t in periods]
        fr = solve_feasibility_arrays(tuple(periods), tuple(wcets),
                                      tuple(jitters))
        values, _ = brute_force_last_values(
            tuple(periods), tuple(wcets), tuple(jitters),
            4 * (periods[0] // periods[-1]))
        if fr.is_feasible:
            feasible_seen += 1
            assert fr.m[-1] in values
            assert satisfies_constraints(tuple(periods), tuple(wcets),
                                         tuple(jitters), fr.m)
        else:
            infeasible_seen += 1
            # The greedy branch pick may miss a feasible witness, but a
            # verdict of infeasible at stage 1 is branch-free and exact.
            if fr.failure_stage == 1:
                assert values == []
    assert feasible_seen > 20
    assert infeasible_seen > 20


def test_gamma_zero_when_jitters_equal():
    ts = mk([(100, 1, 7), (10, 2, 7), (10, 1, 7), (100, 1, 0)])
    case = classify_gamma(ts, 3, 2)
    assert case.jtilde == 0
    assert case.case_id == "Zero"


def test_gamma_both_impossible_when_wcets_small():
    # With C(i+1..) + C(i+2..) < T(i+1) the Both window [T-C(i+1..), C(i+2..)]
    # is empty for every jitter difference.
    rng = Rng(88)
    seen = set()
    for _ in range(300):
        j1 = rng.randint(0, 99)
        j2 = rng.randint(0, 9)
        ts = validate([
            Task(period=100, wcet=1, deadline=100, jitter=j1, priority=1),
            Task(period=10, wcet=2, deadline=10, jitter=j2, priority=2),
            Task(period=10, wcet=1, deadline=10, jitter=0, priority=3),
            Task(period=100, wcet=1, deadline=100, jitter=0, priority=4),
        ], relaxed=True)
        case = classify_gamma(ts, 3, 1)
        seen.add(case.case_id)
        assert case.case_id != "Both"
    assert "One" in seen or "Zero" in seen


def test_gamma_worked_example_stage1(walkthrough):
    case = classify_gamma(walkthrough, None, 1)
    assert case.jtilde == 72
    assert case.case_id == "One"


def test_virtual_jitter_wcrt_equals_oracle(walkthrough):
    rows = [(t.period, t.wcet, t.jitter) for t in walkthrough]
    ts = mk(list(rows) + [(240, 1, 0)])
    fr = solve_feasibility(ts, 5)
    assert fr.is_feasible
    result = wcrt_virtual_jitter(ts, 5, fr)
    assert result.wcrt == wcrt_fixed_point_jitter(ts, 5).wcrt


def test_virtual_jitter_single_hp_zero_jitter():
    ts = mk([(10, 2, 0), (10, 3, 0)])
    fr = solve_feasibility(ts, 1)
    result = wcrt_virtual_jitter(ts, 1, fr)
    plain, _ = wcrt_harmonic(ts, 1)
    assert result.wcrt == plain.wcrt


def test_virtual_jitter_rejects_unusable_solutions(walkthrough):
    rows = [(t.period, t.wcet, t.jitter) for t in walkthrough]
    ts = mk(list(rows) + [(240, 1, 0)])
    infeasible = FeasibilityResult(INFEASIBLE, None, None, 1, ())
    with pytest.raises(InfeasibleInput, match="^need a feasible shift"):
        wcrt_virtual_jitter(ts, 5, infeasible)
    short = FeasibilityResult(FEASIBLE, (1, 3), 480, None, ())
    with pytest.raises(InfeasibleInput,
                       match="^solution covers 2 tasks, target has 5$"):
        wcrt_virtual_jitter(ts, 5, short)


def test_restricted_jitter_equals_uniform_oracle():
    # Jitters built to satisfy the restricted window with the last pi task
    # maximal: the single-J staged run must equal the per-task oracle.
    rng = Rng(2718)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 6)
        periods = [rng.randint(3, 10)]
        for _ in range(n - 1):
            periods.append(periods[-1] * rng.randint(2, 4))
        periods.reverse()
        wcets = [max(1, t // (2 * n)) for t in periods]
        suffix = [0] * n
        for s in range(n - 2, -1, -1):
            suffix[s] = suffix[s + 1] + wcets[s + 1]
        j_last = rng.randint(0, periods[-2] - 1)
        jitters = []
        for k in range(n - 1):
            lo = max(0, j_last - suffix[k])
            jitters.append(rng.randint(lo, j_last))
        jitters[-1] = j_last
        rows = [[t, c, j] for t, c, j in zip(periods[:-1], wcets[:-1], jitters)]
        rows.append([periods[-1], wcets[-1], 0])
        ts = mk(rows, relaxed=True)
        if ts.total_utilization >= 1 or j_last >= periods[-2]:
            continue
        target = n - 1
        if not check_restricted_jitter(ts, target):
            continue
        checked += 1
        result, _ = wcrt_uniform_jitter(ts, target, j_last)
        assert result.wcrt == wcrt_fixed_point_jitter(ts, target).wcrt
    assert checked > 50


def test_failed_self_check_raises_under_optimize(tmp_path, walkthrough):
    # python -O strips asserts; the solver's check against the full shift
    # system must still reject a result, and the CLI must exit 2 with one
    # line on stderr.
    path = write_task_file(tmp_path / "five.json", walkthrough)
    script = textwrap.dedent(f"""
        import sys
        from harmonic_rta import feasibility, main
        feasibility.satisfies_constraints = lambda *args: False
        try:
            feasibility.solve_feasibility_arrays((100, 10), (1, 1), (50, 0))
        except feasibility.SolverCheckFailed:
            pass
        else:
            sys.exit("solve_feasibility_arrays returned an unchecked result")
        sys.exit(main(["check-jitter", "--input", {path!r}]))
    """)
    src = str(Path(harmonic_rta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: shift counts (1, 3, 4, 24, 48) ")
    assert proc.stderr.count("\n") == 1
