"""Golden exactness check of every analysis result, types included.

Each group below runs the public analyses over a fixed input stream and
hashes the ``repr`` of every result (an exception is recorded by its type
name).  ``repr`` tells an ``int`` from a ``Fraction`` with the same value,
so a digest match means every returned value kept both its value and its
type.  The digests were recorded before the integer kernel replaced the
rational arithmetic inside the analyses and must never be regenerated to
make a change pass.
"""

import hashlib
from fractions import Fraction

import pytest

from harmonic_rta import (
    GenConfig,
    JitterPresent,
    NonConvergent,
    NonHarmonic,
    Rng,
    Task,
    brute_force_feasibility,
    check_restricted_jitter,
    feasibility_sweep,
    first_job_sim_horizon,
    generate_with_target,
    heuristic_quality,
    pi_order,
    random_analysis_set,
    simulation_job_count,
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
from harmonic_rta.feasibility import (
    brute_force_last_values,
    satisfies_constraints,
    solve_feasibility_arrays,
)
from harmonic_rta.generator import (
    gen_constrained_jitters,
    gen_harmonic_periods,
    gen_unconstrained_jitters_raw,
    uunifast,
)
from conftest import mk
from oracles import classify_gamma

CORPUS_SETS = 300


def _record(lines, fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except (ArithmeticError, ValueError) as exc:
        lines.append(f"raise {type(exc).__name__}")
        return None
    lines.append(repr(result))
    return result


def _analyze_target(lines, ts, i, with_delays=True):
    _record(lines, wcrt_fixed_point, ts, i)
    _record(lines, wcrt_fixed_point_jitter, ts, i)
    _record(lines, wcrt_harmonic, ts, i)
    _record(lines, wcrt_harmonic, ts, i, early_stop=False)
    _record(lines, wcrt_exclusion_model, ts, i)
    order = pi_order(ts, i).order
    shared = ts[order[-1]].jitter if order else 0
    _record(lines, wcrt_uniform_jitter, ts, i, shared)
    _record(lines, wcrt_uniform_jitter, ts, i, 3, early_stop=False)
    _record(lines, wcrt_jitter_bounds, ts, i)
    _record(lines, check_restricted_jitter, ts, i)
    feas = _record(lines, solve_feasibility, ts, i)
    if feas is not None and feas.is_feasible:
        _record(lines, wcrt_virtual_jitter, ts, i, feas)
    if with_delays and order:
        half = [Fraction(w) / 2 for w in pi_order(ts, i).cumulative_wcet]
        _record(lines, wcrt_with_delays, ts, i, half)


def _analyze_set(lines, ts, with_delays=True):
    for i in range(len(ts)):
        _analyze_target(lines, ts, i, with_delays)
    _record(lines, solve_feasibility, ts, None)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _plain_corpus_lines():
    rng = Rng(20260817)
    lines = []
    for _ in range(CORPUS_SETS):
        while True:
            ts = random_analysis_set(rng, max_tasks=12)
            result, _ = wcrt_harmonic(ts, len(ts) - 1)
            horizon = first_job_sim_horizon(ts, result.wcrt)
            if simulation_job_count(ts, horizon) <= 20_000:
                break
        _analyze_set(lines, ts)
    return lines


def _jitter_corpus_lines():
    rng = Rng(20260818)
    lines = []
    for _ in range(CORPUS_SETS):
        ts = random_analysis_set(rng, max_tasks=10, jitter_mode="constrained")
        _analyze_set(lines, ts)
    return lines


TABLE1_ROWS = [(60, 6, 8), (60, 8, 0), (30, 4, 9), (360, 13, 7), (120, 7, 3),
               (360, 12, 9)]
WALKTHROUGH_ROWS = [(240, 1, 167), (120, 50, 119), (120, 50, 0), (20, 1, 0),
                    (10, 1, 0)]


def _reference_lines():
    lines = []
    for rows in (TABLE1_ROWS, WALKTHROUGH_ROWS,
                 [(t, c, 0) for t, c, _ in TABLE1_ROWS]):
        ts = mk(rows)
        _analyze_set(lines, ts)
        for i in range(1, len(ts)):
            _record(lines, wcrt_fixed_point, ts, i, start=ts[i].wcet)
            _record(lines, wcrt_fixed_point_jitter, ts, i,
                    start=Fraction(ts[i].wcet, 3))
        for k in range(1, len(ts)):
            _record(lines, classify_gamma, ts, None, k)
        fr = _record(lines, solve_feasibility, ts, None)
        _record(lines, brute_force_feasibility, ts, None)
    return lines


def _relaxed_lines():
    """Rational wcets (hp and target) on harmonic periods."""
    lines = []
    rng = Rng(4242)
    for k in range(40):
        mode = ("none", "constrained", "unconstrained")[k % 3]
        config = GenConfig(task_count=rng.randint(1, 6),
                           total_utilization=Fraction(rng.randint(5, 90), 100),
                           factor_range=(1, 3), jitter_mode=mode,
                           alpha=Fraction(1, 2), integer_wcets=False)
        ts = generate_with_target(config, rng)
        _analyze_set(lines, ts)
        tasks = list(ts.tasks)
        last = tasks[-1]
        tasks[-1] = Task(last.period, Fraction(2 * last.wcet + 1, 3),
                         last.deadline, last.jitter, last.priority, last.id)
        _analyze_set(lines, validate(tasks, relaxed=True))
        periods = tuple(t.period for t in ts.tasks[:-1])
        wcets = tuple(t.wcet for t in ts.tasks[:-1])
        jitters = tuple(t.jitter for t in ts.tasks[:-1])
        fr = _record(lines, solve_feasibility_arrays, periods, wcets, jitters)
        if fr.is_feasible:
            _record(lines, satisfies_constraints, periods, wcets, jitters,
                    fr.m)
        _record(lines, brute_force_last_values, periods, wcets, jitters,
                2 * (periods[0] // periods[-1]))
    return lines


def _non_harmonic_lines():
    """Relaxed sets whose periods do not divide: only the oracle applies."""
    lines = []
    rng = Rng(777)
    for k in range(60):
        rows = []
        for _ in range(rng.randint(2, 6)):
            period = rng.randint(3, 40)
            wcet = rng.randint(1, 3)
            if k % 2:
                wcet = Fraction(wcet * 7 + 1, 7)
            rows.append((period, wcet, rng.randint(0, period - 1)))
        rows = [(t, min(c, t), j) for t, c, j in rows]
        ts = mk(rows, relaxed=True)
        _analyze_set(lines, ts, with_delays=False)
    return lines


def _raw_array_lines():
    """The experiments' raw rational arrays, plus small experiment grids."""
    lines = []
    rng = Rng(99)
    for k in range(60):
        n = 14 if k % 2 else 5
        utilization = Fraction(19, 20) if k % 2 else Fraction(4, 5)
        config = GenConfig(task_count=n, total_utilization=utilization)
        periods = gen_harmonic_periods(n, config, rng)[::-1]
        utils = uunifast(n, utilization, rng)[::-1]
        wcets = [t * u for t, u in zip(periods, utils)]
        if k % 2:
            jitters = gen_constrained_jitters(periods, wcets, rng)
        else:
            jitters = gen_unconstrained_jitters_raw(periods, Fraction(3, 10),
                                                    rng)
        _record(lines, solve_feasibility_arrays, tuple(periods), tuple(wcets),
                tuple(jitters))
    _record(lines, heuristic_quality, hp_count=14, sets_per_point=200,
            grid=(Fraction(9, 10), Fraction(19, 20)), seed=1000)
    _record(lines, feasibility_sweep, task_count=5, sets_per_alpha=200,
            seed=0)
    return lines


GOLDEN = {
    "plain-corpus": ((24996, "e97572bac63844c583e9981393ad3d19a8decbc56757bd4a2995766c639a13e9"),
                    _plain_corpus_lines),
    "jitter-corpus": ((20215, "80f0a5f752b116648cf203048707b23de0317f59c66c3f9e0da5e3c6af7fbd5a"),
                     _jitter_corpus_lines),
    "reference-sets": ((244, "bde558147180afdf41b3bbc23701151bfe46b8bba1063ceaca81e66d9565a1d7"),
                      _reference_lines),
    "relaxed-rational": ((4004, "bead858837b338580fb0b9bc533ec5715b808ff5e557bafb16f7bb2c5f5bcbf9"),
                        _relaxed_lines),
    "non-harmonic": ((2551, "9d95f91074023804052274a62af86ddfde98850fb27cd9c18ebff8517b3dabf3"),
                    _non_harmonic_lines),
    "raw-arrays": ((62, "45329e24b269db5580dd298b39069275b628fd43331604aeb4d57d11f3bb8e8c"),
                  _raw_array_lines),
}


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_results_match_golden_digest(group):
    (count, digest), make_lines = GOLDEN[group]
    lines = make_lines()
    assert len(lines) == count
    assert _digest(lines) == digest


def test_error_types_are_raised_where_expected():
    saturated = validate([Task(2, 1, 2, 0, 1), Task(4, 2, 4, 0, 2),
                          Task(4, 1, 4, 0, 3)], relaxed=True)
    for fn in (wcrt_fixed_point, wcrt_fixed_point_jitter,
               wcrt_exclusion_model):
        with pytest.raises(NonConvergent):
            fn(saturated, 2)
    with pytest.raises(NonConvergent):
        wcrt_harmonic(saturated, 2)
    with pytest.raises(NonConvergent):
        wcrt_uniform_jitter(saturated, 2, 1)

    odd = mk([(6, 1, 0), (4, 1, 0), (12, 1, 0)], relaxed=True)
    for fn in (wcrt_harmonic, wcrt_exclusion_model, wcrt_jitter_bounds,
               solve_feasibility):
        with pytest.raises(NonHarmonic):
            fn(odd, 2)
    with pytest.raises(NonHarmonic):
        solve_feasibility_arrays((6, 4), (1, 1), (0, 0))
    assert wcrt_fixed_point(odd, 2).wcrt == 3

    jittered = mk([(8, 2, 3), (8, 1, 0)])
    for fn in (wcrt_harmonic, wcrt_exclusion_model):
        with pytest.raises(JitterPresent):
            fn(jittered, 1)
    with pytest.raises(JitterPresent):
        wcrt_with_delays(jittered, 1, [0])
