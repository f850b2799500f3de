"""Virtual-jitter feasibility: turn per-task jitters into one uniform jitter.

Each higher-priority task's jitter J_i may be shifted by whole periods,
J'_i = J_i + m_i*T_i with integer m_i >= 0, without changing its worst-case
interference, provided the shifted jitters satisfy a coupled system of
inequalities against the largest shifted jitter J'_max.  When that system is
satisfiable, the exact per-task-jitter WCRT equals a single uniform-jitter
computation at J'_max with a constant correction: one ceiling per task
overall.

This module solves the system by interval propagation over tasks in
non-increasing period order (ties by original priority index, the order the
bound windows are defined over), with a width-greedy choice when a stage
admits two shift counts.  A brute-force oracle checks the same system by
enumeration, and wcrt_virtual_jitter turns a feasible solution into the WCRT.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt, mul

from .harmonic import _staged_rta
from .model import OrderedView, TaskSet, ordered_view
from .rta import RtaResult, _require_exact

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


class SolverCheckFailed(ValueError):
    """A solved shift vector failed the check against the full system."""


class InfeasibleInput(ValueError):
    """A feasible FeasibilityResult was required."""


@dataclass(frozen=True)
class Branch:
    """Record of one two-candidate stage: window widths and the pick."""

    stage: int
    lower_m: int
    upper_m: int
    diff_lower: int
    diff_upper: int
    chosen: str


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the shift-count search.

    `m` and `virtual_jitter_max` are set iff feasible; `failure_stage` is the
    1-based stage whose window crossed iff infeasible.  `bound_trace` holds
    the per-stage [lower, upper] windows for m_last * T_last in time units;
    `branches` records every two-candidate decision.
    """

    verdict: str
    m: tuple[int, ...] | None
    virtual_jitter_max: int | None
    failure_stage: int | None
    bound_trace: tuple[tuple[int, int], ...]
    branches: tuple[Branch, ...] = ()

    @property
    def is_feasible(self) -> bool:
        return self.verdict == FEASIBLE


def _feasibility_view(ts: TaskSet, target_index: int | None,
                      extra=()) -> OrderedView:
    """The interfering tasks in the solver's order (priority breaks ties).

    target_index None treats the whole set as the higher-priority set of a
    virtual lowest-priority task.
    """
    view = ordered_view(ts, target_index, jitter_ties=False, extra=extra)
    if not view.order:
        raise ValueError("need at least one higher-priority task")
    view.require_harmonic()
    return view


def satisfies_constraints(periods, wcets, jitters, m) -> bool:
    """Check the full shift system for a candidate m (normalization aside).

    Requires every m_i >= 0 integer, every shifted jitter at most the last
    one, and every shifted jitter at least the last one minus the wcet sum of
    the strictly-later tasks.
    """
    if len(m) != len(periods):
        return False
    j_last = jitters[-1] + m[-1] * periods[-1]
    later = 0
    for period, wcet, jitter, mi in zip(reversed(periods), reversed(wcets),
                                        reversed(jitters), reversed(m)):
        if not (isinstance(mi, int) and mi >= 0):
            return False
        shifted = jitter + mi * period
        if shifted > j_last or shifted < j_last - later:
            return False
        later += wcet
    return True


def solve_feasibility(ts: TaskSet, target_index: int | None = None
                      ) -> FeasibilityResult:
    """Find shift counts m making all jitters reachable from one uniform value.

    Tasks with priority above the target (the whole set when target_index is
    None) are processed largest period first.  Returns a feasible result with
    m (m_1 normalized to 1), J'_max and the bound-window trace, or an
    infeasible verdict naming the stage whose window crossed.  A feasible m is
    verified against the full constraint system before being returned; a
    failed check raises SolverCheckFailed.
    """
    view = _feasibility_view(ts, target_index)
    return _solve(view, ts[view.order[-1]].jitter)


def solve_feasibility_arrays(periods, wcets, jitters) -> FeasibilityResult:
    """solve_feasibility on pre-ordered arrays (non-increasing periods).

    Raises ValueError on arrays of different lengths, no task, a period
    that is not an int, a wcet or jitter that is neither an int nor a
    Fraction, or a jitter outside [0, period) (naming its position), and
    NonHarmonic unless each period divides the one before it.
    Rational wcets and jitters are exact but slower than ints; a caller
    holding many sets with a known common denominator can scale them to
    ints first, which leaves the verdict and m unchanged.
    """
    view = _array_view(periods, wcets, jitters)
    view.require_harmonic()
    return _solve(view, jitters[-1])


def _array_view(periods, wcets, jitters) -> OrderedView:
    """The view of pre-ordered raw arrays, after checking that they have
    one length, at least one task, int periods, int or Fraction wcets and
    jitters, and every jitter in [0, period)."""
    if not len(periods) == len(wcets) == len(jitters):
        raise ValueError(f"periods, wcets and jitters have lengths "
                         f"{len(periods)}, {len(wcets)} and {len(jitters)}")
    if not periods:
        raise ValueError("need at least one task")
    # All-int arrays, the experiments' case, pass on one set comparison.
    if {*map(type, periods), *map(type, wcets), *map(type, jitters)} != {int}:
        for k, period in enumerate(periods):
            if type(period) is not int:
                raise ValueError(f"periods[{k}] must be an int, got "
                                 f"{period!r}")
        for name, values in (("wcets", wcets), ("jitters", jitters)):
            for k, value in enumerate(values):
                _require_exact(value, f"{name}[{k}]")
    view = OrderedView(None, periods, wcets, jitters)
    if min(view.jitters) < 0 or not all(map(gt, view.periods, view.jitters)):
        k = next(k for k, (period, jitter) in
                 enumerate(zip(view.periods, view.jitters))
                 if not 0 <= jitter < period)
        raise ValueError(f"jitters[{k}]={jitters[k]} is outside "
                         f"[0, {periods[k]})")
    return view


def _solve(view: OrderedView, last_jitter) -> FeasibilityResult:
    """The window propagation in view units.  Windows, widths and J'_max
    are returned in task time units; `last_jitter` is the last task's
    jitter as the caller gave it."""
    periods, jitters, suffix = view.periods, view.jitters, view.suffix_wcet
    k = len(periods)
    t_last = periods[-1]
    j_last = jitters[-1]

    # Window [lb, ub] brackets m_last*T_last in view units; the anchor stage
    # intersects the m_1 = 1 shift of the largest-period task with the last
    # task's congruence class.  One task leaves the window [T_1, T_1].
    lb = periods[0] - t_last * ((j_last - jitters[0]) // t_last)
    ub = periods[0] + t_last * ((jitters[0] - j_last + suffix[0]) // t_last)
    trace = [(lb, ub)]
    branches: list[Branch] = []
    chosen_m = [1]
    stage = 1
    while lb <= ub and stage < k - 1:
        period, jit, after = periods[stage], jitters[stage], suffix[stage]
        stage += 1
        m_lo = -((jit + after - lb - j_last) // period)
        if m_lo < 0:
            # A shift count is never negative.  This needs a suffix wcet
            # above T_1 (lb + J_last >= T_1 and jit < period), so U >= 1.
            m_lo = 0
        m_hi = (ub + j_last - jit) // period
        if m_lo > m_hi:
            break
        q_lo = -t_last * ((j_last - jit) // t_last)
        q_hi = t_last * ((jit - j_last + after) // t_last)
        m_val = m_hi
        shift = m_hi * period
        new_lb = shift + q_lo
        if new_lb < lb:
            new_lb = lb
        new_ub = shift + q_hi
        if new_ub > ub:
            new_ub = ub
        if m_lo < m_hi:
            # Two admissible shift counts; keep the one leaving the wider
            # window (ties to the upper), a greedy heuristic.
            lo_lb = m_lo * period + q_lo
            if lo_lb < lb:
                lo_lb = lb
            lo_ub = m_lo * period + q_hi
            if lo_ub > ub:
                lo_ub = ub
            diff_lower = lo_ub - lo_lb
            diff_upper = new_ub - new_lb
            pick = "upper"
            if diff_lower > diff_upper:
                m_val, new_lb, new_ub, pick = m_lo, lo_lb, lo_ub, "lower"
            branches.append(Branch(stage, m_lo, m_hi, diff_lower, diff_upper,
                                   pick))
        lb, ub = new_lb, new_ub
        trace.append((lb, ub))
        chosen_m.append(m_val)

    scale = view.scale
    if scale != 1:
        trace = [(low // scale, high // scale) for low, high in trace]
        branches = [Branch(b.stage, b.lower_m, b.upper_m,
                           b.diff_lower // scale, b.diff_upper // scale,
                           b.chosen) for b in branches]
    # A crossed window, or a stage that admits no shift count (and so
    # records no window or count), ends the search at that stage.
    if lb > ub or len(chosen_m) < stage:
        return FeasibilityResult(INFEASIBLE, None, None, stage,
                                 tuple(trace), tuple(branches))
    if lb % t_last:
        raise SolverCheckFailed(
            f"window bound {lb // scale} is not a multiple of the last "
            f"period {t_last // scale}")
    if k > 1:
        chosen_m.append(lb // t_last)
    m = tuple(chosen_m)
    if not satisfies_constraints(periods, view.wcets, jitters, m):
        raise SolverCheckFailed(
            f"shift counts {m} violate the shift system they were solved for")
    return FeasibilityResult(FEASIBLE, m, last_jitter + lb // scale, None,
                             tuple(trace), tuple(branches))


def brute_force_last_values(periods, wcets, jitters, last_cap=None):
    """All m_last in [0, last_cap] for which the full system has a witness.

    Every m_i is constrained only against m_last, so for each candidate the
    per-task intervals are checked independently (m_1 must admit 1).  The
    default `last_cap` is the whole box of `brute_force_feasibility`.
    Returns (values, witnesses) in ascending order.  Raises ValueError on
    the arrays `solve_feasibility_arrays` refuses with one.
    """
    view = _array_view(periods, wcets, jitters)
    periods, jitters, suffix = view.periods, view.jitters, view.suffix_wcet
    k = len(periods)
    if last_cap is None:
        last_cap = ((jitters[0] + periods[0] + suffix[0] - jitters[-1])
                    // periods[-1])
    values, witnesses = [], []
    # m_1 = 1 needs J_last + m_last*T_last >= J_1 + T_1, so every smaller
    # m_last fails at the first task.  One task is both first and last, so
    # m_last = m_1 = 1 is its only value.
    first = max(0, -((jitters[-1] - jitters[0] - periods[0]) // periods[-1]))
    if k == 1:
        last_cap = min(last_cap, first)
    for y in range(first, last_cap + 1):
        j_max = jitters[-1] + y * periods[-1]
        witness = []
        for i in range(k - 1):
            hi = (j_max - jitters[i]) // periods[i]
            lo = max(-((suffix[i] + jitters[i] - j_max) // periods[i]), 0)
            # The first task's count is 1, every other task's its least.
            m = lo if i else 1
            if not lo <= m <= hi:
                break
            witness.append(m)
        else:
            witness.append(y)
            values.append(y)
            witnesses.append(tuple(witness))
    return values, witnesses


def brute_force_feasibility(ts: TaskSet, target_index: int | None = None
                            ) -> FeasibilityResult:
    """Independent exhaustive check of the shift system.

    With m_1 = 1, J'_max lies in [J_1 + T_1, J_1 + T_1 + suffix_1], so every
    candidate m_last is in [0, (J_1 + T_1 + suffix_1 - J_last) // T_last]
    (view units).  The search covers that whole box and reports the first
    witness.  The first witness, when one exists, lies below 3*T_1/T_last,
    so a capped box of 4*T_1/T_last never misses it either: the middle
    tasks' conditions repeat every T_2/T_last in m_last, and the window
    starts below 2*T_1/T_last.
    """
    view = _feasibility_view(ts, target_index)
    periods, jitters, scale = view.periods, view.jitters, view.scale
    values, witnesses = brute_force_last_values(periods, view.wcets, jitters)
    if not values:
        return FeasibilityResult(INFEASIBLE, None, None, None, ())
    window = values[0] * periods[-1] // scale
    return FeasibilityResult(FEASIBLE, witnesses[0],
                             jitters[-1] // scale + window, None,
                             ((window, window),))


def wcrt_virtual_jitter(ts: TaskSet, target_index: int,
                        fr: FeasibilityResult) -> RtaResult:
    """Exact per-task-jitter WCRT from a feasible shift solution.

    Runs the staged uniform-jitter iteration at J = fr.virtual_jitter_max
    with the constant term C_n - sum_i m_i*C_pi(i) (each whole-period shift
    of a jitter is compensated by removing one job's worth of interference).
    Equals wcrt_fixed_point_jitter with the true per-task jitters.
    """
    if not fr.is_feasible:
        raise InfeasibleInput("need a feasible shift solution")
    view = _feasibility_view(ts, target_index,
                             extra=(fr.virtual_jitter_max,))
    if fr.m is None or len(fr.m) != len(view.order):
        raise InfeasibleInput(
            f"solution covers {0 if fr.m is None else len(fr.m)} tasks, "
            f"target has {len(view.order)}")
    target = ts[target_index]
    const = view.target_wcet - sum(map(mul, fr.m, view.wcets))
    return _staged_rta(view, const, view.scaled(fr.virtual_jitter_max),
                       target.deadline - target.jitter)
