"""Linear-stage exact WCRT for harmonic task sets.

With higher-priority tasks sorted by non-increasing (hence pairwise dividing)
periods, the least fixed point of the processor demand is reached by at most
one refinement stage per higher-priority task, each spending exactly one
ceiling evaluation.  This module implements that staged iteration, its
uniform-jitter variant, jitter min/max bounds, the shifted-demand model whose
fixed point provably coincides (the source of the exclusion intervals), and
the sufficient condition under which the uniform-jitter result is exact for
per-task jitters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, ge

from .model import (OrderedView, TaskSet, _Deferred, _deferred, _ratio,
                    _reduced, ordered_view)
from .rta import RtaResult, _converging_rates, _iterate


class JitterPresent(ValueError):
    """A jitter-free method was called on a set with non-zero jitters."""


class DeltaOutOfRange(ValueError):
    """A demand shift lies outside [0, suffix wcet] at some position."""


@dataclass(frozen=True)
class HarmonicIterationTrace(_Deferred):
    """Stage-by-stage record of one staged WCRT run.

    `stage_values[0]` is the utilization-bound base value; each later entry is
    one refinement stage.  `ceil_evals` counts ceiling evaluations (one per
    computed stage).  `early_stop_stage`, when set, is the 1-based stage whose
    refinement was skipped because the previous value already sits on a
    multiple of that stage's period (all remaining stages are then no-ops).
    The staged methods build `stage_values` on first read; it is the tuple
    of their result's `trace`.
    """

    stage_values: tuple
    ceil_evals: int
    early_stop_stage: int | None


def _staged_fixed_point(view: OrderedView, const: int, jitter: int,
                        early_stop: bool = True, stage_values=None):
    """Run the staged iteration for demand t = const + sum C*ceil((t+J)/T).

    `const` (the target wcet, or its virtual-jitter replacement) and the
    uniform jitter J are in view units.  Returns the integer pair (reach,
    free) of the last stage, in which R + J = reach/free in view units,
    and the number of ceilings spent, one per computed stage.  When
    `stage_values` is a list, each stage value, base value first, is
    appended to it as a reduced Fraction in task time units.

    Stage s refines the previous value R by one ceiling,
    R += (C_s*ceil((R+J)/T_s) - U_s*(R+J)) / (1 - U_later(s)).  That
    recurrence keeps R + J = (A + J) / (1 - U_later(s)), where the integer
    A is `const` plus C_k*ceil((R+J)/T_k) summed over the stages so far.
    So the loop carries only reach = (A + J)*lcm and free = (1 -
    U_later(s))*lcm, and builds each stage value from them.
    """
    lcm, unums, total = _converging_rates(view)
    reach = (const + jitter) * lcm
    free = lcm - total
    ceilings = 0
    if stage_values is not None:
        stage_values.append(_stage_value(view, jitter, reach, free))
    for period, wcet, unum in zip(view.periods, view.wcets, unums):
        span = period * free
        if early_stop and reach % span == 0:
            # Every remaining period divides this one, so all later
            # refinements would leave the value unchanged.
            break
        reach += wcet * lcm * -(-reach // span)
        free += unum
        ceilings += 1
        if stage_values is not None:
            stage_values.append(_stage_value(view, jitter, reach, free))
    return reach, free, ceilings


def _stage_value(view: OrderedView, jitter: int, reach: int,
                 free: int) -> Fraction:
    """R = (reach - J*free)/free in view units, reduced, in task units."""
    return _ratio(reach - jitter * free, free * view.scale)


def _stage_values(view: OrderedView, const: int, jitter: int,
                  early_stop: bool) -> tuple:
    """The stage values of one staged run, base value first."""
    values = []
    _staged_fixed_point(view, const, jitter, early_stop, values)
    return tuple(values)


def _staged_rta(view: OrderedView, const: int, jitter: int, budget,
                early_stop: bool = True) -> RtaResult:
    """The RtaResult of one staged run against a deadline budget.

    Its iteration count is the ceilings spent, one per computed stage.
    Its trace holds the stage values, base value first; it is built on
    first read by running the stages again on the same view, which is
    read-only.  The WCRT is reduced, so its margin (budget*den - num)/den
    is reduced as it stands.
    """
    reach, free, ceilings = _staged_fixed_point(view, const, jitter,
                                                early_stop)
    wcrt = _stage_value(view, jitter, reach, free)
    den = wcrt.denominator
    slack = budget * den - wcrt.numerator
    return _deferred(RtaResult, {"wcrt": wcrt, "iterations": ceilings,
                                 "schedulable": slack >= 0,
                                 "margin": _reduced(slack, den)},
                     trace=(_stage_values, view, const, jitter, early_stop))


def _staged_result(ts: TaskSet, target_index: int, jitter,
                   early_stop: bool, jitter_aware: bool):
    """(RtaResult, HarmonicIterationTrace) at one uniform jitter.  A method
    that is not jitter-aware rejects jitters up to the target."""
    view = ordered_view(ts, target_index, extra=(jitter,))
    if not jitter_aware:
        _reject_jitters(ts, target_index)
    view.require_harmonic()
    target = ts[target_index]
    budget = target.deadline - (target.jitter if jitter_aware else 0)
    result = _staged_rta(view, view.target_wcet, view.scaled(jitter), budget,
                         early_stop)
    # A run that stopped early computed fewer stages than the view has
    # tasks; the stage it skipped is the one after the last computed.
    ceilings = result.iterations
    stopped = ceilings + 1 if ceilings < len(view.periods) else None
    return result, _deferred(
        HarmonicIterationTrace,
        {"ceil_evals": ceilings, "early_stop_stage": stopped},
        stage_values=(getattr, result, "trace"))


def _first_jittered(ts: TaskSet, target_index: int):
    """The first task with jitter among the target and the tasks above it,
    or None."""
    for task in ts.tasks[:target_index + 1]:
        if task.jitter:
            return task
    return None


def _reject_jitters(ts: TaskSet, target_index: int) -> None:
    task = _first_jittered(ts, target_index)
    if task is not None:
        raise JitterPresent(
            f"task {task.id} has jitter {task.jitter}; use a jitter-aware "
            f"method")


def wcrt_harmonic(ts: TaskSet, target_index: int, early_stop: bool = True):
    """Exact jitter-free WCRT in at most one ceiling per higher-priority task.

    Returns (RtaResult, HarmonicIterationTrace).  Equals wcrt_fixed_point on
    every harmonic input.  Raises JitterPresent when the target or one of its
    higher-priority tasks carries jitter.
    """
    return _staged_result(ts, target_index, 0, early_stop, jitter_aware=False)


def wcrt_uniform_jitter(ts: TaskSet, target_index: int, jitter,
                        early_stop: bool = True):
    """Staged WCRT with one uniform jitter applied to all higher-priority tasks.

    Returns (RtaResult, HarmonicIterationTrace) for the least fixed point of
    t = C_n + sum C_pi*ceil((t + jitter)/T_pi).  The schedulability verdict
    uses the target's own declared jitter (wcrt <= deadline - jitter).
    """
    if jitter < 0:
        raise ValueError(f"uniform jitter must be >= 0, got {jitter}")
    return _staged_result(ts, target_index, jitter, early_stop,
                          jitter_aware=True)


def wcrt_jitter_bounds(ts: TaskSet, target_index: int):
    """Lower/upper WCRT bounds from the smallest and largest hp jitter.

    Returns (low, high): the uniform-jitter WCRT evaluated at min and max of
    the higher-priority jitters.  The exact per-task-jitter WCRT always lies
    between the two.
    """
    view = ordered_view(ts, target_index)
    view.require_harmonic()
    jitters = view.jitters or (0,)  # no interference: both are the wcet
    bounds = []
    for jitter in (min(jitters), max(jitters)):
        reach, free, _ = _staged_fixed_point(view, view.target_wcet, jitter)
        bounds.append(_stage_value(view, jitter, reach, free))
    return tuple(bounds)


def wcrt_exclusion_model(ts: TaskSet, target_index: int) -> RtaResult:
    """Fixed point of the suffix-shifted demand; equals the unshifted WCRT.

    Demand variant W(t) = C_n + sum C_pi*ceil((t - suffix_wcet_after)/T_pi):
    each interference term is pushed left by the total wcet of the
    strictly-smaller-period tasks.  Its least fixed point coincides with the
    ordinary one, which is what carves the exclusion intervals.
    """
    view = ordered_view(ts, target_index)
    _reject_jitters(ts, target_index)
    return _shifted_fixed_point(ts[target_index], view, view.suffix_wcet)


def wcrt_with_delays(ts: TaskSet, target_index: int, delta) -> RtaResult:
    """Fixed point of the demand with per-position shifts delta.

    delta[k] (rational) applies to the k-th task of the pi order and must lie
    in [0, cumulative_wcet[k]]; any such shift leaves the least fixed point
    unchanged.  Raises DeltaOutOfRange naming the offending position.
    """
    view = ordered_view(ts, target_index, extra=delta)
    _reject_jitters(ts, target_index)
    if len(delta) != len(view.order):
        raise DeltaOutOfRange(
            f"need {len(view.order)} shifts, got {len(delta)}")
    shifts = [view.scaled(d) for d in delta]
    for k, (d, shift, limit) in enumerate(zip(delta, shifts,
                                               view.suffix_wcet)):
        if not 0 <= shift <= limit:
            raise DeltaOutOfRange(
                f"delta[{k}]={d} outside [0, {Fraction(limit, view.scale)}]")
    return _shifted_fixed_point(ts[target_index], view, shifts)


def _shifted_fixed_point(target, view: OrderedView, shifts) -> RtaResult:
    view.require_harmonic()
    # Kleene iteration from C_n.  Each suffix wcet sum is < the period at its
    # position (utilization < 1 on dividing periods), so shifted arguments
    # stay above -period and every ceiling term is >= 0: iterates are
    # monotone and converge to the least fixed point from below.
    return _iterate(view, shifts, target.wcet, target.deadline)


def shared_jitter(ts: TaskSet, target_index: int):
    """J_last: the jitter of the target's last pi-order task, else 0.

    The last task of the default order (non-increasing period, period ties
    by non-decreasing jitter, then priority) is the largest-jitter one among
    the smallest-period higher-priority tasks.  It is the uniform jitter
    check_restricted_jitter is stated for; 0 when the target has no
    higher-priority task.
    """
    order = ordered_view(ts, target_index).order
    return ts[order[-1]].jitter if order else 0


def check_restricted_jitter(ts: TaskSet, target_index: int) -> bool:
    """Sufficient condition for uniform-jitter exactness with per-task jitters.

    True iff every higher-priority jitter J_pi(k) satisfies
    max(0, J_last - suffix_wcet_after(k)) <= J_pi(k) <= J_last, where J_last
    is shared_jitter(ts, target_index).  When true,
    wcrt_uniform_jitter(ts, target, J_last) equals the exact per-task-jitter
    WCRT.  The condition is sufficient, not necessary.
    """
    view = ordered_view(ts, target_index)
    if not view.order:
        raise ValueError("target has no higher-priority tasks")
    # Jitters are never negative, so the lower bound reads
    # J_last - suffix_wcet_after(k) <= J_pi(k).
    jitters = view.jitters
    j_last = jitters[-1]
    return max(jitters) <= j_last and all(
        map(ge, map(add, jitters, view.suffix_wcet), repeat(j_last)))
