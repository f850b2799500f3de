"""Classic fixed-point response-time analysis: the ground-truth oracle.

Iterates the processor-demand recurrence t <- C_n + sum_i C_i*ceil((t+J_i)/T_i)
(or its shifted form with offsets O_i subtracted instead of jitters added)
over the target's higher-priority tasks until the least fixed point is
reached.  Works for any constrained-deadline set whose higher-priority
utilization is below 1; harmonicity is not required, which is what makes
this the reference the fast harmonic paths are cross-checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, neg

from .model import (OrderedView, TaskSet, _Deferred, _deferred, _ratio,
                    ordered_view)

MAX_ITERATIONS = 10 ** 6


class NonConvergent(ArithmeticError):
    """The fixed-point iteration cannot or did not reach a fixed point."""


class DomainError(ValueError):
    """Argument outside the domain of the nested-ceiling identity."""


@dataclass(frozen=True)
class RtaResult(_Deferred):
    """Outcome of one WCRT computation.

    `trace` holds the start and the successive iterates for the
    fixed-point oracles (it then ends with two equal values) or the
    per-stage values for the staged harmonic methods.  Every method builds
    it on first read.  `margin` is deadline slack: D - J - wcrt for
    jitter-aware methods, D - wcrt otherwise; `schedulable` is margin >= 0.
    """

    wcrt: Fraction | int
    iterations: int
    trace: tuple
    schedulable: bool
    margin: Fraction | int


def _converging_rates(view: OrderedView) -> tuple:
    """`view.rates()`; NonConvergent when the higher-priority utilization
    is >= 1."""
    lcm, unum, total = view.rates()
    if total >= lcm:
        raise NonConvergent(f"higher-priority utilization {Fraction(total, lcm)}"
                            f" >= 1: no fixed point exists")
    return lcm, unum, total


def _require_exact(value, what: str) -> None:
    """ValueError unless `value` is an int (not a bool) or a Fraction."""
    if type(value) is not int and type(value) is not Fraction:
        raise ValueError(f"{what} must be an int or a Fraction, "
                         f"got {value!r}")


def _iterate(view: OrderedView, offsets, start, budget) -> RtaResult:
    """Least fixed point of t = C_n + sum C_i*ceil((t - O_i)/T_i).

    `offsets` O_i are subtracted, in view units: zeros for the classic
    recurrence, negated jitters for the jitter-aware one, demand shifts
    for the shifted models.  Returns the RtaResult, in task time units,
    whose margin is budget - wcrt (budget D or D - J).  Its trace, the
    start and every iterate, is built on first read by iterating again on
    the same view, which is read-only.

    One start rule: the demand is >= the line C_n + U_hp*t - sum U_i*O_i,
    and >= C_n when no offset reaches a period, so iterates rise to the
    least fixed point from any start at or below the weighted start
    (C_n - sum U_i*O_i)/(1 - U_hp), the default, or at or below C_n.  A
    given start (an int or a Fraction) above both raises ValueError: from
    there the iterates can stop at a larger fixed point.  The shifted
    models start at C_n: each of their shifts is at most the suffix wcet
    sum, which is below the period at its position (utilization < 1 on
    dividing periods), so no shift reaches a period.
    """
    lcm, unum, total = _converging_rates(view)
    scale = view.scale
    if start is not None:
        _require_exact(start, "start")
        num, den = start.numerator * scale, start.denominator
    if start is None or num > view.target_wcet * den:
        # The weighted start in view units, as the pair low/free.
        low = view.target_wcet * lcm - sum(map(mul, unum, offsets))
        free = lcm - total
        if start is None:
            num, den = low, free
        elif num * free > low * den:
            raise ValueError(f"start {start} is above the weighted lower "
                             f"bound {_ratio(low, free * scale)} of the "
                             f"least fixed point")
    last, steps = _kleene(view, offsets, num, den)
    wcrt = _ratio(last, scale) if view.rational else last // scale
    margin = budget - wcrt
    return _deferred(RtaResult, {"wcrt": wcrt, "iterations": steps,
                                 "schedulable": margin >= 0,
                                 "margin": margin},
                     trace=(_trace, view, offsets, num, den, start))


def _kleene(view: OrderedView, offsets, num: int, den: int,
            iterates=None) -> tuple:
    """Iterate the demand from the start num/den (view units, den > 0).

    Returns the last iterate and the number of steps.  When `iterates` is
    a list, each iterate is appended to it.
    """
    wcet = view.target_wcet
    # The start x may be rational, but ceil((x - O)/T) = ceil((ceil(x) -
    # O)/T) for integer O and T, so the demand is evaluated at ceil(x).
    # Only an integer x can be a fixed point at the first step.
    integral = num % den == 0
    cur = -(-num // den)
    terms = tuple(zip(view.periods, view.wcets, offsets))
    steps = 0
    while True:
        nxt = wcet
        for period, task_wcet, offset in terms:
            nxt += task_wcet * -((offset - cur) // period)
        steps += 1
        if iterates is not None:
            iterates.append(nxt)
        if nxt == cur and (integral or steps > 1):
            return nxt, steps
        if steps >= MAX_ITERATIONS:
            raise NonConvergent(f"no fixed point after {steps} steps")
        cur = nxt


def _trace(view: OrderedView, offsets, num: int, den: int, start) -> tuple:
    """The trace of one `_iterate` run: its start in task time units (the
    reduced weighted start, an int when whole, unless one was given), then
    every iterate."""
    if start is None:
        start = _ratio(num, den * view.scale)
        if start.denominator == 1:
            start = start.numerator
    iterates = []
    _kleene(view, offsets, num, den, iterates)
    return (start, *view.unscaled(iterates))


def wcrt_fixed_point(ts: TaskSet, target_index: int, start=None) -> RtaResult:
    """Exact WCRT by the classic recurrence, jitters treated as zero.

    Least fixed point of t = C_n + sum_{i<n} C_i*ceil(t/T_i), iterated from
    C_n/(1 - U_hp) (or from `start` when given; a start above that lower
    bound raises ValueError).  Schedulable iff wcrt <= deadline.
    """
    view = ordered_view(ts, target_index)
    return _iterate(view, (0,) * len(view.order), start,
                    ts[target_index].deadline)


def wcrt_fixed_point_jitter(ts: TaskSet, target_index: int, start=None) -> RtaResult:
    """Exact jitter-aware WCRT by the classic recurrence.

    Least fixed point of t = C_n + sum_{i<n} C_i*ceil((t + J_i)/T_i),
    iterated from (C_n + sum U_i*J_i)/(1 - U_hp) (or from `start` when
    given; a start above that lower bound raises ValueError).  Schedulable
    iff wcrt <= deadline - target jitter (the response is measured from
    release; arrival-to-deadline adds the target's own jitter).
    """
    view = ordered_view(ts, target_index)
    target = ts[target_index]
    return _iterate(view, tuple(map(neg, view.jitters)), start,
                    target.deadline - target.jitter)


def nested_ceil(x, z):
    """ceil(x + (1 - x/z)*ceil(z)) for rationals 0 < x <= z; equals ceil(z).

    The identity behind collapsing one stage's ceiling into the next: the
    correction term (1 - x/z)*ceil(z) never moves the sum across an integer
    boundary as long as 0 < x <= z.
    """
    x = Fraction(x)
    z = Fraction(z)
    if x <= 0 or x > z:
        raise DomainError(f"need 0 < x <= z, got x={x}, z={z}")
    return math.ceil(x + (1 - x / z) * math.ceil(z))
