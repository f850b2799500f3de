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


def _iterate(view: OrderedView, offsets, start, budget) -> RtaResult:
    """Least fixed point of t = C_n + sum C_i*ceil((t - O_i)/T_i).

    `offsets` O_i are subtracted, in view units: zeros for the classic
    recurrence, negated jitters for the jitter-aware one, demand shifts
    for the shifted models.  Returns the RtaResult, in task time units,
    whose margin is budget - wcrt (budget D or D - J).  Its trace starts
    at `start`, by default the exact rational weighted start; it is built
    on first read by iterating again on the same view, which is
    read-only.  A given start must be an int or a Fraction; one above
    both C_n and the weighted start raises ValueError.
    """
    lcm, unum, total = _converging_rates(view)
    scale = view.scale
    if start is None:
        # The weighted start in view units, as the pair num/den.
        num = view.target_wcet * lcm - sum(map(mul, unum, offsets))
        den = lcm - total
    else:
        if type(start) is not int and type(start) is not Fraction:
            raise ValueError(f"start must be an int or a Fraction, "
                             f"got {start!r}")
        if start * scale > view.target_wcet:
            # Iterates rise to the least fixed point from any start at or
            # below the weighted one, or at or below C_n, where the demand
            # is >= C_n when no offset reaches a period (the shifted models
            # start there).  From a higher start they can stop at a larger
            # fixed point.
            bound = _weighted_start(view, offsets)
            if start > bound:
                raise ValueError(f"start {start} is above the weighted lower "
                                 f"bound {bound} of the least fixed point")
        num, den = start.numerator * scale, start.denominator
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


def _weighted_start(view: OrderedView, offsets) -> Fraction:
    """(C_n - sum U_i*O_i)/(1 - U_hp) in task time units.

    A provable lower bound on the least fixed point: the demand dominates
    the line C_n + U_hp*t - sum U_i*O_i pointwise, so it is >= t up to
    there.
    """
    lcm, unum, total = view.rates()
    return _ratio(view.target_wcet * lcm - sum(map(mul, unum, offsets)),
                  (lcm - total) * view.scale)


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
