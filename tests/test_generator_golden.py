"""Golden check of every task set the strict generator draws.

Each group below draws over a fixed grid of configurations (or a fixed
random stream) and hashes the ``repr`` of every returned ``TaskSet``, or
the type and message of the exception raised instead.  The ``repr``
holds every task's fields, ids included, and the exact total utilization,
so a digest match means the same sets, drawn from the same random stream,
with the same retries and errors.  The digests were recorded before the
generator's draw path was reworked and must never be regenerated to make
a change pass.
"""

import hashlib
from fractions import Fraction
from itertools import product

import pytest

from harmonic_rta import (
    GenConfig,
    Rng,
    SamplingFailed,
    generate_interference_set,
    generate_with_target,
    random_analysis_set,
)

MODES = ("none", "unconstrained", "constrained")
FACTORS = ((1, 1), (1, 2), (1, 4), (2, 2))
BASES = (1, 10, 1000, 2 ** 64 + 1)
COUNTS = (1, 2, 3, 5, 8, 25, 200)
UTILIZATIONS = (Fraction(1, 100), Fraction(1, 2), Fraction(9, 10),
                Fraction(99, 100))


def _configs():
    """Every mode, wcet kind, factor range and base period.  Sets of 25 and
    200 tasks are drawn only over base periods of at least 1000: below
    that, most of them cannot fit and each costs a full sampling budget.
    The tests draw config k from Rng(k)."""
    cases = [case for case in product(MODES, (True, False), FACTORS, BASES,
                                      COUNTS)
             if case[4] <= 8 or case[3] >= 1000]
    return [GenConfig(task_count=n, total_utilization=UTILIZATIONS[k % 4],
                      base_period=base, factor_range=factors,
                      jitter_mode=mode, integer_wcets=integer)
            for k, (mode, integer, factors, base, n) in enumerate(cases)]


def _draw(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ArithmeticError, ValueError, SamplingFailed) as exc:
        return exc


def _line(result) -> str:
    if isinstance(result, Exception):
        return f"raise {type(result).__name__}: {result}"
    return repr(result)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_interference_sets_are_unchanged():
    results = [_draw(generate_interference_set, cfg, Rng(k))
               for k, cfg in enumerate(_configs())]
    assert sum(isinstance(r, SamplingFailed) for r in results) == 60
    assert _digest(map(_line, results)) == (
        "f71ef086779690d0313fc09acafbc6da13ec5ee6807796beee87070962160e9c")


def test_sets_with_target_are_unchanged():
    configs = _configs()
    results = [_draw(generate_with_target, cfg, Rng(k))
               for k, cfg in enumerate(configs)]
    assert sum(isinstance(r, SamplingFailed) for r in results) == 60
    # A target period above the largest factor times the largest
    # interfering period was doubled at least once.
    doubled = sum(not isinstance(ts, Exception)
                  and ts[-1].period // ts[0].period > cfg.factor_range[1]
                  for cfg, ts in zip(configs, results))
    assert doubled == 60
    assert _digest(map(_line, results)) == (
        "a5f686f32f618f44377f218f78df12dafe4ea654fdd5c1daed2caede2309d0ce")


ANALYSIS_DIGESTS = {
    "none":
        "468aafaa3c311d4fc05af5ed44d74e4efb0341761215c9fee67ed831881868e9",
    "unconstrained":
        "765729b9315650a5fcf858a788d0ff69ae6cb2cfcf2dfb43fb243c06d7b05453",
    "constrained":
        "b6e3b39fb6ead48cea45f308e2dc3f1f183451ef7134ab25d4589afcfb61c528",
}


@pytest.mark.parametrize("jitter_mode", MODES)
def test_analysis_sets_are_unchanged(jitter_mode):
    rng = Rng(20260901)
    lines = [_line(_draw(random_analysis_set, rng, max_tasks=12,
                         jitter_mode=jitter_mode)) for _ in range(2000)]
    assert _digest(lines) == ANALYSIS_DIGESTS[jitter_mode]
