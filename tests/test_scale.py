"""Correctness past the corpus sizes: 25 to 200 tasks per set.

The corpora and goldens stop at 12 tasks.  Here 100 sets per size, drawn
with a lowest-priority target (base period 1000, factors 1-2, U = 9/10),
check the staged analyses against the fixed-point oracle at the target:
without jitter staged = fixed point = exclusion model, in at most one
ceiling per higher-priority task; with constrained jitters the uniform
bounds bracket the exact WCRT, the virtual-jitter WCRT of every feasible
shift solution equals it, and so does the uniform-jitter WCRT at the
shared jitter wherever the restricted-jitter condition holds.  The
``repr`` of every result is hashed, of an RtaResult without its trace
(rebuilding a 200-task fixed-point trace doubles the test's time); the
digests were recorded before the shifted models lost their shared wrapper
and must never be regenerated to make a change pass.
"""

import hashlib
from fractions import Fraction

import pytest

from harmonic_rta import (
    GenConfig,
    Rng,
    check_restricted_jitter,
    generate_with_target,
    solve_feasibility,
    wcrt_exclusion_model,
    wcrt_fixed_point,
    wcrt_fixed_point_jitter,
    wcrt_harmonic,
    wcrt_jitter_bounds,
    wcrt_uniform_jitter,
    wcrt_virtual_jitter,
)
from harmonic_rta.harmonic import shared_jitter

SIZES = (25, 50, 100, 200)
SETS_PER_SIZE = 100


def _sets(n, mode):
    config = GenConfig(task_count=n - 1, total_utilization=Fraction(9, 10),
                       base_period=1000, factor_range=(1, 2),
                       jitter_mode=mode)
    rng = Rng(n)
    return [generate_with_target(config, rng) for _ in range(SETS_PER_SIZE)]


def _summary(result):
    return repr((result.wcrt, result.iterations, result.schedulable,
                 result.margin))


def _plain_lines(n):
    lines = []
    for ts in _sets(n, "none"):
        target = len(ts) - 1
        staged, trace = wcrt_harmonic(ts, target)
        fixed = wcrt_fixed_point(ts, target)
        exclusion = wcrt_exclusion_model(ts, target)
        assert staged.wcrt == fixed.wcrt == exclusion.wcrt
        assert trace.ceil_evals <= n - 1
        lines += [_summary(staged), repr(trace), _summary(fixed),
                  _summary(exclusion)]
    return lines


def _jitter_lines(n):
    lines = []
    solved = restricted = 0
    for ts in _sets(n, "constrained"):
        target = len(ts) - 1
        exact = wcrt_fixed_point_jitter(ts, target)
        low, high = wcrt_jitter_bounds(ts, target)
        assert low <= exact.wcrt <= high
        lines += [_summary(exact), repr((low, high))]
        feas = solve_feasibility(ts, target)
        lines.append(repr(feas))
        if feas.is_feasible:
            solved += 1
            virtual = wcrt_virtual_jitter(ts, target, feas)
            assert virtual.wcrt == exact.wcrt
            lines.append(_summary(virtual))
        if check_restricted_jitter(ts, target):
            restricted += 1
            uniform, _ = wcrt_uniform_jitter(ts, target,
                                             shared_jitter(ts, target))
            assert uniform.wcrt == exact.wcrt
            lines.append(_summary(uniform))
    lines.append(f"solved {solved}, restricted {restricted}")
    return lines


GOLDEN = {
    ("none", 25): (400, "80457e9b7a6d585903a03ebc714e1fc4acc4a72ed8eaad8e562f5171b9fe760f"),
    ("none", 50): (400, "f509f4a491af89fc0b808f7d41514fda43cca79afd9d67a0e095b774dc755838"),
    ("none", 100): (400, "7a417068346a2c2b3a8a4de672322f4728a294bd9658691d0d4b906b03ce5cad"),
    ("none", 200): (400, "e408f054dca8cbb6d966dad13e2233ce65c7dd153997ae0e63b008ba5689ba87"),
    ("constrained", 25): (401, "a909daad4b591be96bea2b2e4fd4991ba71ee3ed655255bee5bd37092353e547"),
    ("constrained", 50): (401, "3b22f10b726f1ffc30c79d5c0d2c7e30bf756d181b2ea5a250a590832fc11645"),
    ("constrained", 100): (401, "69e9c9dee08c812b2d1bd10a5944af9003fba528c9dd7cfe675cbee68291cf4e"),
    ("constrained", 200): (401, "183d8e77f3ec2f773bcfc1ccb2e0bd936593fe4e49792cd0da54021c7c602719"),
}


@pytest.mark.parametrize("mode, n", sorted(GOLDEN))
def test_large_sets_agree_with_the_oracle(mode, n):
    count, digest = GOLDEN[mode, n]
    make_lines = _plain_lines if mode == "none" else _jitter_lines
    lines = make_lines(n)
    assert len(lines) == count
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest
