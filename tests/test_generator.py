"""Workload generation: frozen RNG vectors, exact-sum sampling, feasibility."""

import copy
import hashlib
import pickle
from dataclasses import replace
from fractions import Fraction

import pytest

from harmonic_rta import (
    GenConfig,
    Rng,
    brute_force_feasibility,
    gen_constrained_jitters,
    gen_harmonic_periods,
    gen_unconstrained_jitters,
    generate_interference_set,
    generate_with_target,
    random_analysis_set,
    solve_feasibility,
    uunifast,
    validate,
)
from harmonic_rta.generator import gen_unconstrained_jitters_raw


def test_rng_golden_vectors():
    r = Rng(0)
    assert [r.next_u64() for _ in range(4)] == [
        11091344671253066420, 13793997310169335082,
        1900383378846508768, 7684712102626143532]
    r = Rng(20260817)
    assert [r.next_u64() for _ in range(4)] == [
        14396649518365169888, 9100722926607332765,
        12741567751740247437, 13413056594587381104]


def _digest(words) -> str:
    return hashlib.sha256(",".join(map(str, words)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed, digest", [
    (0, "0c1cab94a90ec597"), (1, "9986da9e50344607"),
    (-1, "e515b9a8d14a69a3"), (2**64 + 5, "ed52bdf6d8425a3d")])
def test_rng_stream_digest(seed, digest):
    r = Rng(seed)
    assert _digest([r.next_u64() for _ in range(100_000)]) == digest


def test_rng_mixed_draws_digest():
    r = Rng(7)
    words = []
    for k in range(20_000):
        words += [r.randint(1, 4), r.uniform53(), r.randint(0, 2**70 + k)]
    assert _digest(words) == "1d523b1ea80c81fc"


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, pickle.dumps])
def test_rng_refuses_copy_and_pickle(clone):
    with pytest.raises(TypeError, match="seed a new Rng"):
        clone(Rng(3))


def test_rng_determinism_and_randint_bounds():
    # Two streams drawn interleaved share no state: each equals a lone run.
    a, b, alone = Rng(9), Rng(9), Rng(9)
    interleaved = [(a.next_u64(), b.next_u64()) for _ in range(50)]
    words = [alone.next_u64() for _ in range(50)]
    assert [x for x, _ in interleaved] == words
    assert [y for _, y in interleaved] == words
    r = Rng(3)
    draws = [r.randint(5, 7) for _ in range(200)]
    assert set(draws) <= {5, 6, 7}
    assert set(draws) == {5, 6, 7}


def test_randint_spans_above_two_to_the_64():
    span = 1 << 70
    draws = [Rng(seed).randint(5, 4 + span) for seed in (1, 1, 2)]
    assert all(5 <= d <= 4 + span for d in draws)
    assert draws[0] == draws[1] == 5 + 101834081503146298602
    assert draws[2] != draws[0]
    # Two words cover a span of 2^64 + 1; the draws still fill it.
    r = Rng(8)
    assert {r.randint(0, 1 << 64) >> 63 for _ in range(40)} == {0, 1}
    # A span of exactly 2^64 keeps the one-word stream.
    assert Rng(1).randint(0, (1 << 64) - 1) == Rng(1).next_u64()


def test_uunifast_golden():
    out = uunifast(5, Fraction(1, 2), Rng(42))
    assert out == [
        Fraction(4160095330851945, 18014398509481984),
        Fraction(83713377208253, 1125899906842624),
        Fraction(153770594706275, 4503599627370496),
        Fraction(217833751887575, 18014398509481984),
        Fraction(668693439461081, 4503599627370496),
    ]
    assert sum(out) == Fraction(1, 2)


def test_uunifast_exact_sum_and_positive():
    rng = Rng(6)
    for _ in range(100):
        n = rng.randint(1, 12)
        total = Fraction(rng.randint(1, 97), 100)
        out = uunifast(n, total, rng)
        assert len(out) == n
        assert sum(out) == total
        assert all(u > 0 for u in out)


def test_uunifast_single_task():
    assert uunifast(1, Fraction(3, 10), Rng(1)) == [Fraction(3, 10)]


def test_uunifast_mean_is_uniform():
    # Each share of the simplex has expectation total/n.
    rng = Rng(77)
    n, total, draws = 5, Fraction(1, 2), 10 ** 4
    sums = [Fraction(0)] * n
    for _ in range(draws):
        for i, u in enumerate(uunifast(n, total, rng)):
            sums[i] += u
    for s in sums:
        assert abs(s / draws - Fraction(1, 10)) < Fraction(1, 100)


def test_harmonic_periods():
    cfg = GenConfig(task_count=3, total_utilization=Fraction(1, 2))
    assert gen_harmonic_periods(1, cfg, Rng(0)) == [10]
    cfg22 = GenConfig(task_count=3, total_utilization=Fraction(1, 2),
                      factor_range=(2, 2))
    assert gen_harmonic_periods(3, cfg22, Rng(0)) == [10, 20, 40]
    rng = Rng(15)
    for _ in range(50):
        periods = gen_harmonic_periods(6, cfg, rng)
        for a, b in zip(periods, periods[1:]):
            assert b % a == 0
            assert 1 <= b // a <= 4


def test_constrained_jitters_in_range_and_feasible():
    rng = Rng(123)
    for _ in range(1000):
        n = rng.randint(1, 8)
        periods = [rng.randint(2, 10)]
        for _ in range(n - 1):
            periods.append(periods[-1] * rng.randint(1, 4))
        periods.reverse()
        wcets = [rng.randint(1, max(1, t // (n + 1))) for t in periods]
        jitters = gen_constrained_jitters(periods, wcets, rng)
        assert all(0 <= j < t for j, t in zip(jitters, periods))
        tasks = validate([
            _task(t, c, j, k + 1)
            for k, (t, c, j) in enumerate(zip(periods, wcets, jitters))
        ], relaxed=True)
        assert brute_force_feasibility(tasks, None).is_feasible


def _task(period, wcet, jitter, priority):
    from harmonic_rta import Task
    return Task(period=period, wcet=wcet, deadline=period, jitter=jitter,
                priority=priority)


def test_constrained_jitters_zero_width_collapse():
    # All middle wcets zero-width: the sampling windows pin every shifted
    # jitter to the same value.
    periods = [100, 10]
    wcets = [1, 1]
    rng = Rng(8)
    jitters = gen_constrained_jitters(periods, wcets, rng)
    assert len(jitters) == 2
    assert all(0 <= j < t for j, t in zip(jitters, periods))


def test_unconstrained_jitters_bounds():
    rng = Rng(44)
    periods = [1000, 100, 10]
    for alpha in (Fraction(1, 100), Fraction(1, 2), Fraction(1)):
        for _ in range(50):
            out = gen_unconstrained_jitters(periods, alpha, rng)
            for j, t in zip(out, periods):
                assert 0 <= j <= alpha * t
                assert j < t
    tiny = gen_unconstrained_jitters([10, 10], Fraction(1, 1000), Rng(1))
    assert tiny == [0, 0]


def test_unconstrained_jitters_raw_bounds():
    rng = Rng(45)
    periods = [1000, 100, 10]
    for _ in range(50):
        out = gen_unconstrained_jitters_raw(periods, Fraction(3, 10), rng)
        for j, t in zip(out, periods):
            assert 0 <= j < Fraction(3, 10) * t
    with pytest.raises(ValueError):
        gen_unconstrained_jitters_raw([10], Fraction(0), rng)


def test_interference_set_golden_seed7():
    cfg = GenConfig(task_count=5, total_utilization=Fraction(9, 10),
                    jitter_mode="constrained")
    ts = generate_interference_set(cfg, Rng(7))
    assert [(t.period, int(t.wcet), t.jitter, t.priority) for t in ts] == [
        (270, 6, 238, 1), (270, 51, 226, 2), (90, 58, 76, 3),
        (30, 1, 17, 4), (10, 1, 7, 5)]
    fr = solve_feasibility(ts, None)
    assert fr.is_feasible
    assert fr.m == (1, 1, 5, 17, 52)
    assert fr.virtual_jitter_max == 527


def test_with_target_golden_seed7():
    cfg = GenConfig(task_count=5, total_utilization=Fraction(9, 10),
                    jitter_mode="constrained")
    ts = generate_with_target(cfg, Rng(7))
    assert [(t.period, int(t.wcet), t.jitter, t.priority) for t in ts] == [
        (270, 6, 238, 1), (270, 51, 226, 2), (90, 58, 76, 3),
        (30, 1, 17, 4), (10, 1, 7, 5), (1080, 1, 683, 6)]
    assert ts.total_utilization < 1


def test_generation_is_deterministic_and_seed_sensitive():
    cfg = GenConfig(task_count=4, total_utilization=Fraction(3, 4))
    assert (generate_interference_set(cfg, Rng(11))
            == generate_interference_set(cfg, Rng(11)))
    assert (generate_interference_set(cfg, Rng(11))
            != generate_interference_set(cfg, Rng(12)))


def test_generated_sets_are_strictly_valid():
    rng = Rng(321)
    for _ in range(100):
        cfg = GenConfig(task_count=rng.randint(1, 10),
                        total_utilization=Fraction(rng.randint(5, 97), 100),
                        jitter_mode=("none", "unconstrained",
                                     "constrained")[rng.randint(0, 2)])
        ts = generate_interference_set(cfg, rng)
        assert len(ts) == cfg.task_count
        assert ts.total_utilization < 1
        for t in ts:
            assert isinstance(t.wcet, int)
            assert 1 <= t.wcet <= t.period
            assert 0 <= t.jitter < t.period
        tst = generate_with_target(cfg, rng)
        assert len(tst) == cfg.task_count + 1
        assert tst.total_utilization < 1


def test_generated_ids_follow_validate_rule():
    # A drawn set validated again without its ids is the same set.
    rng = Rng(4)
    for mode in ("none", "unconstrained", "constrained"):
        for integer in (True, False):
            cfg = GenConfig(task_count=6, total_utilization=Fraction(4, 5),
                            jitter_mode=mode, integer_wcets=integer)
            for ts in (generate_interference_set(cfg, rng),
                       generate_with_target(cfg, rng),
                       random_analysis_set(rng, jitter_mode=mode)):
                stripped = [replace(t, id="") for t in ts]
                assert validate(stripped, relaxed=not integer) == ts


def test_raw_sets_keep_exact_utilization():
    cfg = GenConfig(task_count=6, total_utilization=Fraction(19, 20),
                    integer_wcets=False)
    ts = generate_interference_set(cfg, Rng(2))
    assert ts.total_utilization == Fraction(19, 20)
    assert any(t.wcet.denominator > 1 for t in ts)


def test_config_validation():
    half = Fraction(1, 2)
    with pytest.raises(ValueError):
        GenConfig(task_count=0, total_utilization=half)
    for utilization in (Fraction(0), -half, Fraction(1)):
        with pytest.raises(ValueError,
                           match=r"^total utilization must be in \(0, 1\)$"):
            GenConfig(task_count=2, total_utilization=utilization)
    with pytest.raises(ValueError):
        GenConfig(task_count=2, total_utilization=half, factor_range=(0, 2))
    with pytest.raises(ValueError):
        GenConfig(task_count=2, total_utilization=half,
                  jitter_mode="sometimes")
    for alpha in (Fraction(2), Fraction(0), Fraction(-1)):
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\]$"):
            GenConfig(task_count=2, total_utilization=half, alpha=alpha)
    with pytest.raises(ValueError):
        GenConfig(task_count=2, total_utilization=half, base_period=0)
    # The accepted edges; a float utilization is converted exactly.
    assert GenConfig(task_count=2, total_utilization=half,
                     alpha=Fraction(1)).alpha == 1
    assert GenConfig(task_count=2,
                     total_utilization=0.5).total_utilization == half


@pytest.mark.parametrize("generate", [generate_interference_set,
                                      generate_with_target])
@pytest.mark.parametrize("field, value", [
    ("task_count", 3.0), ("base_period", 10.0), ("base_period", True),
    ("factor_range", (1, 2.0)), ("factor_range", (Fraction(1), 2)),
    ("factor_range", (2,)), ("factor_range", (1, 2, 3)), ("factor_range", ()),
    ("factor_range", 3), ("factor_range", None)])
def test_config_rejects_non_int_fields(generate, field, value):
    kwargs = {"task_count": 3, "total_utilization": Fraction(1, 2),
              field: value}
    with pytest.raises(ValueError, match=f"^{field} must "):
        generate(GenConfig(**kwargs), Rng(0))
