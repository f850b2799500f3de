"""Reproducible task-set generation for the experiments.

The random source is xoshiro256** seeded through splitmix64, a small,
portable, explicitly specified 64-bit generator, so identical seeds give
identical task sets on any platform or Python build (golden vectors are
pinned in the tests).  Utilizations come from UUniFast evaluated on a fixed
rational grid: each stick-breaking step runs the classic recurrence in
floating point, then floor-quantizes onto denominator(U_total) * 2^53, so
every utilization is an exact rational, the sum telescopes to exactly the
requested total, and denominators stay small enough for million-set sweeps.
The experiment kernels and the strict generator draw on the integer
numerators over that grid (the private `_`-prefixed functions); the public
functions return the same values as `Fraction`s.

Periods are harmonic chains (each period a small integer multiple of the
previous), jitters are drawn either unconstrained in [0, alpha*T] or as a
constraint-satisfying vector sampled in shifted-jitter space, which makes the
generated system feasible by construction with witness m_i = J'_i div T_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import Task, TaskSet, _suffix_sums, _task_id, scaled, validate

_MASK64 = (1 << 64) - 1
_TWO53 = 1 << 53
_ULP53 = 1.0 / _TWO53  # u * _ULP53 == u / _TWO53 exactly for u < 2^53

JITTER_NONE = "none"
JITTER_UNCONSTRAINED = "unconstrained"
JITTER_CONSTRAINED = "constrained"


# Draws a sampler makes before it gives up with SamplingFailed.
SAMPLING_ATTEMPTS = 1000
_GAVE_UP = f"could not sample a valid set in {SAMPLING_ATTEMPTS} attempts"


class SamplingFailed(RuntimeError):
    """No valid task set was drawn within the generator's attempt budget."""


def _xoshiro(seed: int):
    """The xoshiro256** words of `seed`, seeded through splitmix64.

    The state lives in this generator's locals: a step loads and stores no
    attribute.
    """
    state = seed & _MASK64
    s = []
    for _ in range(4):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        s.append(z ^ (z >> 31))
    s0, s1, s2, s3 = s
    mask = _MASK64
    while True:
        # rotl(x, k) is ((x << k) | (x >> (64 - k))) & mask; the result's
        # mask is applied once, after the multiplication.
        x = (s1 * 5) & mask
        t = s1 << 17
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 = (s2 ^ t) & mask
        s3 = ((s3 << 45) | (s3 >> 19)) & mask
        yield (((x << 7) | (x >> 57)) * 9) & mask


class Rng:
    """xoshiro256** with splitmix64 seeding; 64-bit pure-integer state.

    `next_u64()` returns the next 64-bit word.  An Rng cannot be copied or
    pickled: its state lives in a generator frame.
    """

    __slots__ = ("next_u64",)

    def __init__(self, seed: int):
        self.next_u64 = _xoshiro(seed).__next__

    def __reduce__(self):
        raise TypeError("an Rng cannot be copied or pickled; seed a new Rng "
                        "to repeat a stream")

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], rejection-sampled (no modulo bias).

        Each candidate is k 64-bit words, the fewest that hold span - 1 (one
        word for a span up to 2^64); candidates at or above the largest
        multiple of the span below 2^(64k) are rejected.
        """
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        total = 1 << 64  # 2^(64k)
        while total < span:
            total <<= 64
        limit = total - total % span
        next_u64 = self.next_u64
        while True:
            # Counting the k - 1 further words with `range` cost shift-sweep
            # 9% of its ops/s on a 2-CPU Xeon; this loop costs one comparison
            # per one-word candidate.
            u, reach = next_u64(), 1 << 64
            while reach < total:
                u = (u << 64) | next_u64()
                reach <<= 64
            if u < limit:
                return lo + u % span

    def uniform53(self) -> int:
        """53-bit numerator of a uniform draw over [0, 1) at denominator 2^53."""
        return self.next_u64() >> 11


@dataclass(frozen=True)
class GenConfig:
    """Knobs for one generation stream.

    factor_range bounds the integer ratio between consecutive periods;
    jitter_mode is one of "none", "unconstrained" (uses alpha) or
    "constrained"; integer_wcets False keeps exact rational wcets
    (experiment-grade sets that skip strict validation).
    """

    task_count: int
    total_utilization: Fraction
    base_period: int = 10
    factor_range: tuple[int, int] = (1, 4)
    jitter_mode: str = JITTER_NONE
    alpha: Fraction = Fraction(1)
    integer_wcets: bool = True

    def __post_init__(self):
        if type(self.total_utilization) is not Fraction:
            object.__setattr__(self, "total_utilization",
                               Fraction(self.total_utilization))
        if type(self.alpha) is not Fraction:
            object.__setattr__(self, "alpha", Fraction(self.alpha))
        if type(self.task_count) is not int:
            raise ValueError(f"task_count must be an int, got "
                             f"{self.task_count!r}")
        if type(self.base_period) is not int:
            raise ValueError(f"base_period must be an int, got "
                             f"{self.base_period!r}")
        try:
            types = tuple(map(type, self.factor_range))
        except TypeError:  # not iterable
            types = ()
        if types != (int, int):
            raise ValueError(f"factor_range must hold two ints, got "
                             f"{self.factor_range!r}")
        # On numerator and denominator: each Fraction comparison is a call.
        utilization, alpha = self.total_utilization, self.alpha
        if not 0 < utilization.numerator < utilization.denominator:
            raise ValueError("total utilization must be in (0, 1)")
        if self.task_count < 1:
            raise ValueError("need at least one task")
        if self.base_period < 1:
            raise ValueError("base period must be >= 1")
        if self.factor_range[0] < 1 or self.factor_range[1] < self.factor_range[0]:
            raise ValueError(f"bad factor range {self.factor_range}")
        if self.jitter_mode not in (JITTER_NONE, JITTER_UNCONSTRAINED,
                                    JITTER_CONSTRAINED):
            raise ValueError(f"unknown jitter mode {self.jitter_mode!r}")
        if not 0 < alpha.numerator <= alpha.denominator:
            raise ValueError("alpha must be in (0, 1]")


def uunifast(n: int, total_utilization, rng: Rng) -> list[Fraction]:
    """n positive rational utilizations summing exactly to the total.

    Classic stick breaking: the running remainder is multiplied by
    u^(1/(n-i)) with u uniform on [0, 1); the product is floor-quantized to
    the fixed grid denominator(total) * 2^53 (clamped so every task keeps a
    positive share), which preserves the exact telescoping sum.
    """
    total = Fraction(total_utilization)
    if not 0 < total < 1:
        raise ValueError(f"total utilization {total} outside (0, 1)")
    if n < 1:
        raise ValueError("need n >= 1")
    denom = total.denominator * _TWO53
    return [Fraction(x, denom) for x in _uunifast_numerators(n, total, rng)]


def _uunifast_numerators(n: int, total: Fraction, rng: Rng) -> list[int]:
    """uunifast's shares as integer numerators over denominator(total)*2^53."""
    uniform53 = rng.uniform53
    remainder = total.numerator * _TWO53
    out = []
    for slots in range(n - 1, 0, -1):
        u = uniform53() * _ULP53
        x_num = round((u ** (1.0 / slots)) * _TWO53)
        # Clamps as ifs: min and max calls cost more than the arithmetic.
        if x_num < 1:
            x_num = 1
        if x_num >= _TWO53:
            x_num = _TWO53 - 1
        nxt = (remainder * x_num) >> 53
        if nxt < slots:
            nxt = slots
        if nxt >= remainder:
            nxt = remainder - 1
        out.append(remainder - nxt)
        remainder = nxt
    out.append(remainder)
    return out


def gen_harmonic_periods(n: int, config: GenConfig, rng: Rng) -> list[int]:
    """Non-decreasing harmonic chain T_1 = base, T_{k+1} = T_k * factor."""
    lo, hi = config.factor_range
    randint = rng.randint
    period = config.base_period
    periods = [period]
    for _ in range(n - 1):
        period *= randint(lo, hi)
        periods.append(period)
    return periods


def gen_constrained_jitters(periods, wcets, rng: Rng) -> list[int]:
    """Jitters whose shift system is feasible by construction.

    Arrays must be in non-increasing period order.  Samples the shifted
    jitters directly: J'_first = T_first + J_first, J'_last within wcet-sum
    reach above it, every middle J' within wcet-sum reach below J'_last; real
    jitters are the shifted ones reduced mod the period, making
    m_i = J'_i div T_i a witness of the full system.
    """
    denom = math.lcm(*(c.denominator for c in wcets))
    return _constrained_jitters(periods, scaled(wcets, denom), denom, rng)


def _constrained_jitters(periods, wcet_nums, denom: int, rng: Rng
                         ) -> list[int]:
    """gen_constrained_jitters for wcets given as numerators over denom."""
    k = len(periods)
    if k == 0:
        return []
    randint = rng.randint
    j_first = randint(0, periods[0] - 1)
    if k == 1:
        return [j_first]
    suffix = _suffix_sums(wcet_nums)
    shifted_first = periods[0] + j_first
    shifted_last = randint(shifted_first, shifted_first + suffix[0] // denom)
    shifted = [shifted_first]
    for s in range(1, k - 1):
        lo = shifted_last - suffix[s] // denom
        shifted.append(randint(lo, shifted_last))
    shifted.append(shifted_last)
    return [sj % t for sj, t in zip(shifted, periods)]


def gen_unconstrained_jitters(periods, alpha, rng: Rng) -> list[int]:
    """Independent jitters, each uniform in [0, alpha*T] clamped below T."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    out = []
    for t in periods:
        hi = min(math.floor(alpha * t), t - 1)
        out.append(rng.randint(0, hi))
    return out


def gen_unconstrained_jitters_raw(periods, alpha, rng: Rng) -> list[Fraction]:
    """Independent rational jitters, each uniform in [0, alpha*T) at 53-bit
    resolution.

    Integral jitters align with the harmonic period lattice often enough to
    measurably inflate the feasible fraction in statistical sweeps; the
    raw-parameter regime therefore draws real-valued jitters, matching its
    raw rational wcets.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    denom = alpha.denominator * _TWO53
    return [Fraction(j, denom)
            for j in _raw_jitter_numerators(periods, alpha.numerator, rng)]


def _raw_jitter_numerators(periods, factor: int, rng: Rng) -> list[int]:
    """gen_unconstrained_jitters_raw's jitters as integer numerators.

    With factor = numerator(alpha) * k, each value is the jitter in units
    of 1 / (denominator(alpha) * 2^53 * k).
    """
    uniform53 = rng.uniform53
    return [uniform53() * factor * t for t in periods]


def _integer_wcets(periods, wcet_nums, denom: int) -> list[int]:
    # Round half up, clamped to [1, T-1] for T >= 2 so one near-saturated
    # task cannot pin utilization at exactly 1; the set-level cap is still
    # re-checked by the caller (rounding can push the sum past 1).
    out = []
    for t, w in zip(periods, wcet_nums):
        c = (2 * w + denom) // (2 * denom)
        hi = t - 1 if t > 1 else t
        out.append(max(1, min(c, hi)))
    return out


def _draw_tasks(config: GenConfig, rng: Rng) -> tuple[list[Task], int, int]:
    """One interfering set's tasks, not yet validated, with busy and whole.

    The set's utilization is busy / whole: busy = sum(C * (T_max // T)) with
    wcets in units of 1/unit (1 for integer wcets, the utilization grid's
    denominator for raw ones), and whole = T_max * unit.
    """
    n = config.task_count
    total = config.total_utilization
    denom = total.denominator * _TWO53
    for _ in range(SAMPLING_ATTEMPTS):
        periods = gen_harmonic_periods(n, config, rng)[::-1]
        # Wcets in units of 1/denom, the utilization grid: t * u is an int.
        wcet_nums = [t * u for t, u in
                     zip(periods, _uunifast_numerators(n, total, rng)[::-1])]
        if config.integer_wcets:
            wcets = _integer_wcets(periods, wcet_nums, denom)
            wcet_nums, unit = wcets, 1
        else:
            wcets = [Fraction(w, denom) for w in wcet_nums]
            unit = denom
        # Over the largest period, which all periods divide.  Raw wcets sum
        # to the requested utilization exactly, so only rounding can fail.
        t_max = periods[0]
        busy = sum([w * (t_max // t) for w, t in zip(wcet_nums, periods)])
        if busy >= t_max * unit:
            continue
        if config.jitter_mode == JITTER_CONSTRAINED:
            jitters = _constrained_jitters(periods, wcet_nums, unit, rng)
        elif config.jitter_mode == JITTER_UNCONSTRAINED:
            jitters = gen_unconstrained_jitters(periods, config.alpha, rng)
        else:
            jitters = [0] * n
        tasks = [Task(t, c, t, j, p, _task_id(p)) for p, (t, c, j) in
                 enumerate(zip(periods, wcets, jitters), 1)]
        return tasks, busy, t_max * unit
    raise SamplingFailed(_GAVE_UP)


def generate_interference_set(config: GenConfig, rng: Rng) -> TaskSet:
    """One random interfering task set (the higher-priority set of a target).

    Priority 1 is assigned to the largest period and so on downward, so the
    set's priority order equals the non-increasing period order its
    constrained jitters are sampled over.  Integer-wcet sets are strictly
    validated (resampling on utilization overload from rounding); raw sets
    keep exact rational wcets and relaxed validation.
    """
    tasks, _, _ = _draw_tasks(config, rng)
    return validate(tasks, relaxed=not config.integer_wcets)


def generate_with_target(config: GenConfig, rng: Rng) -> TaskSet:
    """An interfering set plus a lowest-priority analysis target.

    The target extends the harmonic chain by one factor draw (doubled as
    needed until the utilization headroom admits a strictly valid wcet),
    takes a wcet from half that headroom, deadline = period, and (in the
    jittered modes) its own jitter below its period.  config.task_count
    counts the higher-priority tasks.  Only the whole set is validated.
    """
    lo, hi = config.factor_range
    tasks, busy, whole = _draw_tasks(config, rng)
    period = tasks[0].period * rng.randint(lo, hi)
    # The headroom 1 - U is free / whole, exactly.
    free = whole - busy
    while free * period < 2 * whole:
        period *= 2
    c_hi = max(1, free * period // (2 * whole))
    wcet = 1 if c_hi <= 1 else rng.randint(1, c_hi)
    jitter = 0
    if config.jitter_mode != JITTER_NONE:
        jitter = rng.randint(0, period - 1)
    priority = len(tasks) + 1
    tasks.append(Task(period, wcet, period, jitter, priority,
                      _task_id(priority)))
    # busy < whole and a wcet within half the headroom keep U < 1 and C < T,
    # so the whole set passes validation.
    return validate(tasks, relaxed=not config.integer_wcets)
