"""Monte Carlo experiment drivers behind the command-line interface.

Every experiment shards its sample count into fixed-size chunks.  Chunk
``g`` (numbered globally across the whole experiment) draws from a fresh
generator seeded with ``seed + g``, so the aggregate counts are identical
for every ``jobs`` value and every chunk execution order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .feasibility import solve_feasibility, solve_feasibility_arrays
from .generator import (
    _TWO53,
    GenConfig,
    Rng,
    gen_constrained_jitters,
    gen_harmonic_periods,
    gen_unconstrained_jitters_raw,
    generate_with_target,
    uunifast,
)
from .harmonic import (
    check_restricted_jitter,
    wcrt_exclusion_model,
    wcrt_harmonic,
    wcrt_jitter_bounds,
    wcrt_uniform_jitter,
)
from .model import TaskSet, pi_order, scaled
from .rta import wcrt_fixed_point, wcrt_fixed_point_jitter
from .simulator import SimConfig, simulate
from .feasibility import wcrt_virtual_jitter

CHUNK_SIZE = 1000

# Sets whose simulation would schedule more jobs than this are redrawn.
DEFAULT_SIM_JOB_CAP = 20000


@dataclass(frozen=True)
class HeuristicQualityRow:
    """Misclassification count for one utilization grid point."""

    utilization: Fraction
    sets: int
    misclassified: int

    @property
    def rate(self) -> float:
        return self.misclassified / self.sets


@dataclass(frozen=True)
class FeasibilitySweepRow:
    """Feasible-set count for one jitter-scale grid point."""

    alpha: Fraction
    sets: int
    feasible: int

    @property
    def fraction(self) -> float:
        return self.feasible / self.sets


@dataclass(frozen=True)
class CrossCheckRow:
    """Agreement record for one randomly generated task set."""

    set_index: int
    task_count: int
    wcrt: Fraction
    methods: tuple[str, ...]
    agree: bool


def default_utilization_grid() -> tuple[Fraction, ...]:
    return tuple(Fraction(k, 100) for k in range(5, 100, 5))


def default_alpha_grid() -> tuple[Fraction, ...]:
    return tuple(Fraction(k, 10) for k in range(1, 11))


def _chunk_counts(total: int) -> list[int]:
    return [min(CHUNK_SIZE, total - start) for start in range(0, total, CHUNK_SIZE)]


def _map_chunks(worker, args_list, jobs: int) -> list:
    # More workers than chunks or CPUs would only add start-up cost.
    workers = min(jobs, len(args_list), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(*args) for args in args_list]
    # Worker processes, not threads: the chunks are pure-Python computation,
    # which threads cannot overlap.  "spawn" keeps the workers independent
    # of whatever threads the calling process runs.  Imported here because
    # the process machinery costs every serial caller import time and memory.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=get_context("spawn")) as pool:
        return list(pool.map(worker, *zip(*args_list)))


def _count_misclassified(seed: int, count: int, hp_count: int, utilization: Fraction) -> int:
    """Feasible-by-construction sets the staged solver rejects anyway."""
    rng = Rng(seed)
    config = GenConfig(task_count=hp_count, total_utilization=utilization)
    # Every wcet's denominator divides this; times scaled by it are ints.
    scale = config.total_utilization.denominator * _TWO53
    misclassified = 0
    for _ in range(count):
        periods = gen_harmonic_periods(hp_count, config, rng)[::-1]
        utils = uunifast(hp_count, utilization, rng)[::-1]
        wcets = [t * u for t, u in zip(periods, utils)]
        jitters = gen_constrained_jitters(periods, wcets, rng)
        result = solve_feasibility_arrays(scaled(periods, scale),
                                          scaled(wcets, scale),
                                          scaled(jitters, scale))
        if not result.is_feasible:
            misclassified += 1
    return misclassified


def heuristic_quality(
    *,
    hp_count: int = 14,
    sets_per_point: int = 50000,
    grid: tuple[Fraction, ...] | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> list[HeuristicQualityRow]:
    """Count false-infeasible verdicts across a total-utilization grid.

    Every generated jitter vector satisfies the feasibility constraints by
    construction, so any infeasible verdict is a misclassification of the
    solver's window heuristic.
    """
    points = tuple(grid) if grid is not None else default_utilization_grid()
    counts = _chunk_counts(sets_per_point)
    args_list = []
    g = 0
    for u in points:
        for count in counts:
            args_list.append((seed + g, count, hp_count, u))
            g += 1
    results = _map_chunks(_count_misclassified, args_list, jobs)
    rows = []
    for p, u in enumerate(points):
        misclassified = sum(results[p * len(counts):(p + 1) * len(counts)])
        rows.append(HeuristicQualityRow(utilization=u, sets=sets_per_point, misclassified=misclassified))
    return rows


def _count_feasible(
    seed: int,
    count: int,
    task_count: int,
    utilization: Fraction,
    alpha: Fraction,
) -> int:
    rng = Rng(seed)
    config = GenConfig(task_count=task_count, total_utilization=utilization)
    # Every wcet's and raw jitter's denominator divides this; times scaled
    # by it are ints.
    scale = (config.total_utilization.denominator
             * Fraction(alpha).denominator * _TWO53)
    feasible = 0
    for _ in range(count):
        periods = gen_harmonic_periods(task_count, config, rng)[::-1]
        utils = uunifast(task_count, utilization, rng)[::-1]
        jitters = gen_unconstrained_jitters_raw(periods, alpha, rng)
        wcets = [t * u for t, u in zip(periods, scaled(utils, scale))]
        result = solve_feasibility_arrays(scaled(periods, scale), wcets,
                                          scaled(jitters, scale))
        if result.is_feasible:
            feasible += 1
    return feasible


def feasibility_sweep(
    *,
    task_count: int = 5,
    total_utilization: Fraction = Fraction(19, 20),
    alphas: tuple[Fraction, ...] | None = None,
    sets_per_alpha: int = 100000,
    seed: int = 0,
    jobs: int = 1,
) -> list[FeasibilitySweepRow]:
    """Fraction of feasible sets under jitters drawn from [0, alpha*T)."""
    points = tuple(alphas) if alphas is not None else default_alpha_grid()
    counts = _chunk_counts(sets_per_alpha)
    args_list = []
    g = 0
    for alpha in points:
        for count in counts:
            args_list.append((seed + g, count, task_count, total_utilization, alpha))
            g += 1
    results = _map_chunks(_count_feasible, args_list, jobs)
    rows = []
    for p, alpha in enumerate(points):
        feasible = sum(results[p * len(counts):(p + 1) * len(counts)])
        rows.append(FeasibilitySweepRow(alpha=alpha, sets=sets_per_alpha, feasible=feasible))
    return rows


def random_analysis_set(
    rng: Rng,
    *,
    max_tasks: int = 12,
    jitter_mode: str = "none",
    base_period: int = 10,
    factor_range: tuple[int, int] = (1, 2),
    utilization_low: Fraction = Fraction(1, 20),
    utilization_high: Fraction = Fraction(49, 50),
) -> TaskSet:
    """One random harmonic set whose last task is the analysis target."""
    task_count = rng.randint(2, max_tasks)
    span = utilization_high - utilization_low
    utilization = utilization_low + Fraction(rng.randint(1, 10**6 - 1), 10**6) * span
    config = GenConfig(
        task_count=task_count - 1,
        total_utilization=utilization,
        base_period=base_period,
        factor_range=factor_range,
        jitter_mode=jitter_mode,
    )
    return generate_with_target(config, rng)


def simulation_job_count(ts: TaskSet, horizon: int) -> int:
    return sum(-((-horizon) // task.period) for task in ts)


def first_job_sim_horizon(ts: TaskSet, response: Fraction) -> int:
    """Horizon that provably covers the target's first job completion."""
    longest = max(task.period for task in ts)
    return max(longest, int(response) + 2)


def _draw_capped_set(rng: Rng, want_horizon: bool, sim_job_cap: int | None, knobs: dict):
    """Draw a set, redrawing while its simulation cost exceeds the cap.

    Returns (task_set, analytic response, horizon or None, redraw count).
    The analytic response is the staged iteration's value and is only
    computed for jitter-free sets; jittered draws are never simulated.
    """
    redraws = 0
    while True:
        ts = random_analysis_set(rng, **knobs)
        target = len(ts) - 1
        if knobs.get("jitter_mode", "none") != "none":
            return ts, None, None, redraws
        result, _ = wcrt_harmonic(ts, target)
        if not want_horizon:
            return ts, result.wcrt, None, redraws
        horizon = first_job_sim_horizon(ts, result.wcrt)
        if sim_job_cap is None or simulation_job_count(ts, horizon) <= sim_job_cap:
            return ts, result.wcrt, horizon, redraws
        redraws += 1


def _cross_check_plain(ts: TaskSet, response: Fraction, horizon: int | None) -> tuple[tuple[str, ...], bool]:
    target = len(ts) - 1
    values = {
        "harmonic": response,
        "fixed-point": wcrt_fixed_point(ts, target).wcrt,
        "exclusion": wcrt_exclusion_model(ts, target).wcrt,
    }
    if horizon is not None:
        trace = simulate(ts, SimConfig(horizon=horizon))
        values["simulate"] = trace.first_response(ts[target].id)
    agree = len(set(values.values())) == 1
    return tuple(values), agree


def _cross_check_jittered(ts: TaskSet) -> tuple[tuple[str, ...], Fraction, bool]:
    target = len(ts) - 1
    reference = wcrt_fixed_point_jitter(ts, target).wcrt
    methods = ["fixed-point-jitter"]
    agree = True
    feas = solve_feasibility(ts, target)
    if feas.is_feasible:
        methods.append("virtual-jitter")
        agree = agree and wcrt_virtual_jitter(ts, target, feas).wcrt == reference
    if check_restricted_jitter(ts, target):
        methods.append("uniform-jitter")
        order = pi_order(ts, target).order
        shared = ts[order[-1]].jitter if order else 0
        agree = agree and wcrt_uniform_jitter(ts, target, shared)[0].wcrt == reference
    low, high = wcrt_jitter_bounds(ts, target)
    methods.append("jitter-bounds")
    agree = agree and low <= reference <= high
    return tuple(methods), reference, agree


def _cross_check_chunk(
    seed: int,
    count: int,
    start_index: int,
    jittered: bool,
    with_simulation: bool,
    sim_job_cap: int | None,
    knobs: dict,
) -> list[CrossCheckRow]:
    rng = Rng(seed)
    want_horizon = with_simulation and not jittered
    rows = []
    for offset in range(count):
        ts, response, horizon, _ = _draw_capped_set(rng, want_horizon, sim_job_cap, knobs)
        if jittered:
            methods, value, agree = _cross_check_jittered(ts)
            rows.append(CrossCheckRow(start_index + offset, len(ts), value, methods, agree))
        else:
            methods, agree = _cross_check_plain(ts, response, horizon)
            rows.append(CrossCheckRow(start_index + offset, len(ts), response, methods, agree))
    return rows


def oracle_cross_check(
    *,
    sets: int = 1000,
    max_tasks: int = 12,
    jittered: bool = False,
    with_simulation: bool = True,
    sim_job_cap: int | None = DEFAULT_SIM_JOB_CAP,
    seed: int = 0,
    jobs: int = 1,
) -> list[CrossCheckRow]:
    """Compare every applicable analysis method on random sets.

    Jitter-free sets are checked for exact agreement between the staged
    iteration, classic fixed-point iteration, the exclusion model, and a
    discrete-event simulation of the synchronous release.  Jittered sets
    (constraint-satisfying by construction) are checked against the
    jitter-aware fixed point.
    """
    knobs = {
        "max_tasks": max_tasks,
        "jitter_mode": "constrained" if jittered else "none",
    }
    counts = _chunk_counts(sets)
    args_list = []
    start = 0
    for g, count in enumerate(counts):
        args_list.append((seed + g, count, start, jittered, with_simulation, sim_job_cap, knobs))
        start += count
    results = _map_chunks(_cross_check_chunk, args_list, jobs)
    rows: list[CrossCheckRow] = []
    for chunk_rows in results:
        rows.extend(chunk_rows)
    return rows
