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
from itertools import product

from .feasibility import (
    solve_feasibility,
    solve_feasibility_arrays,
    wcrt_virtual_jitter,
)
from .generator import (
    _TWO53,
    SAMPLING_ATTEMPTS,
    GenConfig,
    Rng,
    SamplingFailed,
    _constrained_jitters,
    _raw_jitter_numerators,
    _uunifast_numerators,
    gen_harmonic_periods,
    generate_with_target,
)
from .harmonic import (
    JitterPresent,
    _first_jittered,
    check_restricted_jitter,
    shared_jitter,
    wcrt_exclusion_model,
    wcrt_harmonic,
    wcrt_jitter_bounds,
    wcrt_uniform_jitter,
)
from .model import TaskSet, ordered_view
from .rta import wcrt_fixed_point, wcrt_fixed_point_jitter
from .simulator import SimConfig, simulate

CHUNK_SIZE = 1000

# The analysis methods method_result runs, by CLI name.
EXACT_METHODS = ("harmonic", "uniform-jitter", "fixed-point",
                 "fixed-point-jitter", "exclusion", "virtual-jitter")

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


def _grid_sums(worker, points, sets_per_point: int, fixed: tuple,
               seed: int, jobs: int) -> list[int]:
    """Per-point sums of worker(seed + g, count, *fixed, point) over the
    point's chunks, g numbering the chunks across the whole grid."""
    counts = _chunk_counts(sets_per_point)
    args_list = [(seed + g, count, *fixed, point)
                 for g, (point, count) in enumerate(product(points, counts))]
    results = _map_chunks(worker, args_list, jobs)
    k = len(counts)
    return [sum(results[p * k:(p + 1) * k]) for p in range(len(points))]


def _count_misclassified(seed: int, count: int, hp_count: int, utilization: Fraction) -> int:
    """Feasible-by-construction sets the staged solver rejects anyway."""
    rng = Rng(seed)
    config = GenConfig(task_count=hp_count, total_utilization=utilization)
    total = config.total_utilization
    # Times in units of 1/scale, the utilization grid: every wcet is an int.
    scale = total.denominator * _TWO53
    misclassified = 0
    for _ in range(count):
        periods = gen_harmonic_periods(hp_count, config, rng)[::-1]
        unums = _uunifast_numerators(hp_count, total, rng)[::-1]
        wcets = [t * u for t, u in zip(periods, unums)]
        jitters = _constrained_jitters(periods, wcets, scale, rng)
        result = solve_feasibility_arrays([t * scale for t in periods], wcets,
                                          [j * scale for j in jitters])
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
    sums = _grid_sums(_count_misclassified, points, sets_per_point,
                      (hp_count,), seed, jobs)
    return [HeuristicQualityRow(u, sets_per_point, misclassified)
            for u, misclassified in zip(points, sums)]


def _count_feasible(
    seed: int,
    count: int,
    task_count: int,
    utilization: Fraction,
    alpha: Fraction,
) -> int:
    rng = Rng(seed)
    config = GenConfig(task_count=task_count, total_utilization=utilization,
                       alpha=alpha)
    total, alpha = config.total_utilization, config.alpha
    # Times in units of 1/scale, the utilization grid refined by alpha's
    # denominator: every wcet and raw jitter is an int there.
    scale = total.denominator * alpha.denominator * _TWO53
    jitter_factor = alpha.numerator * total.denominator
    feasible = 0
    for _ in range(count):
        periods = gen_harmonic_periods(task_count, config, rng)[::-1]
        unums = _uunifast_numerators(task_count, total, rng)[::-1]
        jitters = _raw_jitter_numerators(periods, jitter_factor, rng)
        wcets = [t * u * alpha.denominator for t, u in zip(periods, unums)]
        result = solve_feasibility_arrays([t * scale for t in periods], wcets,
                                          jitters)
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
    sums = _grid_sums(_count_feasible, points, sets_per_alpha,
                      (task_count, total_utilization), seed, jobs)
    return [FeasibilitySweepRow(alpha, sets_per_alpha, feasible)
            for alpha, feasible in zip(points, sums)]


def random_analysis_set(
    rng: Rng,
    *,
    max_tasks: int = 12,
    jitter_mode: str = "none",
) -> TaskSet:
    """One random harmonic set whose last task is the analysis target."""
    task_count = rng.randint(2, max_tasks)
    # 1/20 + r/10^6 * (49/50 - 1/20), over one denominator.
    utilization = Fraction(5 * 10**6 + 93 * rng.randint(1, 10**6 - 1), 10**8)
    config = GenConfig(
        task_count=task_count - 1,
        total_utilization=utilization,
        base_period=10,
        factor_range=(1, 2),
        jitter_mode=jitter_mode,
    )
    return generate_with_target(config, rng)


def simulation_job_count(ts: TaskSet, horizon: int, offsets=None) -> int:
    """The jobs `simulate` schedules to `horizon` (at least every period)
    at these release offsets, None for all zero: per task the first job at
    0 and one at every k*T - offset below it, ceil((horizon + offset)/T)."""
    if offsets is None:
        offsets = (0,) * len(ts)
    return sum([-((-horizon - off) // task.period)
                for task, off in zip(ts, offsets)])


def first_job_sim_horizon(ts: TaskSet, response: Fraction) -> int:
    """Horizon that provably covers the target's first job completion."""
    longest = max(task.period for task in ts)
    return max(longest, int(response) + 2)


def _runs_as(method: str, index: int) -> str:
    """The method whose run gives `method`'s value at `index`: virtual
    jitter at index 0 has no interference to shift, so the plain
    jitter-aware fixed point is already exact there."""
    return ("fixed-point-jitter" if (method, index) == ("virtual-jitter", 0)
            else method)


def method_result(ts: TaskSet, index: int, method: str):
    """The RtaResult of one analysis method, by CLI name, or None when the
    greedy shift solver finds no solution for virtual jitter.

    Uniform jitter runs at `shared_jitter`.  `fixed-point` raises
    JitterPresent when the target or a task above it has jitter.  A name
    outside EXACT_METHODS raises ValueError.
    """
    method = _runs_as(method, index)
    if method == "virtual-jitter":
        feas = solve_feasibility(ts, index)
        return (wcrt_virtual_jitter(ts, index, feas) if feas.is_feasible
                else None)
    if method == "fixed-point-jitter":
        return wcrt_fixed_point_jitter(ts, index)
    if method == "harmonic":
        return wcrt_harmonic(ts, index)[0]
    if method == "uniform-jitter":
        return wcrt_uniform_jitter(ts, index, shared_jitter(ts, index))[0]
    if method == "exclusion":
        return wcrt_exclusion_model(ts, index)
    if method == "fixed-point":
        ordered_view(ts, index)  # an index out of range fails before the scan
        task = _first_jittered(ts, index)
        if task is not None:
            raise JitterPresent(
                f"method fixed-point requires a jitter-free task set, but "
                f"task {task.id} has jitter {task.jitter}")
        return wcrt_fixed_point(ts, index)
    raise ValueError(f"unknown method {method!r}; expected one of "
                     f"{', '.join(EXACT_METHODS)}")


def method_values(ts: TaskSet, index: int, jittered: bool,
                  known=None) -> dict:
    """The WCRT of every exact method that applies to one target, by name.

    Jitter-free targets: the staged iteration, the classic fixed point and
    the exclusion model.  Jittered targets: the jitter-aware fixed point,
    then, if the target has higher-priority tasks, the virtual-jitter WCRT
    when the shift system is feasible and the uniform-jitter WCRT when the
    restricted condition holds.  All values must be equal;
    ``analyze --cross-validate`` and ``oracle-cross-check`` both check
    this set.  `jittered` must say whether the target or a task above it
    has jitter.  `known` maps method names to the values the caller already
    has (None for no value); those methods are not run again, and the
    known values join the result.
    """
    known = known or {}
    ran = {_runs_as(name, index) for name in known}
    names = (("harmonic", "fixed-point", "exclusion") if not jittered
             else ("fixed-point-jitter",) if index == 0
             else ("fixed-point-jitter", "virtual-jitter", "uniform-jitter"))
    values = {}
    for name in names:
        if name in ran or (name == "uniform-jitter"
                           and not check_restricted_jitter(ts, index)):
            continue
        result = method_result(ts, index, name)
        if result is not None:
            values[name] = result.wcrt
    values.update((name, wcrt) for name, wcrt in known.items()
                  if wcrt is not None)
    return values


def _cross_check_chunk(
    seed: int,
    count: int,
    start_index: int,
    max_tasks: int,
    jittered: bool,
    with_simulation: bool,
    sim_job_cap: int,
) -> list[CrossCheckRow]:
    rng = Rng(seed)
    jitter_mode = "constrained" if jittered else "none"
    want_horizon = with_simulation and not jittered
    rows = []
    for set_index in range(start_index, start_index + count):
        # Redraw while the set's simulation would schedule too many jobs.
        for _ in range(SAMPLING_ATTEMPTS):
            ts = random_analysis_set(rng, max_tasks=max_tasks,
                                     jitter_mode=jitter_mode)
            target = len(ts) - 1
            values = method_values(ts, target, jittered)
            if not want_horizon:
                break
            horizon = first_job_sim_horizon(ts, values["harmonic"])
            if simulation_job_count(ts, horizon) <= sim_job_cap:
                break
        else:
            raise SamplingFailed(
                f"no set within the simulation job cap {sim_job_cap} in "
                f"{SAMPLING_ATTEMPTS} attempts")
        if want_horizon:
            trace = simulate(ts, SimConfig(horizon=horizon))
            values["simulate"] = trace.first_response(ts[target].id)
        methods = tuple(values)
        # The staged or the jitter-aware fixed-point value.
        wcrt = values[methods[0]]
        agree = len(set(values.values())) == 1
        if jittered:
            low, high = wcrt_jitter_bounds(ts, target)
            agree = agree and low <= wcrt <= high
            methods += ("jitter-bounds",)
        rows.append(CrossCheckRow(set_index, len(ts), wcrt, methods, agree))
    return rows


def oracle_cross_check(
    *,
    sets: int = 1000,
    max_tasks: int = 12,
    jittered: bool = False,
    with_simulation: bool = True,
    sim_job_cap: int = DEFAULT_SIM_JOB_CAP,
    seed: int = 0,
    jobs: int = 1,
) -> list[CrossCheckRow]:
    """Compare every applicable analysis method on random sets.

    Each set's target is checked for exact agreement of its
    `method_values`, plus, for jitter-free sets, a simulation of the
    synchronous release (sets whose simulation would schedule more than
    `sim_job_cap` jobs are redrawn; SamplingFailed after
    SAMPLING_ATTEMPTS draws in a row), or, for jittered sets
    (constraint-satisfying by construction), the jitter bounds bracketing
    the jitter-aware fixed point.  A `sim_job_cap` below 2 raises
    ValueError before any draw: every set has at least two tasks, so its
    simulation at least two first jobs.
    """
    if sim_job_cap < 2:
        raise ValueError(f"sim_job_cap must be >= 2, got {sim_job_cap}")
    args_list = [(seed + g, count, g * CHUNK_SIZE, max_tasks, jittered,
                  with_simulation, sim_job_cap)
                 for g, count in enumerate(_chunk_counts(sets))]
    results = _map_chunks(_cross_check_chunk, args_list, jobs)
    return [row for chunk_rows in results for row in chunk_rows]
