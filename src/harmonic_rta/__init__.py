"""Exact WCRT analysis for preemptive fixed-priority harmonic task sets.

Library layout:

- model: task/task-set types, validation, reverse-rate-monotonic ordering
- rta: classic fixed-point oracle (jitter-free and jitter-aware), nested_ceil
- harmonic: staged linear-time WCRT, uniform-jitter variant, bounds,
  shifted-demand model, restricted-jitter condition
- feasibility: virtual-jitter shift solver, brute-force oracle,
  virtual-jitter WCRT
- generator: seeded RNG, UUniFast, harmonic periods, jitter sampling
- simulator: exact preemptive fixed-priority schedule, level by level
- experiments: Monte Carlo sweeps behind the experiment subcommand
- cli: analyze / check-jitter / generate / experiment subcommands
"""

from .model import (
    DeadlineViolation,
    DuplicatePriority,
    JitterTooLarge,
    NonHarmonic,
    NonPositiveParameter,
    PiOrder,
    Task,
    TaskModelError,
    TaskSet,
    UtilizationOverload,
    load_tasks,
    pi_order,
    save_tasks,
    validate,
)
from .rta import (
    DomainError,
    NonConvergent,
    RtaResult,
    nested_ceil,
    wcrt_fixed_point,
    wcrt_fixed_point_jitter,
)
from .harmonic import (
    DeltaOutOfRange,
    HarmonicIterationTrace,
    JitterPresent,
    check_restricted_jitter,
    wcrt_exclusion_model,
    wcrt_harmonic,
    wcrt_jitter_bounds,
    wcrt_uniform_jitter,
    wcrt_with_delays,
)
from .feasibility import (
    FeasibilityResult,
    InfeasibleInput,
    SolverCheckFailed,
    brute_force_feasibility,
    solve_feasibility,
    wcrt_virtual_jitter,
)
from .generator import (
    GenConfig,
    Rng,
    SamplingFailed,
    gen_constrained_jitters,
    gen_harmonic_periods,
    gen_unconstrained_jitters,
    generate_interference_set,
    generate_with_target,
    uunifast,
)
from .simulator import (
    HorizonTooShort,
    SimConfig,
    SimTrace,
    simulate,
)
from .experiments import (
    CrossCheckRow,
    FeasibilitySweepRow,
    HeuristicQualityRow,
    default_alpha_grid,
    default_utilization_grid,
    feasibility_sweep,
    first_job_sim_horizon,
    heuristic_quality,
    oracle_cross_check,
    random_analysis_set,
    simulation_job_count,
)
from .cli import (
    AnalysisReport,
    CheckJitterReport,
    CliError,
    ReportRow,
    cmd_analyze,
    cmd_check_jitter,
    cmd_experiment,
    cmd_generate,
    format_decimal,
    main,
)

__version__ = "0.1.0"
