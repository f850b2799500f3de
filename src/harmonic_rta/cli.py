"""Command-line surface: analyze task sets, check jitter feasibility,
generate workloads, and run the statistical experiments.

Exit codes: 0 all schedulable / feasible, 1 any unschedulable or infeasible
result, 2 on input, precondition, or self-check errors.  All tabular output
is CSV with `# key=value` metadata comment lines; reports are byte-identical
for identical inputs and flags apart from the timestamp line, which
--deterministic suppresses.
"""

from __future__ import annotations

import argparse
import functools
import gettext
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction

from .experiments import (
    DEFAULT_SIM_JOB_CAP,
    EXACT_METHODS,
    feasibility_sweep,
    heuristic_quality,
    method_result,
    method_values,
    oracle_cross_check,
    simulation_job_count,
)
from .feasibility import solve_feasibility
from .generator import (
    GenConfig,
    Rng,
    SamplingFailed,
    generate_interference_set,
    generate_with_target,
)
from .harmonic import _first_jittered
from .model import (
    Task,
    TaskSet,
    load_tasks,
    read_task_document,
    tasks_from_dict,
    tasks_to_dict,
)
from .rta import wcrt_fixed_point_jitter
from .simulator import HorizonTooShort, SimConfig, simulate

METHODS = (*EXACT_METHODS, "simulate")
EXPERIMENTS = ("heuristic-quality", "feasibility-sweep", "oracle-cross-check")

EXIT_OK = 0
EXIT_UNSCHEDULABLE = 1
EXIT_ERROR = 2

# The most jobs `analyze --method simulate` places.  The simulator keeps
# about 100 bytes per job: 2,000,000 jobs took 0.38 s and 200 MB on a
# 2-CPU Xeon for two tasks, and a larger set runs at about 0.6 us per job.
MAX_SIMULATED_JOBS = 2_000_000


class CliError(Exception):
    """User-facing command error; rendered to stderr with exit code 2."""


def format_decimal(value) -> str:
    """Correctly rounded 6-place rendering of a non-negative rational."""
    value = Fraction(value)
    whole, micros = divmod((2 * value.numerator * 10**6 + value.denominator)
                           // (2 * value.denominator), 10**6)
    return f"{whole}.{micros:06d}"


def _metadata(deterministic: bool, **items) -> dict:
    """The report metadata `items`, then a UTC timestamp unless
    `deterministic`."""
    if not deterministic:
        items["timestamp"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds")
    return items


def _render(metadata: dict, lines: list[str]) -> str:
    """`# key=value` metadata comment lines, then the report lines."""
    out = [f"# {key}={value}" for key, value in metadata.items()]
    out.extend(lines)
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class ReportRow:
    """One per-task analysis row; wcrt None marks an infeasible verdict."""

    task: Task
    method: str
    wcrt: Fraction | None = None
    schedulable: bool | None = None
    steps: int | None = None


@dataclass
class AnalysisReport:
    """Per-task WCRT rows plus reproducibility metadata."""

    rows: list[ReportRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def all_schedulable(self) -> bool:
        return all(row.schedulable for row in self.rows)

    def to_csv(self) -> str:
        lines = ["id,T,C,D,J,method,wcrt_num,wcrt_den,wcrt_decimal,"
                 "schedulable,steps"]
        for row in self.rows:
            if row.wcrt is None:
                num = den = dec = ""
            else:
                num = row.wcrt.numerator
                den = row.wcrt.denominator
                dec = format_decimal(row.wcrt)
            if row.schedulable is None:
                sched = "infeasible"
            else:
                sched = "true" if row.schedulable else "false"
            steps = "" if row.steps is None else row.steps
            task = row.task
            lines.append(f"{task.id},{task.period},{task.wcet},"
                         f"{task.deadline},{task.jitter},{row.method},"
                         f"{num},{den},{dec},{sched},{steps}")
        return _render(self.metadata, lines)


def _analyze_one(ts: TaskSet, index: int, method: str) -> ReportRow:
    result = method_result(ts, index, method)
    if result is None:
        return ReportRow(ts[index], method)
    return ReportRow(ts[index], method, result.wcrt, result.schedulable,
                     result.iterations)


def _simulate_rows(ts: TaskSet, targets: list[int],
                   fixed_points: list) -> list[ReportRow]:
    # One run serves every target: releasing each task maximally late
    # (offset = jitter) realizes the jitter-aware critical instant for all
    # priority levels at once.  The simulator checks every task's first
    # job, so the horizon covers every task's jitter-aware fixed point
    # (`fixed_points`, by index), not only the targets'.
    longest = max(task.period for task in ts)
    need = 2 * max(fixed_points)
    horizon = max(longest, -(-need.numerator // need.denominator))
    offsets = tuple(task.jitter for task in ts)
    jobs = simulation_job_count(ts, horizon, offsets)
    if jobs > MAX_SIMULATED_JOBS:
        raise CliError(f"simulation to horizon {horizon} needs {jobs} jobs, "
                       f"more than MAX_SIMULATED_JOBS={MAX_SIMULATED_JOBS}; "
                       f"use an exact method")
    trace = simulate(ts, SimConfig(horizon=horizon, release_offsets=offsets))
    rows = []
    for i in targets:
        task = ts[i]
        response = Fraction(trace.first_response(task.id))
        rows.append(ReportRow(task, "simulate", response,
                              task.jitter + response <= task.deadline,
                              len(trace.jobs)))
    return rows


def _cross_validate(ts: TaskSet, index: int, primary: str, primary_wcrt,
                    fixed_points=None) -> None:
    """Exact-agreement self-check of every method applicable to this target."""
    jittered = _first_jittered(ts, index) is not None
    known = {primary: primary_wcrt}
    if fixed_points:
        # The simulation horizon has already computed it for every task;
        # with no jitter up to the target it is the plain fixed point.
        name = "fixed-point-jitter" if jittered else "fixed-point"
        known[name] = fixed_points[index]
    values = method_values(ts, index, jittered, known)
    # Compared with the first, not hashed into a set: a Fraction's hash
    # runs Python code.  A fixed point always joins, so there is a first.
    wcrts = list(values.values())
    if wcrts.count(wcrts[0]) < len(wcrts):
        detail = ", ".join(f"{name}={value}" for name, value in
                           sorted(values.items()))
        raise CliError(
            f"cross-validation mismatch for task {ts[index].id}: {detail}")


def cmd_analyze(input_path: str, method: str, target: str = "all", *,
                cross_validate: bool = False,
                deterministic: bool = False) -> AnalysisReport:
    """Per-task WCRT report for a task-set file via the selected method."""
    if method not in METHODS:
        raise CliError(f"unknown method {method!r}; choose from "
                       f"{', '.join(METHODS)}")
    doc = read_task_document(input_path)
    ts = tasks_from_dict(doc, where=input_path)
    targets = _parse_target(ts, target)
    items = {"input": input_path, "method": method, "target": target}
    # Files written by the generate subcommand carry their seed at the top
    # level; anything else, a boolean too, yields no seed metadata.
    seed = doc.get("seed")
    if type(seed) is int:
        items["seed"] = seed
    report = AnalysisReport(metadata=_metadata(deterministic, **items))
    fixed_points = None
    if method == "simulate":
        fixed_points = [wcrt_fixed_point_jitter(ts, i).wcrt
                        for i in range(len(ts))]
        report.rows = _simulate_rows(ts, targets, fixed_points)
    else:
        report.rows = [_analyze_one(ts, i, method) for i in targets]
    if cross_validate:
        for row, i in zip(report.rows, targets):
            _cross_validate(ts, i, method, row.wcrt, fixed_points)
    return report


def _parse_target(ts: TaskSet, target: str) -> list[int]:
    if target == "all":
        return list(range(len(ts)))
    try:
        priority = int(target)
    except ValueError:
        raise CliError(f"target must be 'all' or a priority number, "
                       f"got {target!r}") from None
    if not 1 <= priority <= len(ts):
        raise CliError(f"target priority {priority} out of range 1..{len(ts)}")
    return [priority - 1]


@dataclass
class CheckJitterReport:
    """Feasibility verdict plus the solver's window trace."""

    result: object
    metadata: dict = field(default_factory=dict)

    def to_text(self) -> str:
        res = self.result
        if res.is_feasible:
            m = ",".join(str(v) for v in res.m)
            lines = [f"feasible, m=({m}), J'_max={res.virtual_jitter_max}"]
        else:
            lines = [f"infeasible at stage {res.failure_stage}"]
        windows = " -> ".join(f"[{lo}, {hi}]" for lo, hi in res.bound_trace)
        lines.append(f"windows: {windows}")
        for branch in res.branches:
            lines.append(
                f"branch at stage {branch.stage}: m={branch.lower_m} "
                f"(width diff {branch.diff_lower}) vs m={branch.upper_m} "
                f"(width diff {branch.diff_upper}) -> {branch.chosen}")
        return _render(self.metadata, lines)


def cmd_check_jitter(input_path: str, *,
                     deterministic: bool = False) -> CheckJitterReport:
    """Feasibility of a task file read as one interfering set."""
    ts = load_tasks(input_path)
    return CheckJitterReport(solve_feasibility(ts, None),
                             _metadata(deterministic, input=input_path))


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _run_analyze(args) -> int:
    report = cmd_analyze(args.input, args.method, args.target,
                         cross_validate=args.cross_validate,
                         deterministic=args.deterministic)
    _emit(report.to_csv(), args.output)
    return EXIT_OK if report.all_schedulable else EXIT_UNSCHEDULABLE


def _run_check_jitter(args) -> int:
    report = cmd_check_jitter(args.input, deterministic=args.deterministic)
    _emit(report.to_text(), args.output)
    return EXIT_OK if report.result.is_feasible else EXIT_UNSCHEDULABLE


def cmd_generate(args) -> int:
    """Write deterministic task-set files for the parsed generate flags."""
    if args.n < 1:
        raise CliError("--n must be >= 1")
    if args.with_target and args.n < 2:
        raise CliError("--with-target needs --n >= 2 (one interfering task)")
    if args.count < 1:
        raise CliError("--count must be >= 1")
    hp_count = args.n - 1 if args.with_target else args.n
    config = GenConfig(
        task_count=hp_count,
        total_utilization=args.utilization,
        base_period=args.base_period,
        factor_range=tuple(args.factor_range),
        jitter_mode=args.jitter_mode,
        alpha=args.alpha,
    )
    make = generate_with_target if args.with_target else generate_interference_set
    rng = Rng(args.seed)

    def render(index: int | None) -> str:
        doc = tasks_to_dict(make(config, rng))
        doc["seed"] = args.seed
        if index is not None:
            doc["index"] = index
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    if args.count == 1:
        _emit(render(None), args.output)
        return EXIT_OK
    if args.output is None:
        raise CliError("--count > 1 needs --output as a filename prefix")
    for k in range(args.count):
        path = f"{args.output}-{k:04d}.json"
        _emit(render(k), path)
        sys.stdout.write(path + "\n")
    return EXIT_OK


def cmd_experiment(args) -> int:
    """Run one named experiment for the parsed flags and emit its CSV."""
    if args.name == "oracle-cross-check":
        given = {"--utilization": args.utilization is not None}
    else:
        given = {"--jitter-mode": args.jitter_mode is not None,
                 "--no-simulation": args.no_simulation,
                 "--sim-job-cap": args.sim_job_cap is not None}
    for flag, present in given.items():
        if present:
            raise CliError(f"{flag} does not apply to {args.name}")
    if args.sets is not None and args.sets < 1:
        raise CliError("--sets must be >= 1")
    least_n = 2 if args.name == "oracle-cross-check" else 1
    if args.n is not None and args.n < least_n:
        raise CliError(f"--n must be >= {least_n} for {args.name}")
    # Every set has at least two tasks, so its simulation at least two jobs.
    if args.sim_job_cap is not None and args.sim_job_cap < 2:
        raise CliError("--sim-job-cap must be >= 2")
    if args.jobs < 1:
        raise CliError("--jobs must be >= 1")
    common = {"experiment": args.name, "seed": args.seed, "jobs": args.jobs}
    disagreements = 0
    if args.name == "heuristic-quality":
        hp_count = args.n if args.n is not None else 14
        sets = args.sets if args.sets is not None else 50000
        grid = (args.utilization,) if args.utilization is not None else None
        rows = heuristic_quality(hp_count=hp_count, sets_per_point=sets,
                                 grid=grid, seed=args.seed, jobs=args.jobs)
        meta = _metadata(args.deterministic, **common, hp_count=hp_count,
                         sets_per_point=sets)
        lines = ["utilization,sets,misclassified,rate"]
        lines += [f"{format_decimal(r.utilization)},{r.sets},"
                  f"{r.misclassified},{r.rate:.6e}" for r in rows]
    elif args.name == "feasibility-sweep":
        task_count = args.n if args.n is not None else 5
        sets = args.sets if args.sets is not None else 100000
        utilization = (args.utilization if args.utilization is not None
                       else Fraction(19, 20))
        rows = feasibility_sweep(task_count=task_count,
                                 total_utilization=utilization,
                                 sets_per_alpha=sets, seed=args.seed,
                                 jobs=args.jobs)
        meta = _metadata(args.deterministic, **common, task_count=task_count,
                         utilization=format_decimal(utilization),
                         sets_per_alpha=sets)
        lines = ["alpha,sets,feasible,fraction"]
        lines += [f"{format_decimal(r.alpha)},{r.sets},{r.feasible},"
                  f"{r.fraction:.6e}" for r in rows]
    else:  # oracle-cross-check
        max_tasks = args.n if args.n is not None else 12
        sets = args.sets if args.sets is not None else 1000
        jitter_mode = args.jitter_mode or "none"
        sim_job_cap = (args.sim_job_cap if args.sim_job_cap is not None
                       else DEFAULT_SIM_JOB_CAP)
        rows = oracle_cross_check(sets=sets, max_tasks=max_tasks,
                                  jittered=jitter_mode == "constrained",
                                  with_simulation=not args.no_simulation,
                                  sim_job_cap=sim_job_cap,
                                  seed=args.seed, jobs=args.jobs)
        disagreements = sum(1 for r in rows if not r.agree)
        meta = _metadata(args.deterministic, **common, sets=sets,
                         max_tasks=max_tasks, jitter_mode=jitter_mode,
                         disagreements=disagreements)
        lines = ["set_index,task_count,wcrt_num,wcrt_den,methods,agree"]
        lines += [f"{r.set_index},{r.task_count},{r.wcrt.numerator},"
                  f"{r.wcrt.denominator},{'+'.join(r.methods)},"
                  f"{'true' if r.agree else 'false'}" for r in rows]
    _emit(_render(meta, lines), args.output)
    return EXIT_OK if disagreements == 0 else EXIT_UNSCHEDULABLE


def _fraction(text: str) -> Fraction:
    """A rational flag value such as 0.95 or 19/20.

    A zero denominator is a usage error like any other malformed value,
    not a ZeroDivisionError from the command.
    """
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid Fraction value: {text!r}") from None


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser,
                        dict[str, argparse.ArgumentParser]]:
    """The command-line parser and each subcommand's parser by name.

    Each subcommand sets `run`, its handler.  Built on the first call in a
    process; parsing leaves them unchanged, so every later `main` reuses them.
    """
    parser = argparse.ArgumentParser(
        prog="harmonic-rta",
        description="Worst-case response time analysis for preemptive "
                    "fixed-priority harmonic task sets, with release-jitter "
                    "feasibility checking and statistical experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="per-task WCRT report for a task-set file")
    analyze.add_argument("--input", required=True, help="task-set JSON file")
    analyze.add_argument("--method", required=True, choices=METHODS)
    analyze.add_argument("--target", default="all",
                         help="'all' or a priority number (default all)")
    analyze.add_argument("--output", help="write CSV here instead of stdout")
    analyze.add_argument("--cross-validate", action="store_true",
                         help="fail unless every applicable method agrees")
    analyze.add_argument("--deterministic", action="store_true",
                         help="suppress the timestamp metadata line")
    analyze.set_defaults(run=_run_analyze)

    check = sub.add_parser(
        "check-jitter",
        help="jitter feasibility of a task file read as one interfering set")
    check.add_argument("--input", required=True)
    check.add_argument("--output")
    check.add_argument("--deterministic", action="store_true")
    check.set_defaults(run=_run_check_jitter)

    gen = sub.add_parser("generate", help="emit pseudo-random task-set files")
    gen.add_argument("--n", type=int, required=True, help="task count")
    gen.add_argument("--utilization", type=_fraction, default=Fraction(1, 2),
                     help="total utilization, e.g. 0.95 or 19/20")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1,
                     help="number of sets (> 1 writes OUTPUT-NNNN.json files)")
    gen.add_argument("--jitter-mode", default="none",
                     choices=("none", "unconstrained", "constrained"))
    gen.add_argument("--alpha", type=_fraction, default=Fraction(1),
                     help="jitter scale for --jitter-mode unconstrained")
    gen.add_argument("--base-period", type=int, default=10)
    gen.add_argument("--factor-range", type=int, nargs=2, default=(1, 4),
                     metavar=("LO", "HI"))
    gen.add_argument("--with-target", action="store_true",
                     help="last task is a lowest-priority analysis target")
    gen.add_argument("--output",
                     help="output file (or filename prefix with --count > 1)")
    gen.set_defaults(run=cmd_generate)

    exp = sub.add_parser("experiment", help="run a statistical experiment")
    exp.add_argument("name", choices=EXPERIMENTS)
    exp.add_argument("--sets", type=int,
                     help="sets per grid point, or total sets for "
                          "oracle-cross-check")
    exp.add_argument("--n", type=int,
                     help="interfering tasks (heuristic-quality), task count "
                          "(feasibility-sweep), or max tasks (oracle-cross-check)")
    exp.add_argument("--utilization", type=_fraction,
                     help="single grid point (heuristic-quality) or total "
                          "utilization (feasibility-sweep)")
    exp.add_argument("--jitter-mode", choices=("none", "constrained"),
                     help="oracle-cross-check corpus type (default none)")
    exp.add_argument("--no-simulation", action="store_true",
                     help="skip the simulation oracle in oracle-cross-check")
    exp.add_argument("--sim-job-cap", type=int,
                     help="redraw oracle-cross-check sets whose simulation "
                          f"schedules more jobs (default {DEFAULT_SIM_JOB_CAP})")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--jobs", type=int, default=1)
    exp.add_argument("--output")
    exp.add_argument("--deterministic", action="store_true")
    exp.set_defaults(run=cmd_experiment)

    return parser, {"analyze": analyze, "check-jitter": check,
                    "generate": gen, "experiment": exp}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        # What the full parse does for a named subcommand, without first
        # scanning every argument that the subcommand's parser scans again.
        args, extra = command.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            parser.error(gettext.gettext("unrecognized arguments: %s")
                         % " ".join(extra))
    try:
        return args.run(args)
    except (CliError, ValueError, ArithmeticError, OSError, SamplingFailed,
            HorizonTooShort) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
