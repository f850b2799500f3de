"""The four benchmark workloads: inputs, one timed op, checks and probes.

Each workload draws its inputs in its constructor (the set-up that
``setup_s`` times) and exposes ``items``, one entry per op call.  ``op``
runs one item through public package functions and returns a short output
string that later passes and the pinned values are compared against; it
raises on an exception or an oracle disagreement.  ``probe`` runs only in
the traced phase, after the op, and repeats public calls that split the op
into layers; it raises if its result drifts from the op's.

``--seed N`` offsets every base seed below by N, so seed 0 draws exactly
the acceptance-test corpora and experiment seeds.
"""

from __future__ import annotations

import hashlib
import io
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from harmonic_rta import (
    GenConfig,
    Rng,
    SimConfig,
    Task,
    check_restricted_jitter,
    cmd_analyze,
    cmd_check_jitter,
    default_alpha_grid,
    default_utilization_grid,
    feasibility_sweep,
    first_job_sim_horizon,
    heuristic_quality,
    load_tasks,
    main as cli_main,
    pi_order,
    random_analysis_set,
    save_tasks,
    simulate,
    simulation_job_count,
    solve_feasibility,
    validate,
    wcrt_exclusion_model,
    wcrt_fixed_point,
    wcrt_fixed_point_jitter,
    wcrt_harmonic,
    wcrt_jitter_bounds,
    wcrt_uniform_jitter,
    wcrt_virtual_jitter,
)
from harmonic_rta.feasibility import solve_feasibility_arrays
from harmonic_rta.generator import (
    gen_constrained_jitters,
    gen_harmonic_periods,
    gen_unconstrained_jitters_raw,
    uunifast,
)

# Sets whose first-job simulation would schedule more jobs are redrawn, as
# in the acceptance corpus.
SIM_JOB_CAP = 20_000


class Mismatch(AssertionError):
    """Two oracles, a pinned value or a probe disagree with the op."""


class Workload:
    """Defaults shared by the workloads below."""

    def weight(self, item) -> int:
        """Ops (generated sets or commands) that one item stands for."""
        return 1

    def probe(self, tr, item, output) -> None:
        pass

    def final_check(self, outputs: list[str]) -> None:
        pass

    def close(self) -> None:
        pass


class PlainCorpus(Workload):
    """Jitter-free sets drawn like the acceptance ``plain_corpus`` fixture."""

    name = "plain-corpus"
    base_seed = 20260817
    sets = 3000

    def __init__(self, seed: int, tr, tmp_root):
        rng = Rng(self.base_seed + seed)
        self.items = []
        for _ in range(self.sets):
            while True:
                ts = tr.call("experiments.random_analysis_set",
                             random_analysis_set, rng, max_tasks=12)
                target = len(ts) - 1
                result, _ = wcrt_harmonic(ts, target)
                horizon = first_job_sim_horizon(ts, result.wcrt)
                if simulation_job_count(ts, horizon) <= SIM_JOB_CAP:
                    break
                tr.note("generator", "redraws")
            self.items.append((ts, target, horizon))

    def op(self, tr, item) -> str:
        ts, target, horizon = item
        staged, trace = tr.call("harmonic.wcrt_harmonic", wcrt_harmonic,
                                ts, target)
        tr.note("harmonic.wcrt_harmonic", "ceil_evals", trace.ceil_evals)
        tr.note("harmonic.wcrt_harmonic", "early_stops",
                trace.early_stop_stage is not None)
        fixed = tr.call("rta.wcrt_fixed_point", wcrt_fixed_point, ts, target)
        tr.note("rta.wcrt_fixed_point", "iterations", fixed.iterations)
        excl = tr.call("harmonic.wcrt_exclusion_model", wcrt_exclusion_model,
                       ts, target)
        tr.note("harmonic.wcrt_exclusion_model", "iterations", excl.iterations)
        sim = tr.call("simulator.simulate", simulate, ts,
                      SimConfig(horizon=horizon))
        tr.note("simulator.simulate", "jobs", len(sim.jobs))
        tr.note("simulator.simulate", "preemptions", sim.preemption_count)
        first = sim.first_response(ts[target].id)
        if not staged.wcrt == fixed.wcrt == excl.wcrt == first:
            raise Mismatch(f"staged={staged.wcrt} fixed-point={fixed.wcrt} "
                           f"exclusion={excl.wcrt} simulate={first}")
        return str(staged.wcrt)

    def probe(self, tr, item, output) -> None:
        ts, target = item[0], item[1]
        tr.call("model.pi_order", pi_order, ts, target)
        tr.call("model.validate", validate, list(ts.tasks))


class JitterCorpus(PlainCorpus):
    """Constrained-jitter sets drawn like the ``jitter_corpus`` fixture."""

    name = "jitter-corpus"
    base_seed = 20260818
    sets = 1200

    def __init__(self, seed: int, tr, tmp_root):
        rng = Rng(self.base_seed + seed)
        self.items = []
        for _ in range(self.sets):
            ts = tr.call("experiments.random_analysis_set",
                         random_analysis_set, rng, max_tasks=10,
                         jitter_mode="constrained")
            self.items.append((ts, len(ts) - 1))

    def op(self, tr, item) -> str:
        ts, target = item
        ref = tr.call("rta.wcrt_fixed_point_jitter", wcrt_fixed_point_jitter,
                      ts, target)
        tr.note("rta.wcrt_fixed_point_jitter", "iterations", ref.iterations)
        feas = tr.call("feasibility.solve_feasibility", solve_feasibility,
                       ts, target)
        tr.note("feasibility.solve_feasibility", "feasible", feas.is_feasible)
        tr.note("feasibility.solve_feasibility", "branches",
                len(feas.branches))
        if feas.is_feasible:
            virtual = tr.call("feasibility.wcrt_virtual_jitter",
                              wcrt_virtual_jitter, ts, target, feas)
            if virtual.wcrt != ref.wcrt:
                raise Mismatch(f"virtual-jitter={virtual.wcrt} "
                               f"fixed-point-jitter={ref.wcrt}")
        restricted = tr.call("harmonic.check_restricted_jitter",
                             check_restricted_jitter, ts, target)
        tr.note("harmonic.check_restricted_jitter", "true", restricted)
        if restricted:
            order = tr.call("model.pi_order", pi_order, ts, target).order
            uniform, _ = tr.call("harmonic.wcrt_uniform_jitter",
                                 wcrt_uniform_jitter, ts, target,
                                 ts[order[-1]].jitter)
            if uniform.wcrt != ref.wcrt:
                raise Mismatch(f"uniform-jitter={uniform.wcrt} "
                               f"fixed-point-jitter={ref.wcrt}")
        low, high = tr.call("harmonic.wcrt_jitter_bounds", wcrt_jitter_bounds,
                            ts, target)
        if not low <= ref.wcrt <= high:
            raise Mismatch(f"bounds [{low}, {high}] miss {ref.wcrt}")
        return f"{ref.wcrt},{low},{high}"


class ShiftSweep(Workload):
    """The two experiment kernels at a reduced sets-per-point.

    One item is one grid point of ``heuristic_quality`` (14 hp tasks, the
    U >= 0.80 points) or ``feasibility_sweep`` (5 tasks, U = 19/20, default
    alpha grid), called with ``seed + point index``: for at most 1000 sets
    per point that is exactly the row the whole-grid call with ``seed``
    returns, which ``final_check`` confirms.  The grids are repeated for
    ``replicas`` whole-grid seeds spaced one grid apart, so no per-point
    seed repeats, starting from the acceptance-test seeds 1000 and 0.  An
    op is one generated set.
    """

    name = "shift-sweep"
    base_seeds = (1000, 0)
    replicas = 75
    sets_per_point = 5
    hq_tasks = 14
    fs_tasks = 5
    fs_utilization = Fraction(19, 20)

    def __init__(self, seed: int, tr, tmp_root):
        self.hq_grid = tuple(u for u in default_utilization_grid()
                             if u >= Fraction(4, 5))
        self.fs_grid = default_alpha_grid()
        hq_base = self.base_seeds[0] + seed * self.replicas * len(self.hq_grid)
        fs_base = self.base_seeds[1] + seed * self.replicas * len(self.fs_grid)
        self.grid_seeds = [(hq_base + r * len(self.hq_grid),
                            fs_base + r * len(self.fs_grid))
                           for r in range(self.replicas)]
        self.items = []
        for hq_seed, fs_seed in self.grid_seeds:
            self.items += [("heuristic-quality", u, hq_seed + p)
                           for p, u in enumerate(self.hq_grid)]
            self.items += [("feasibility-sweep", a, fs_seed + p)
                           for p, a in enumerate(self.fs_grid)]

    def weight(self, item) -> int:
        return self.sets_per_point

    def op(self, tr, item) -> str:
        kind, point, seed = item
        sets = self.sets_per_point
        if kind == "heuristic-quality":
            layer = "experiments.heuristic_quality"
            rows = tr.call(layer, heuristic_quality, hp_count=self.hq_tasks,
                           sets_per_point=sets, grid=(point,), seed=seed,
                           jobs=1)
            key, count = rows[0].utilization, rows[0].misclassified
            tr.note(layer, "misclassified", count)
        else:
            layer = "experiments.feasibility_sweep"
            rows = tr.call(layer, feasibility_sweep, task_count=self.fs_tasks,
                           total_utilization=self.fs_utilization,
                           alphas=(point,), sets_per_alpha=sets, seed=seed,
                           jobs=1)
            key, count = rows[0].alpha, rows[0].feasible
            tr.note(layer, "feasible", count)
        tr.note(layer, "sets", sets)
        if len(rows) != 1 or key != point or rows[0].sets != sets:
            raise Mismatch(f"{kind} returned {rows!r} for point {point}")
        return f"{kind},{point},{sets},{count}"

    def probe(self, tr, item, output) -> None:
        """Repeat the kernel's loop with public generator/solver calls."""
        kind, point, seed = item
        rng = Rng(seed)
        if kind == "heuristic-quality":
            n, utilization = self.hq_tasks, point
        else:
            n, utilization = self.fs_tasks, self.fs_utilization
        config = GenConfig(task_count=n, total_utilization=utilization)
        count = 0
        for _ in range(self.sets_per_point):
            periods = tr.call("generator.gen_harmonic_periods",
                              gen_harmonic_periods, n, config, rng)[::-1]
            utils = tr.call("generator.uunifast", uunifast, n, utilization,
                            rng)[::-1]
            wcets = [t * u for t, u in zip(periods, utils)]
            if kind == "heuristic-quality":
                jitters = tr.call("generator.gen_constrained_jitters",
                                  gen_constrained_jitters, periods, wcets, rng)
            else:
                jitters = tr.call("generator.gen_unconstrained_jitters_raw",
                                  gen_unconstrained_jitters_raw, periods,
                                  point, rng)
            result = tr.call("feasibility.solve_feasibility_arrays",
                             solve_feasibility_arrays, tuple(periods),
                             tuple(wcets), tuple(jitters))
            tr.note("feasibility.solve_feasibility_arrays", "feasible",
                    result.is_feasible)
            count += result.is_feasible == (kind == "feasibility-sweep")
        replica = f"{kind},{point},{self.sets_per_point},{count}"
        if replica != output:
            raise Mismatch(f"repeated kernel loop gave {replica}, "
                           f"kernel gave {output}")

    def final_check(self, outputs: list[str]) -> None:
        """The per-point rows must equal the whole-grid calls' rows."""
        sets = self.sets_per_point
        grid_rows = []
        for hq_seed, fs_seed in self.grid_seeds:
            grid_rows += [
                f"heuristic-quality,{r.utilization},{r.sets},{r.misclassified}"
                for r in heuristic_quality(
                    hp_count=self.hq_tasks, sets_per_point=sets,
                    grid=self.hq_grid, seed=hq_seed, jobs=1)]
            grid_rows += [
                f"feasibility-sweep,{r.alpha},{r.sets},{r.feasible}"
                for r in feasibility_sweep(
                    task_count=self.fs_tasks,
                    total_utilization=self.fs_utilization,
                    sets_per_alpha=sets, seed=fs_seed, jobs=1)]
        drifted = sum(a != b for a, b in zip(grid_rows, outputs))
        if drifted or len(grid_rows) != len(outputs):
            raise Mismatch(f"{drifted} per-point rows differ from the "
                           f"whole-grid rows")


# (period, wcet, jitter) rows of the reference sets used by the tests: the
# six-task Table-1 set and the five-task shift-solver walkthrough.
TABLE1 = ((60, 6, 8), (60, 8, 0), (30, 4, 9), (360, 13, 7), (120, 7, 3),
          (360, 12, 9))
WALKTHROUGH = ((240, 1, 167), (120, 50, 119), (120, 50, 0), (20, 1, 0),
               (10, 1, 0))

PLAIN_METHODS = ("harmonic", "uniform-jitter", "fixed-point",
                 "fixed-point-jitter", "exclusion", "virtual-jitter",
                 "simulate")
JITTER_METHODS = ("uniform-jitter", "fixed-point-jitter", "virtual-jitter")


class CommandFailed(RuntimeError):
    """A command exited with code 2."""


class CliFiles(Workload):
    """In-process ``harmonic-rta`` commands over seeded task files.

    The files are written to a fresh directory under ``tmp_root``:
    jitter-free and constrained-jitter sets from ``generate``, plus the
    Table-1 and walkthrough sets.  Every method that applies to a file is
    run with ``analyze --target all --deterministic``, with
    ``--cross-validate`` except for ``uniform-jitter``: that check exits 2
    whenever the restricted-jitter condition fails for some target, which
    is a property of the input, not a defect.  ``simulate`` runs only on
    jitter-free files and ``check-jitter`` only on jittered ones.
    """

    name = "cli-files"
    base_seed = 0
    files_per_kind = 91
    task_count = "5"

    def __init__(self, seed: int, tr, tmp_root):
        self.tmp = tempfile.mkdtemp(prefix="cli-files-", dir=tmp_root)
        try:
            self._write_files(self.base_seed + seed)
        except BaseException:
            self.close()
            raise

    def _write_files(self, seed: int) -> None:
        common = ["--n", self.task_count, "--factor-range", "1", "2",
                  "--with-target", "--count", str(self.files_per_kind)]
        plain, jittered = f"{self.tmp}/plain", f"{self.tmp}/jitter"
        for argv in (
                ["generate", "--utilization", "7/10", "--seed", str(seed),
                 "--output", plain, *common],
                ["generate", "--utilization", "3/5", "--seed", str(seed + 1),
                 "--jitter-mode", "constrained", "--output", jittered,
                 *common]):
            code, _, err = self._run(argv)
            if code != 0:
                raise CommandFailed(f"{' '.join(argv)} exited {code}: {err}")
        plain_files = [f"{plain}-{k:04d}.json"
                       for k in range(self.files_per_kind)]
        jitter_files = [f"{jittered}-{k:04d}.json"
                        for k in range(self.files_per_kind)]
        for label, rows in (("table1", TABLE1), ("walkthrough", WALKTHROUGH)):
            path = f"{self.tmp}/{label}.json"
            save_tasks(validate([
                Task(period=t, wcet=c, deadline=t, jitter=j, priority=p + 1,
                     id=f"t{p + 1}") for p, (t, c, j) in enumerate(rows)]),
                path)
            jitter_files.append(path)
        self.items = []
        for path in plain_files:
            self.items += [self._analyze(path, m) for m in PLAIN_METHODS]
        for path in jitter_files:
            self.items += [self._analyze(path, m) for m in JITTER_METHODS]
            self.items.append(("check-jitter", path, None, False))

    @staticmethod
    def _analyze(path, method):
        return ("analyze", path, method, method != "uniform-jitter")

    @staticmethod
    def argv(item) -> list[str]:
        command, path, method, cross = item
        argv = [command, "--input", path, "--deterministic"]
        if command == "analyze":
            argv += ["--method", method, "--target", "all"]
            if cross:
                argv.append("--cross-validate")
        return argv

    @staticmethod
    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(argv)
        return code, out.getvalue(), err.getvalue()

    def _digest(self, item, code, text) -> str:
        """Digest of what a correct change must keep: the exit code and the
        output, without the temporary directory and without the shift
        solver's witness, windows and branch records, which an exact solver
        may legitimately change."""
        command, _, method, _ = item
        lines = text.replace(self.tmp, "<tmp>").splitlines()
        if command == "check-jitter":
            verdict = next(line for line in lines if not line.startswith("#"))
            lines = [line for line in lines if line.startswith("#")]
            lines.append(verdict.split()[0].rstrip(","))
        elif method == "virtual-jitter":
            lines = [line if line.startswith("#") else line.rsplit(",", 1)[0]
                     for line in lines]
        text = "\n".join([str(code)] + lines)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def op(self, tr, item) -> str:
        argv = self.argv(item)
        code, text, err = tr.call("cli.main", self._run, argv)
        if code == 2:
            raise CommandFailed(f"{' '.join(argv)} exited 2: {err.strip()}")
        return self._digest(item, code, text)

    def probe(self, tr, item, output) -> None:
        """Split one command into the public calls ``cli.main`` makes."""
        command, path, method, cross = item
        tr.call("model.load_tasks", load_tasks, path)
        if command == "analyze":
            report = tr.call("cli.cmd_analyze", cmd_analyze, path, method,
                             "all", cross_validate=cross, deterministic=True)
            text = tr.call("cli.AnalysisReport.to_csv", report.to_csv)
            code = 0 if report.all_schedulable else 1
        else:
            report = tr.call("cli.cmd_check_jitter", cmd_check_jitter, path,
                             deterministic=True)
            text = tr.call("cli.CheckJitterReport.to_text", report.to_text)
            code = 0 if report.result.is_feasible else 1
        if self._digest(item, code, text) != output:
            raise Mismatch(f"{' '.join(self.argv(item))}: public calls and "
                           f"cli.main disagree")

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PlainCorpus, JitterCorpus, ShiftSweep,
                                 CliFiles)}
