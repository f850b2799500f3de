"""Benchmark for harmonic-rta: four seeded workloads, checked outputs.

Usage, from the repository root:

    python3 benchmarks/run.py [--workload NAME|all] [--seed N]
                              [--seconds S] [--trace 0|1]

One run builds a workload's inputs, then runs its ops as a closed loop in
this one process (no worker threads, every experiment call with
``jobs=1``) in whole passes over the inputs until ``--seconds`` have
elapsed.  Every op's output is checked: oracles must agree exactly, each
pass must repeat the first, and at the default seed 0 the outputs must
equal the values pinned in ``benchmarks/pins.json``.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.  All
times are in reference time, which cancels the changing speed of a shared
CPU (see REFERENCE_KERNEL_NS).  ``setup_s`` is the median over separate
``--setup-only`` processes (interpreter start, package import, drawing or
writing the inputs).
``--trace 1`` spends half the time untraced and half traced, records one
span per public call (see tracing.py), writes the spans to
``.bench_out/`` and prints the per-layer metrics plus the tracing overhead.
``--workload all`` runs every workload in its own process and prints a
table of all end-to-end metrics, ``fail_ratio`` included.

For a single workload, the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the ``#`` lines before it record the Python version, CPU
count and model, seed, passes and ops of the run.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5
# Other tenants of a shared CPU change its speed by up to 2x for tens of
# seconds at a time.  Reported times are therefore scaled to a machine on
# which the fastest of CALIBRATION_REPEATS runs of reference_kernel takes
# REFERENCE_KERNEL_NS, re-measured after every CHUNK_NS of ops.  That is
# about the kernel's median time on the shared 2-CPU Intel Xeon VM the first
# baseline was recorded on.
REFERENCE_KERNEL_NS = 200_000
CALIBRATION_REPEATS = 3
CHUNK_NS = 25_000_000
MAX_ERRORS_SHOWN = 3

# Layers reported by the traced run, as <module>.<function>.
LAYERS = (
    "harmonic.wcrt_harmonic", "harmonic.wcrt_exclusion_model",
    "harmonic.wcrt_jitter_bounds", "harmonic.wcrt_uniform_jitter",
    "harmonic.check_restricted_jitter",
    "rta.wcrt_fixed_point", "rta.wcrt_fixed_point_jitter",
    "simulator.simulate",
    "feasibility.solve_feasibility", "feasibility.wcrt_virtual_jitter",
    "feasibility.solve_feasibility_arrays",
    "generator.gen_harmonic_periods", "generator.uunifast",
    "generator.gen_constrained_jitters",
    "generator.gen_unconstrained_jitters_raw",
    "experiments.heuristic_quality", "experiments.feasibility_sweep",
    "experiments.random_analysis_set",
    "model.pi_order", "model.validate", "model.load_tasks",
    "cli.main", "cli.cmd_analyze", "cli.cmd_check_jitter",
    "cli.AnalysisReport.to_csv",
)
LAYER_STATS = ("calls", "us_mean", "us_p50", "busy_share")

# (layer, stat, summed counter, divisor counter or None for calls).
COUNTER_RATIOS = (
    ("harmonic.wcrt_harmonic", "ceil_evals_mean", "ceil_evals", None),
    ("harmonic.wcrt_harmonic", "early_stop_ratio", "early_stops", None),
    ("harmonic.wcrt_exclusion_model", "iterations_mean", "iterations", None),
    ("harmonic.check_restricted_jitter", "true_ratio", "true", None),
    ("rta.wcrt_fixed_point", "iterations_mean", "iterations", None),
    ("rta.wcrt_fixed_point_jitter", "iterations_mean", "iterations", None),
    ("simulator.simulate", "jobs_mean", "jobs", None),
    ("simulator.simulate", "preemptions_mean", "preemptions", None),
    ("feasibility.solve_feasibility", "feasible_ratio", "feasible", None),
    ("feasibility.solve_feasibility", "branches_mean", "branches", None),
    ("feasibility.solve_feasibility_arrays", "feasible_ratio", "feasible",
     None),
    ("experiments.heuristic_quality", "misclassified_ratio",
     "misclassified", "sets"),
    ("experiments.feasibility_sweep", "feasible_ratio", "feasible", "sets"),
)


def die(message: str, code: int = 2):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def import_workloads():
    """Import the package from this checkout's src/, never another copy."""
    sys.path.insert(0, str(SRC))
    try:
        import harmonic_rta
        import workloads
    except ImportError as exc:
        die(f"cannot import harmonic_rta from {SRC}: {exc}")
    if Path(harmonic_rta.__file__).resolve().parent.parent != SRC:
        die(f"imported harmonic_rta from {harmonic_rta.__file__}, "
            f"not from {SRC}")
    return workloads


def ratio(num, den) -> float:
    return num / den if den else 0.0


def reference_kernel() -> int:
    """Fixed pure-Python work, independent of the package, that tracks how
    fast the shared CPU runs right now: the kinds of work the package does
    (rational arithmetic, a heap, JSON, formatting, sorting)."""
    total, heap = Fraction(0), []
    for i in range(1, 60):
        total += Fraction(i % 7 + 1, i % 11 + 2)
        heapq.heappush(heap, (i * 7919) % 1009)
    doc = {"tasks": [{"period": 10 * k, "wcet": k, "id": f"t{k}"}
                     for k in range(1, 12)]}
    text = json.dumps(doc, sort_keys=True)
    rows = sorted(json.loads(text)["tasks"], key=lambda t: -t["period"])
    return len(",".join(f"{t['id']}={t['wcet']}/{t['period']}" for t in rows))


def speed_scale() -> float:
    """Factor that turns a time measured now into reference time."""
    fastest = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        began = perf_counter_ns()
        reference_kernel()
        fastest = min(fastest, perf_counter_ns() - began)
    return REFERENCE_KERNEL_NS / fastest


def measure(work, tr, seconds: float, expected: list, probe: bool) -> dict:
    """Run whole passes over ``work.items`` until ``seconds`` have passed.

    ``expected[i]`` is item i's pinned output, or None until the first pass
    fills it in; any other output counts as a failed op.

    Times are in reference time (see REFERENCE_KERNEL_NS): every chunk of
    about CHUNK_NS of ops is bracketed by runs of ``reference_kernel`` and
    scaled by their mean factor, and an item's latency is the median of its
    scaled runs over the passes.
    """
    runs = [[] for _ in work.items]
    errors = []
    ops = failed = passes = 0
    chunk = []
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    scale = speed_scale()
    chunk_start, first_span = perf_counter_ns(), tr.mark()
    while passes == 0 or perf_counter_ns() < deadline:
        for index, item in enumerate(work.items):
            weight = work.weight(item)
            tr.op_id = passes * len(work.items) + index
            began = perf_counter_ns()
            try:
                output = tr.call("op", work.op, tr, item)
            except Exception as exc:  # every failure is counted, not fatal
                output = None
                errors.append(f"{type(exc).__name__}: {exc}")
            chunk.append((index, (perf_counter_ns() - began) / weight))
            if probe and output is not None:
                try:
                    tr.call("probe", work.probe, tr, item, output)
                except Exception as exc:
                    output = None
                    errors.append(f"probe {type(exc).__name__}: {exc}")
            if output is not None and expected[index] is None:
                expected[index] = output
            elif output is None or output != expected[index]:
                failed += weight
                if output is not None:
                    errors.append(f"item {index}: output {output!r} != "
                                  f"expected {expected[index]!r}")
            ops += weight
            if perf_counter_ns() - chunk_start >= CHUNK_NS:
                scale = flush(chunk, runs, tr, first_span, scale)
                chunk_start, first_span = perf_counter_ns(), tr.mark()
        passes += 1
    flush(chunk, runs, tr, first_span, scale)
    wall_s = (perf_counter_ns() - start) / 1e9
    latencies = [statistics.median(r) for r in runs]
    weights = [work.weight(item) for item in work.items]
    return {"ops": ops, "failed": failed, "passes": passes,
            "wall_ops_per_s": ops / wall_s,
            "ops_per_s": sum(weights) * 1e9 / sum(
                ns * w for ns, w in zip(latencies, weights)),
            "latencies_us": [ns / 1e3 for ns in latencies], "errors": errors}


def flush(chunk: list, runs: list, tr, first_span: int,
          scale_before: float) -> float:
    """Scale a chunk's op times and spans into reference time; return the
    scale measured now, which also opens the next chunk."""
    scale_after = speed_scale()
    scale = (scale_before + scale_after) / 2
    for index, ns in chunk:
        runs[index].append(ns * scale)
    chunk.clear()
    tr.rescale(first_span, scale)
    return scale_after


def setup_seconds(args) -> list[float]:
    """Reference time of fresh processes that only build the inputs.

    Each process scales its own wall time by the mean of the speed scales
    it measured just before and after building the inputs.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        began = perf_counter()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        took = perf_counter() - began
        if done.returncode != 0:
            die(f"set-up process failed: {done.stderr.strip()}")
        samples.append(took * float(done.stdout))
    return samples


def per_layer_metrics(tr, untraced: dict, traced: dict) -> dict:
    table = tr.layer_table()
    empty = dict.fromkeys(LAYER_STATS + ("us_total",), 0.0)
    layer = {name: table.get(name, empty) for name in LAYERS}
    metrics = {f"{name}.{stat}": float(layer[name][stat])
               for name in LAYERS for stat in LAYER_STATS}
    for name, stat, counter, divisor in COUNTER_RATIOS:
        den = (tr.notes[(name, divisor)] if divisor
               else layer[name]["calls"])
        metrics[f"{name}.{stat}"] = ratio(tr.notes[(name, counter)], den)
    metrics["harmonic.staged_speedup_vs_fixed_point"] = ratio(
        layer["rta.wcrt_fixed_point"]["us_mean"],
        layer["harmonic.wcrt_harmonic"]["us_mean"])
    metrics["simulator.simulate.us_per_job"] = ratio(
        layer["simulator.simulate"]["us_total"],
        tr.notes[("simulator.simulate", "jobs")])
    for name in ("experiments.heuristic_quality",
                 "experiments.feasibility_sweep"):
        metrics[f"{name}.us_per_set"] = ratio(layer[name]["us_total"],
                                              tr.notes[(name, "sets")])
    metrics["generator.redraw_ratio"] = ratio(
        tr.notes[("generator", "redraws")],
        layer["experiments.random_analysis_set"]["calls"])
    metrics["trace.ops_per_s_untraced"] = untraced["ops_per_s"]
    metrics["trace.ops_per_s_traced"] = traced["ops_per_s"]
    metrics["trace.overhead_ratio"] = ratio(untraced["ops_per_s"],
                                            traced["ops_per_s"])
    return metrics


def environment(args, runs: dict) -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fields = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "cpu": cpu, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    for phase, run in runs.items():
        fields[f"{phase}_passes"] = run["passes"]
        fields[f"{phase}_ops"] = run["ops"]
        fields[f"{phase}_latency_samples"] = len(run["latencies_us"])
        fields[f"{phase}_wall_ops_per_s"] = round(run["wall_ops_per_s"], 2)
    return "# " + " ".join(f"{k}={v}" for k, v in fields.items())


def run_workload(args, workloads) -> int:
    from tracing import NullTracer, Tracer

    TMP_ROOT.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        # The process may run on the other CPU, whose speed differs, so it
        # reports its own scale for the parent to apply.
        before = speed_scale()
        cls(args.seed, NullTracer(), TMP_ROOT).close()
        print((before + speed_scale()) / 2)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pins = json.loads((BENCH_DIR / "pins.json").read_text(encoding="utf-8"))
    setup = setup_seconds(args) if not args.trace else []
    tr = Tracer() if args.trace else NullTracer()
    before = speed_scale()
    work = tr.call("setup", cls, args.seed, tr, TMP_ROOT)
    tr.rescale(0, (before + speed_scale()) / 2)
    try:
        expected = [None] * len(work.items)
        if args.seed == 0:
            expected = list(pins[args.workload])
            if len(expected) != len(work.items):
                die(f"pins.json holds {len(expected)} outputs for "
                    f"{args.workload}, the workload has {len(work.items)}")
        if args.trace:
            runs = {"untraced": measure(work, NullTracer(), args.seconds / 2,
                                        expected, probe=False),
                    "traced": measure(work, tr, args.seconds / 2, expected,
                                      probe=True)}
        else:
            runs = {"untraced": measure(work, NullTracer(), args.seconds,
                                        expected, probe=False)}
        attempted = sum(run["ops"] for run in runs.values())
        failed = sum(run["failed"] for run in runs.values())
        errors = [e for run in runs.values() for e in run["errors"]]
        try:
            work.final_check(expected)
        except AssertionError as exc:
            failed += sum(work.weight(item) for item in work.items)
            errors.append(f"final check: {exc}")
    finally:
        work.close()

    for message in errors[:MAX_ERRORS_SHOWN]:
        print(f"failed op: {message}", file=sys.stderr)
    print(environment(args, runs))
    run = runs["untraced"]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        tr.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        values = per_layer_metrics(tr, run, runs["traced"])
        declared = spec["per_layer"]
    else:
        percentiles = statistics.quantiles(run["latencies_us"], n=100)
        values = {
            "ops_per_s": run["ops_per_s"],
            "op_us_p50": statistics.median(run["latencies_us"]),
            "op_us_p99": percentiles[98],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = spec["end_to_end"]
        print(f"# fail_ratio={ratio(failed, attempted)} "
              f"setup_samples={[round(s, 4) for s in setup]}")
    if set(values) != {m["name"] for m in declared}:
        die(f"metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
            f"do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, names) -> int:
    """Run every workload in its own process and tabulate the results."""
    rows = []
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                name, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            die(f"workload {name} exited {done.returncode}")
        *comments, last = done.stdout.strip().splitlines()
        result = json.loads(last)
        rows.append((name, result))
        print("\n".join(comments))
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"fail_ratio={ratio(result['failed'], result['attempted'])}")
        for metric, value in result["metrics"].items():
            print(f"  {metric} = {value['value']:.6g} {value['unit']}")
    return 0 if all(result["correct"] for _, result in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every base seed (0: the "
                             "acceptance-test seeds, checked against pins)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        die("refusing to run under python -O: the solver's verified-result "
            "check is an assert, so the timed program would differ")
    workloads = import_workloads()
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)} or all")
    return run_workload(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
