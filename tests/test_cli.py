"""Command-line surface: report formats, exit codes, round trips."""

import argparse
import builtins
import json
import os
import re
import subprocess
import sys
import textwrap
from collections import Counter
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import harmonic_rta
import harmonic_rta.cli as cli
import harmonic_rta.experiments as experiments
import harmonic_rta.rta as rta
from harmonic_rta import (
    CliError,
    HorizonTooShort,
    cmd_analyze,
    format_decimal,
    load_tasks,
    main,
    solve_feasibility,
)
from conftest import TABLE1_WCRTS, mk, write_task_file

HEADER = "id,T,C,D,J,method,wcrt_num,wcrt_den,wcrt_decimal,schedulable,steps"


def run_cli(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture
def table1_file(tmp_path, table1):
    return write_task_file(tmp_path / "six.json", table1)


@pytest.fixture
def walkthrough_file(tmp_path, walkthrough):
    return write_task_file(tmp_path / "five.json", walkthrough)


def test_analyze_table1_both_jitter_methods(table1_file, capsys):
    for method in ("uniform-jitter", "fixed-point-jitter"):
        rc, out, _ = run_cli(
            ["analyze", "--input", table1_file, "--method", method], capsys)
        assert rc == 0
        rows = csv_rows(out)
        assert [int(r["wcrt_num"]) for r in rows] == list(TABLE1_WCRTS)
        assert all(r["wcrt_den"] == "1" for r in rows)
        assert all(r["schedulable"] == "true" for r in rows)


def test_analyze_header_and_metadata(table1_file, capsys):
    rc, out, _ = run_cli(["analyze", "--input", table1_file, "--method",
                          "fixed-point-jitter", "--deterministic"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert f"# input={table1_file}" in lines
    assert "# method=fixed-point-jitter" in lines
    assert "# target=all" in lines
    assert HEADER in lines
    assert not any(l.startswith("# timestamp=") for l in lines)
    rc, out, _ = run_cli(["analyze", "--input", table1_file, "--method",
                          "fixed-point-jitter"], capsys)
    assert any(l.startswith("# timestamp=") for l in out.splitlines())


def test_analyze_deterministic_is_reproducible(table1_file, capsys):
    argv = ["analyze", "--input", table1_file, "--method",
            "fixed-point-jitter", "--deterministic"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
    loose = ["analyze", "--input", table1_file, "--method",
             "fixed-point-jitter"]
    _, third, _ = run_cli(loose, capsys)
    stripped = [l for l in third.splitlines() if not l.startswith("# timestamp=")]
    assert stripped == first.splitlines()


def test_analyze_target_selection(table1_file, capsys):
    rc, out, _ = run_cli(["analyze", "--input", table1_file, "--method",
                          "fixed-point-jitter", "--target", "3"], capsys)
    assert rc == 0
    rows = csv_rows(out)
    assert len(rows) == 1
    assert rows[0]["id"] == "t3"
    assert rows[0]["wcrt_num"] == "18"


@pytest.mark.parametrize("target", ["1_0", " 2", "+2", "2 ", "٢", "-1",
                                    "2.0", ""])
def test_target_must_be_ascii_digits(tmp_path, capsys, target):
    # int() alone reads the first six as priorities 10, 2, 2, 2, 2 and -1.
    path = write_task_file(tmp_path / "two.json", mk([(10, 1, 0), (20, 2, 0)]))
    rc, out, err = run_cli(["analyze", "--input", path, "--method",
                            "harmonic", "--target", target], capsys)
    assert (rc, out) == (2, "")
    assert err == (f"error: target must be 'all' or a priority number, "
                   f"got {target!r}\n")


def test_target_with_leading_zeros_selects_that_priority(tmp_path, capsys):
    path = write_task_file(tmp_path / "two.json", mk([(10, 1, 0), (20, 2, 0)]))
    rc, out, _ = run_cli(["analyze", "--input", path, "--method", "harmonic",
                          "--target", "02", "--deterministic"], capsys)
    assert rc == 0
    assert "# target=02" in out.splitlines()
    assert [row["id"] for row in csv_rows(out)] == ["t2"]


def test_analyze_output_file(table1_file, tmp_path, capsys):
    dest = tmp_path / "report.csv"
    rc, out, _ = run_cli(["analyze", "--input", table1_file, "--method",
                          "fixed-point-jitter", "--output", str(dest)], capsys)
    assert rc == 0
    assert out == ""
    assert HEADER in dest.read_text().splitlines()


def test_analyze_simulate_matches_analysis(table1_file, capsys):
    rc, out, _ = run_cli(["analyze", "--input", table1_file, "--method",
                          "simulate"], capsys)
    assert rc == 0
    rows = csv_rows(out)
    assert [int(r["wcrt_num"]) for r in rows] == list(TABLE1_WCRTS)
    # One shared schedule serves every target: equal job counts.
    assert len({r["steps"] for r in rows}) == 1


def test_analyze_simulate_single_target_sizes_horizon_for_every_task(
        tmp_path, capsys):
    # t1's own WCRT (5) would give horizon 100, but t2's first job, packed
    # behind t1's releases at 0, 1 and 11, finishes at 109.
    path = write_task_file(tmp_path / "packed.json",
                           mk([(10, 5, 9), (100, 49, 0)]))
    base = ["analyze", "--input", path, "--method", "simulate",
            "--deterministic"]
    rc_all, out_all, _ = run_cli(base, capsys)
    rc, out, err = run_cli(base + ["--target", "1"], capsys)
    assert rc_all == rc == 1 and err == ""
    row_all = csv_rows(out_all)
    assert row_all[1]["wcrt_num"] == "109"
    assert csv_rows(out) == row_all[:1]


def test_runtime_failures_exit_two_with_one_line(table1_file, monkeypatch,
                                                 capsys):
    rc, out, err = run_cli(["generate", "--n", "30", "--utilization", "9/10",
                            "--factor-range", "1", "1"], capsys)
    assert (rc, out) == (2, "")
    assert err == "error: could not sample a valid set in 1000 attempts\n"

    def short(ts, cfg):
        raise HorizonTooShort("first job of task t6 unfinished at horizon 360")

    monkeypatch.setattr(cli, "simulate", short)
    rc, out, err = run_cli(["analyze", "--input", table1_file, "--method",
                            "simulate"], capsys)
    assert (rc, out) == (2, "")
    assert err == ("error: first job of task t6 unfinished at horizon "
                   "360\n")


def test_simulation_past_the_job_bound_exits_two_before_simulating(
        tmp_path, monkeypatch, capsys):
    def never(ts, cfg):
        raise AssertionError("simulate called")

    monkeypatch.setattr(cli, "simulate", never)
    # The horizon is the longest period: 10^12 jobs of t2 plus one of t1.
    path = write_task_file(tmp_path / "long.json",
                           mk([(2 * 10**12, 1, 0), (2, 1, 0)]))
    for extra in ([], ["--target", "1"], ["--cross-validate"]):
        rc, out, err = run_cli(["analyze", "--input", path, "--method",
                                "simulate", *extra], capsys)
        assert (rc, out) == (2, "")
        assert err == ("error: simulation to horizon 2000000000000 needs "
                       "1000000000001 jobs, more than MAX_SIMULATED_JOBS="
                       f"{cli.MAX_SIMULATED_JOBS}; use an exact method\n")
    # At a bound of 11 jobs, 11 simulate and 12 do not.
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_SIMULATED_JOBS", 11)
    for period, rc_want in ((20, 0), (22, 2)):
        path = write_task_file(tmp_path / f"edge{period}.json",
                               mk([(period, 1, 0), (2, 1, 0)]))
        rc, out, err = run_cli(["analyze", "--input", path, "--method",
                                "simulate", "--deterministic"], capsys)
        assert rc == rc_want
        if rc == 0:
            assert {r["steps"] for r in csv_rows(out)} == {"11"}
        else:
            assert "needs 12 jobs, more than MAX_SIMULATED_JOBS=11" in err
    # Released at offset = jitter 5, t1 runs jobs at 0, 5 and 15 below the
    # horizon 20, and t2 one: 4 jobs, one more than ceil(20/T) counts.
    monkeypatch.setattr(cli, "MAX_SIMULATED_JOBS", 3)
    path = write_task_file(tmp_path / "jittered.json",
                           mk([(10, 1, 5), (20, 2, 0)]))
    rc, out, err = run_cli(["analyze", "--input", path, "--method",
                            "simulate"], capsys)
    assert (rc, out) == (2, "")
    assert err == ("error: simulation to horizon 20 needs 4 jobs, more than "
                   "MAX_SIMULATED_JOBS=3; use an exact method\n")


def test_analyze_virtual_jitter_reports_infeasible_targets(table1_file, capsys):
    rc, out, _ = run_cli(["analyze", "--input", table1_file, "--method",
                          "virtual-jitter"], capsys)
    assert rc == 1
    rows = csv_rows(out)
    assert rows[0]["wcrt_num"] == "6" and rows[0]["schedulable"] == "true"
    assert rows[1]["wcrt_num"] == "14" and rows[1]["schedulable"] == "true"
    for row in rows[2:]:
        assert row["schedulable"] == "infeasible"
        assert row["wcrt_num"] == "" and row["wcrt_decimal"] == ""


def test_analyze_exit_one_when_unschedulable(tmp_path, capsys):
    path = write_task_file(tmp_path / "miss.json",
                           mk([(10, 6, 0), (10, 3, 0, 3)]))
    rc, out, _ = run_cli(["analyze", "--input", path, "--method", "harmonic"],
                         capsys)
    assert rc == 1
    rows = csv_rows(out)
    assert rows[1]["wcrt_num"] == "9"
    assert rows[1]["schedulable"] == "false"


def test_analyze_error_exits(table1_file, tmp_path, capsys):
    cases = [
        ["analyze", "--input", str(tmp_path / "gone.json"),
         "--method", "harmonic"],
        ["analyze", "--input", table1_file, "--method", "harmonic"],
        ["analyze", "--input", table1_file, "--method", "fixed-point"],
        ["analyze", "--input", table1_file, "--method", "fixed-point-jitter",
         "--target", "9"],
        ["analyze", "--input", table1_file, "--method", "fixed-point-jitter",
         "--target", "x"],
    ]
    for argv in cases:
        rc, _, err = run_cli(argv, capsys)
        assert rc == 2
        assert err.startswith("error:")
    bad = tmp_path / "empty.json"
    bad.write_text('{"tasks": []}')
    rc, _, err = run_cli(["analyze", "--input", str(bad), "--method",
                          "harmonic"], capsys)
    assert rc == 2 and err.startswith("error:")


def test_iteration_cap_exits_two_with_one_line(tmp_path, capsys,
                                              monkeypatch):
    # The second task's fixed point takes 2 steps, the third's 3.
    path = write_task_file(tmp_path / "three.json",
                           mk([(8, 2, 0), (4, 2, 0), (8, 1, 0)]))
    monkeypatch.setattr(rta, "MAX_ITERATIONS", 1)
    assert run_cli(["analyze", "--input", path, "--method", "fixed-point"],
                   capsys) == (2, "", "error: no fixed point after 1 steps\n")


def test_jitter_free_methods_name_the_jittered_task(tmp_path, capsys):
    path = write_task_file(tmp_path / "jittered.json",
                           mk([(20, 2, 2), (40, 5, 0)]))
    expected = {
        "fixed-point": "error: method fixed-point requires a jitter-free "
                       "task set, but task t1 has jitter 2\n",
        "harmonic": "error: task t1 has jitter 2; use a jitter-aware "
                    "method\n",
        "exclusion": "error: task t1 has jitter 2; use a jitter-aware "
                     "method\n",
    }
    for method, message in expected.items():
        rc, out, err = run_cli(["analyze", "--input", path, "--method",
                                method], capsys)
        assert (rc, out, err) == (2, "", message)


def test_unknown_method_rejected():
    with pytest.raises(CliError):
        cmd_analyze("whatever.json", "bogus")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", "x.json", "--method", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "bogus"])
    assert exc.value.code == 2


def test_cross_validate_passes(table1_file, tmp_path, table1, capsys):
    rc, _, _ = run_cli(["analyze", "--input", table1_file, "--method",
                        "fixed-point-jitter", "--cross-validate"], capsys)
    assert rc == 0
    zeroed = write_task_file(
        tmp_path / "zeroed.json",
        mk([(t.period, t.wcet, 0, t.deadline) for t in table1]))
    rc, _, _ = run_cli(["analyze", "--input", zeroed, "--method", "harmonic",
                        "--cross-validate"], capsys)
    assert rc == 0


def test_cross_validate_detects_mismatch(tmp_path, table1, capsys,
                                         monkeypatch):
    zeroed = write_task_file(
        tmp_path / "zeroed.json",
        mk([(t.period, t.wcet, 0, t.deadline) for t in table1]))
    monkeypatch.setattr(
        experiments, "wcrt_exclusion_model",
        lambda ts, i: SimpleNamespace(wcrt=Fraction(9999)))
    rc, _, err = run_cli(["analyze", "--input", zeroed, "--method",
                          "harmonic", "--cross-validate"], capsys)
    assert rc == 2
    assert "mismatch" in err


ANALYSES = ("wcrt_harmonic", "wcrt_fixed_point", "wcrt_exclusion_model",
            "wcrt_fixed_point_jitter", "solve_feasibility",
            "wcrt_virtual_jitter", "wcrt_uniform_jitter",
            "check_restricted_jitter")


def test_cross_validate_runs_each_analysis_once_per_target(
        table1_file, tmp_path, table1, capsys, monkeypatch):
    calls = Counter()

    def counting(name, real):
        def wrapper(ts, index, *args):
            calls[name, index] += 1
            return real(ts, index, *args)
        return wrapper

    for module in (cli, experiments):
        for name in ANALYSES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
    zeroed = write_task_file(
        tmp_path / "zeroed.json",
        mk([(t.period, t.wcet, 0, t.deadline) for t in table1]))
    jittered = ("uniform-jitter", "fixed-point-jitter", "virtual-jitter",
                "simulate")
    for path, methods in ((zeroed, cli.METHODS), (table1_file, jittered)):
        for method in methods:
            calls.clear()
            rc, _, _ = run_cli(["analyze", "--input", path, "--method",
                                method, "--cross-validate"], capsys)
            assert rc in (0, 1)
            if method == "simulate":
                # Its horizon reads every task's jitter-aware fixed point,
                # and the cross-check reuses those values; on the zeroed
                # file they are also the plain fixed points.
                for i in range(len(table1)):
                    assert calls["wcrt_fixed_point_jitter", i] == 1
                    if path == zeroed:
                        assert calls["wcrt_fixed_point", i] == 0
            assert {index for _, index in +calls} == set(range(len(table1)))
            assert set(calls.values()) <= {0, 1}, (method, calls)


def test_check_jitter_worked_example(walkthrough_file, capsys):
    rc, out, _ = run_cli(["check-jitter", "--input", walkthrough_file,
                          "--deterministic"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert "feasible, m=(1,3,4,24,48), J'_max=480" in lines
    assert ("windows: [410, 500] -> [480, 500] -> [480, 480] -> [480, 480]"
            in lines)
    assert ("branch at stage 2: m=2 (width diff 0) vs m=3 (width diff 20) "
            "-> upper" in lines)


def test_check_jitter_infeasible(tmp_path, capsys):
    path = write_task_file(tmp_path / "inf.json",
                           mk([(100, 10, 55), (10, 1, 0)]))
    rc, out, _ = run_cli(["check-jitter", "--input", path, "--deterministic"],
                         capsys)
    assert rc == 1
    assert "infeasible at stage 1" in out
    assert "windows: [160, 150]" in out


def test_check_jitter_single_task(tmp_path, capsys):
    path = write_task_file(tmp_path / "one.json", mk([(100, 10, 50)]))
    rc, out, _ = run_cli(["check-jitter", "--input", path, "--deterministic"],
                         capsys)
    assert rc == 0
    assert "feasible, m=(1), J'_max=150" in out


@pytest.mark.parametrize("argv", [
    ["check-jitter"],
    ["experiment", "heuristic-quality", "--sets", "2", "--n", "2",
     "--utilization", "1/2"],
    ["experiment", "feasibility-sweep", "--sets", "1", "--n", "2"],
    ["experiment", "oracle-cross-check", "--sets", "1", "--n", "2",
     "--no-simulation"],
])
def test_report_metadata_ends_with_a_utc_timestamp(argv, walkthrough_file,
                                                    capsys):
    if argv == ["check-jitter"]:
        argv = argv + ["--input", walkthrough_file]
    before = datetime.now(timezone.utc).replace(microsecond=0)
    _, stamped, _ = run_cli(argv, capsys)
    after = datetime.now(timezone.utc)
    _, plain, _ = run_cli(argv + ["--deterministic"], capsys)
    lines = stamped.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    last = comments[-1]
    assert last.startswith("# timestamp=")
    stamp = datetime.fromisoformat(last[len("# timestamp="):])
    assert stamp.utcoffset() == timedelta(0)
    assert before <= stamp <= after
    lines.remove(last)
    assert lines == plain.splitlines()
    assert not any(line.startswith("# timestamp=")
                   for line in plain.splitlines())


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "expected an object with a 'tasks' array"),
    ({"tasks": {"period": 10}}, "'tasks' must be an array"),
    ({"tasks": [7]}, r"tasks\[0\] is not an object"),
])
def test_malformed_documents_exit_two_with_one_line(doc, message, tmp_path,
                                                    capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli(["analyze", "--input", str(path), "--method",
                            "fixed-point"], capsys)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error:")
    assert re.search(message, err)


def test_generate_single_deterministic(tmp_path, capsys):
    dest = tmp_path / "gen.json"
    argv = ["generate", "--n", "4", "--seed", "9", "--jitter-mode",
            "constrained", "--output", str(dest)]
    rc, _, _ = run_cli(argv, capsys)
    assert rc == 0
    first = dest.read_text()
    run_cli(argv, capsys)
    assert dest.read_text() == first
    doc = json.loads(first)
    assert doc["seed"] == 9
    ts = load_tasks(str(dest))
    assert len(ts) == 4
    assert solve_feasibility(ts, None).is_feasible


def test_generate_single_task_file(tmp_path, capsys):
    dest = tmp_path / "solo.json"
    rc, _, _ = run_cli(["generate", "--n", "1", "--output", str(dest)],
                       capsys)
    assert rc == 0
    ts = load_tasks(str(dest))
    assert len(ts) == 1
    assert ts[0].jitter == 0


def test_generate_seed_metadata_reaches_analyze(tmp_path, capsys,
                                                monkeypatch):
    dest = tmp_path / "gen.json"
    run_cli(["generate", "--n", "3", "--seed", "9", "--output", str(dest)],
            capsys)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    rc, out, _ = run_cli(["analyze", "--input", str(dest), "--method",
                          "harmonic", "--deterministic"], capsys)
    assert rc == 0
    assert "# seed=9" in out.splitlines()
    # The task set and the seed come from one read of the file.
    assert opened.count(str(dest)) == 1


def test_boolean_seed_yields_no_seed_metadata(table1_file, capsys):
    path = Path(table1_file)
    doc = json.loads(path.read_text())
    doc["seed"] = True
    path.write_text(json.dumps(doc))
    rc, out, _ = run_cli(["analyze", "--input", table1_file, "--method",
                          "fixed-point-jitter", "--deterministic"], capsys)
    assert rc == 0
    assert not [line for line in out.splitlines()
                if line.startswith("# seed=")]


def test_generate_batch(tmp_path, capsys):
    prefix = str(tmp_path / "batch")
    rc, out, _ = run_cli(["generate", "--n", "3", "--seed", "1", "--count",
                          "3", "--output", prefix], capsys)
    assert rc == 0
    paths = out.splitlines()
    assert paths == [f"{prefix}-{k:04d}.json" for k in range(3)]
    docs = []
    for p in paths:
        with open(p) as fh:
            docs.append(json.load(fh))
    assert [d["index"] for d in docs] == [0, 1, 2]
    # Same seed, same stream: consecutive batch entries differ.
    assert docs[0]["tasks"] != docs[1]["tasks"]
    rc, _, err = run_cli(["generate", "--n", "3", "--count", "2"], capsys)
    assert rc == 2
    assert "--output" in err


def test_generate_flag_validation(capsys):
    for argv in (["generate", "--n", "0"],
                 ["generate", "--n", "1", "--with-target"],
                 ["generate", "--n", "3", "--count", "0"],
                 ["generate", "--n", "3", "--jitter-mode", "unconstrained",
                  "--alpha", "0"]):
        rc, _, err = run_cli(argv, capsys)
        assert rc == 2
        assert err.startswith("error:")


@pytest.mark.parametrize("argv, message", [
    (["experiment", "feasibility-sweep", "--sets", "-3"],
     "--sets must be >= 1"),
    (["experiment", "heuristic-quality", "--sets", "0"],
     "--sets must be >= 1"),
    (["experiment", "heuristic-quality", "--jobs", "-4"],
     "--jobs must be >= 1"),
    (["experiment", "oracle-cross-check", "--n", "1"],
     "--n must be >= 2 for oracle-cross-check"),
    # Every set simulates at least two first jobs: no draw could fit.
    (["experiment", "oracle-cross-check", "--sim-job-cap", "1"],
     "--sim-job-cap must be >= 2"),
    (["experiment", "oracle-cross-check", "--sim-job-cap", "0"],
     "--sim-job-cap must be >= 2"),
    (["experiment", "oracle-cross-check", "--sim-job-cap", "-5"],
     "--sim-job-cap must be >= 2"),
    (["generate", "--n", "3", "--base-period", "0"],
     "base period must be >= 1"),
])
def test_bad_counts_exit_two_with_one_line(argv, message, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, flag", [
    (["oracle-cross-check", "--utilization", "1/2"], "--utilization"),
    (["heuristic-quality", "--jitter-mode", "none"], "--jitter-mode"),
    (["feasibility-sweep", "--jitter-mode", "constrained"], "--jitter-mode"),
    (["heuristic-quality", "--no-simulation"], "--no-simulation"),
    (["feasibility-sweep", "--sim-job-cap", "5"], "--sim-job-cap"),
    (["heuristic-quality", "--sim-job-cap", "20000"], "--sim-job-cap"),
])
def test_ignored_experiment_flags_exit_two_with_one_line(argv, flag, capsys):
    rc, out, err = run_cli(["experiment", *argv, "--sets", "1"], capsys)
    assert (rc, out) == (2, "")
    assert err == f"error: {flag} does not apply to {argv[0]}\n"


def test_unreachable_job_cap_exits_two_with_one_line(capsys, monkeypatch):
    # Every simulation counted at 3 jobs: no draw fits the cap of 2.
    monkeypatch.setattr(experiments, "simulation_job_count",
                        lambda ts, horizon: 3)
    rc, out, err = run_cli(["experiment", "oracle-cross-check", "--sets", "1",
                            "--sim-job-cap", "2"], capsys)
    assert (rc, out) == (2, "")
    assert err == ("error: no set within the simulation job cap 2 in 1000 "
                   "attempts\n")


def _package_env():
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(harmonic_rta.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("argv", [
    ["generate", "--n", "3", "--utilization", "1/0"],
    ["generate", "--n", "3", "--jitter-mode", "unconstrained", "--alpha",
     "1/0"],
    ["experiment", "feasibility-sweep", "--sets", "1", "--utilization",
     "1/0"],
])
def test_zero_denominator_flags_are_usage_errors(argv):
    proc = subprocess.run([sys.executable, "-m", "harmonic_rta", *argv],
                          env=_package_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    flag = argv[-2]
    assert proc.stderr.splitlines()[-1].endswith(
        f"error: argument {flag}: invalid Fraction value: '1/0'")


def test_repeated_task_ids_exit_two_with_one_line(tmp_path, capsys):
    # The second task's id is filled in as "t2", which the first one has;
    # simulate matched rows by id and printed 3 for it (its WCRT is 8).
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"tasks": [
        {"id": "t2", "period": 10, "wcet": 3, "deadline": 10, "priority": 1},
        {"period": 20, "wcet": 5, "deadline": 20, "priority": 2},
        {"id": "c", "period": 40, "wcet": 6, "deadline": 40, "priority": 3},
    ]}))
    message = "error: task id 't2' is used more than once\n"
    proc = subprocess.run(
        [sys.executable, "-m", "harmonic_rta", "analyze", "--input",
         str(path), "--method", "simulate", "--deterministic"],
        env=_package_env(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)
    for argv in (["--method", "harmonic"],
                 ["--method", "simulate", "--cross-validate"]):
        assert run_cli(["analyze", "--input", str(path), *argv],
                       capsys) == (2, "", message)
    assert run_cli(["check-jitter", "--input", str(path)],
                   capsys) == (2, "", message)


@pytest.mark.parametrize("task_id, shown", [
    (None, "null"), (5, "5"), (["a"], '["a"]')])
def test_non_string_task_ids_exit_two_with_one_line(tmp_path, capsys,
                                                   task_id, shown):
    # Such ids used to become the strings "None", "5" and "['a']".
    path = tmp_path / "ids.json"
    path.write_text(json.dumps({"tasks": [
        {"id": "a", "period": 10, "wcet": 3, "deadline": 10, "priority": 1},
        {"id": task_id, "period": 20, "wcet": 5, "deadline": 20,
         "priority": 2},
    ]}))
    message = (f"error: {path}: tasks[1] id must be a string, got "
               f"{shown}\n")
    for argv in (["analyze", "--input", str(path), "--method", "harmonic"],
                 ["check-jitter", "--input", str(path)]):
        assert run_cli(argv, capsys) == (2, "", message)


@pytest.mark.parametrize("task_id", [
    "a,b\nc", "#x", "\ud800", 'say "hi"', "a\rb"],
    ids=["comma-newline", "hash", "surrogate", "quote", "return"])
def test_ids_that_would_corrupt_the_csv_exit_two(tmp_path, capsys, task_id):
    # A comma or line break split the row, a leading '#' read it as
    # metadata, and a lone surrogate failed only after --output was
    # truncated.
    path = tmp_path / "ids.json"
    path.write_text(json.dumps({"tasks": [
        {"id": "a", "period": 10, "wcet": 3, "deadline": 10, "priority": 1},
        {"id": task_id, "period": 20, "wcet": 5, "deadline": 20,
         "priority": 2},
    ]}))
    dest = tmp_path / "out.csv"
    message = (f"error: {path}: tasks[1] id {json.dumps(task_id)} starts "
               f"with '#' or holds a comma, quote, line break or lone "
               f"surrogate\n")
    for argv in (["analyze", "--input", str(path), "--method", "harmonic"],
                 ["check-jitter", "--input", str(path)]):
        assert run_cli([*argv, "--output", str(dest)],
                       capsys) == (2, "", message)
        assert not dest.exists()


def test_unencodable_report_keeps_an_existing_output_file(tmp_path, capsys,
                                                         table1):
    # The byte 0xff in the file name decodes to a lone surrogate, which
    # the report's "# input=" line cannot hold in UTF-8.  The file used to
    # be opened, and so emptied, before the report was encoded.
    path = write_task_file(tmp_path / os.fsdecode(b"\xff.json"), table1)
    dest = tmp_path / "out.csv"
    dest.write_bytes(b"kept\n")
    at = len(f"# input={tmp_path}/")
    message = (f"error: 'utf-8' codec can't encode character '\\udcff' in "
               f"position {at}: surrogates not allowed\n")
    for argv in (["analyze", "--input", path, "--method", "uniform-jitter"],
                 ["check-jitter", "--input", path]):
        assert run_cli([*argv, "--deterministic", "--output", str(dest)],
                       capsys) == (2, "", message)
        assert dest.read_bytes() == b"kept\n"


def test_ids_with_spaces_and_accents_still_load(tmp_path, capsys):
    path = tmp_path / "ids.json"
    path.write_text(json.dumps({"tasks": [
        {"id": "a b", "period": 10, "wcet": 3, "deadline": 10, "priority": 1},
        {"id": "\u00e9", "period": 20, "wcet": 5, "deadline": 20,
         "priority": 2},
    ]}))
    rc, out, _ = run_cli(["analyze", "--input", str(path), "--method",
                          "harmonic"], capsys)
    assert rc == 0
    assert [row["id"] for row in csv_rows(out)] == ["a b", "\u00e9"]


# The second id puts the bad byte past the first 8 KiB, a common
# read-buffer size; the offset still counts from the start of the file.
@pytest.mark.parametrize("task_id, offset", [("\u00e9", 19),
                                             ("a" * 9000 + "\u00e9", 9019)],
                         ids=["first-byte", "past-8-kib"])
def test_non_utf8_file_exits_two_naming_the_file(tmp_path, capsys, task_id,
                                                 offset):
    path = tmp_path / "latin1.json"
    path.write_bytes(f'{{"tasks": [{{"id": "{task_id}", "period": 10, '
                     f'"wcet": 1, "deadline": 10, "priority": 1}}]}}'
                     .encode("latin-1"))
    message = (f"error: {path}: not UTF-8 text at byte {offset}: invalid "
               f"continuation byte\n")
    for argv in (["analyze", "--input", str(path), "--method", "harmonic"],
                 ["check-jitter", "--input", str(path)]):
        assert run_cli(argv, capsys) == (2, "", message)


@pytest.mark.parametrize("text, reason", [
    ('{"tasks": ' + "[" * 100000 + "]" * 100000 + "}",
     "JSON nested too deeply to read"),
    ('{"tasks": [{"period": ' + "1" * 5000 + ', "wcet": 1, "deadline": 1, '
     '"priority": 1}]}', "Exceeds the limit (4300 digits)"),
], ids=["nested", "long-int"])
def test_unreadable_json_exits_two_naming_the_file(tmp_path, capsys, text,
                                                   reason):
    path = tmp_path / "tasks.json"
    path.write_text(text, encoding="utf-8")
    for argv in (["analyze", "--input", str(path), "--method", "harmonic"],
                 ["check-jitter", "--input", str(path)]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: {reason}")
        assert err.count("\n") == 1


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one main call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_parser_is_built_once_and_reused(table1_file, walkthrough_file,
                                         capsys, monkeypatch):
    analyze = ["analyze", "--input", table1_file, "--method",
               "fixed-point-jitter", "--deterministic"]
    calls = [
        ["analyze", "--input", table1_file, "--method", "bogus"],
        analyze,
        ["generate", "--n", "4", "--seed", "3", "--jitter-mode",
         "constrained"],
        ["check-jitter", "--input", walkthrough_file, "--deterministic"],
        analyze,
    ]
    fresh = []
    for argv in calls:
        cli._parsers.cache_clear()
        fresh.append(_outcome(argv, capsys))
    assert fresh[0][0] == 2 and "invalid choice: 'bogus'" in fresh[0][2]
    assert [code for code, _, _ in fresh[1:]] == [0, 0, 0, 0]

    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parsers.cache_clear()
    per_call = []
    for argv, expected in zip(calls, fresh):
        before = len(built)
        assert _outcome(argv, capsys) == expected
        per_call.append(len(built) - before)
    assert per_call[0] > 0
    assert per_call[1:] == [0, 0, 0, 0]


# Argument lists that `main` parses straight with a subcommand's parser or
# with the full parser; "{f}" stands for a task file.
DISPATCH_ARGVS = {
    "empty": [],
    "help": ["-h"],
    "unknown-command": ["bogus", "--input", "{f}"],
    "leading-dashes": ["--", "analyze", "--input", "{f}", "--method",
                       "harmonic"],
    "analyze-help": ["analyze", "-h"],
    "analyze": ["analyze", "--input", "{f}", "--method", "fixed-point-jitter",
                "--target", "2", "--deterministic", "--cross-validate"],
    "abbreviated": ["analyze", "--inp", "{f}", "--meth", "uniform-jitter",
                    "--determ"],
    "equals": ["analyze", "--input={f}", "--method=simulate",
               "--deterministic"],
    "extra-positionals": ["analyze", "--input", "{f}", "--method",
                          "fixed-point-jitter", "one", "two"],
    "unknown-option": ["analyze", "--input", "{f}", "--bogus", "1",
                       "--method", "fixed-point-jitter"],
    "invalid-method": ["analyze", "--input", "{f}", "--method", "bogus"],
    "missing-input": ["analyze", "--method", "harmonic"],
    "check-jitter": ["check-jitter", "--input", "{f}", "--deterministic"],
    "generate": ["generate", "--n", "4", "--seed", "3", "--jitter-mode",
                 "constrained", "--factor-range", "1", "2"],
    "experiment": ["experiment", "feasibility-sweep", "--sets", "1", "--n",
                   "3", "--deterministic"],
    "experiment-bad-name": ["experiment", "bogus", "--sets", "1"],
}


@pytest.mark.parametrize("case", DISPATCH_ARGVS)
def test_direct_dispatch_matches_the_full_parser(case, walkthrough_file,
                                                 capsys, monkeypatch,
                                                 request):
    argv = [arg.replace("{f}", walkthrough_file)
            for arg in DISPATCH_ARGVS[case]]
    parsed = []
    for name in ("_run_analyze", "_run_check_jitter", "cmd_generate",
                 "cmd_experiment"):
        handler = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda args, handler=handler: (
            parsed.append(args), handler(args))[1])
    # The parsers hold their handlers: rebuild them with the wrapped ones
    # now, and with the real ones after the test.
    parsers = cli._parsers
    parsers.cache_clear()
    request.addfinalizer(parsers.cache_clear)
    direct = _outcome(argv, capsys), parsed[:]
    # With no subcommand parser to dispatch to, every argv takes the
    # full parser's route.
    parser = cli._parsers()[0]
    monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))
    parsed.clear()
    full = _outcome(argv, capsys), parsed[:]
    assert direct == full
    assert [repr(args) for args in direct[1]] == [repr(args)
                                                 for args in full[1]]
    (code, out, err), ran = direct
    if case.endswith("help"):
        assert code == 0 and out.startswith("usage: harmonic-rta")
    elif ran:
        assert code in (0, 1) and [args.command for args in ran] == argv[:1]
    else:
        assert code == 2 and err.startswith("usage: harmonic-rta")


def test_main_without_argv_reads_sys_argv(walkthrough_file, capsys,
                                         monkeypatch):
    argv = ["check-jitter", "--input", walkthrough_file, "--deterministic"]
    expected = _outcome(argv, capsys)
    monkeypatch.setattr(sys, "argv", ["harmonic-rta", *argv])
    assert _outcome(None, capsys) == expected == (0, expected[1], "")
    monkeypatch.setattr(sys, "argv", ["harmonic-rta", "check-jitter",
                                      "--input", walkthrough_file, "extra"])
    code, out, err = _outcome(None, capsys)
    assert (code, out) == (2, "")
    assert err.endswith("harmonic-rta: error: unrecognized arguments: "
                        "extra\n")


def _run_optimized(script):
    """Run a Python snippet under ``python -O``, which strips asserts."""
    return subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(script)],
                          env=_package_env(), capture_output=True, text=True,
                          timeout=120)


def test_flag_and_sampling_errors_exit_two_under_optimize():
    # The flag checks and the redraw budget must not rest on asserts.
    proc = _run_optimized("""
        import sys
        import harmonic_rta.experiments as experiments
        from harmonic_rta import main
        experiments.simulation_job_count = lambda ts, horizon: 3
        codes = [main(["experiment", "feasibility-sweep", "--sets", "-3"]),
                 main(["experiment", "oracle-cross-check", "--sim-job-cap",
                       "1"]),
                 main(["experiment", "oracle-cross-check", "--sets", "1",
                       "--sim-job-cap", "2"])]
        sys.exit(0 if codes == [2, 2, 2] else 1)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: --sets must be >= 1",
        "error: --sim-job-cap must be >= 2",
        "error: no set within the simulation job cap 2 in 1000 attempts"]


def test_horizon_too_short_exits_two_under_optimize(table1_file):
    proc = _run_optimized(f"""
        import sys
        import harmonic_rta.cli as cli
        from harmonic_rta import HorizonTooShort, main

        def short(ts, cfg):
            raise HorizonTooShort(
                "first job of task t6 unfinished at horizon 360")

        cli.simulate = short
        code = main(["analyze", "--input", {table1_file!r}, "--method",
                     "simulate"])
        sys.exit(0 if code == 2 else 1)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: first job of task t6 unfinished at horizon 360"]


def test_generate_with_target(tmp_path, capsys):
    dest = tmp_path / "tgt.json"
    rc, _, _ = run_cli(["generate", "--n", "5", "--seed", "3",
                        "--with-target", "--output", str(dest)], capsys)
    assert rc == 0
    ts = load_tasks(str(dest))
    assert len(ts) == 5
    assert ts[4].period >= max(t.period for t in ts.tasks[:4])


@pytest.mark.parametrize("argv,tasks", [
    (["--n", "70", "--factor-range", "2", "2", "--base-period", "1000",
      "--utilization", "9/10", "--with-target"], 70),
    (["--n", "3", "--base-period", "18446744073709551617", "--jitter-mode",
      "constrained", "--utilization", "1/2"], 3),
])
def test_generate_with_times_above_two_to_the_64(argv, tasks, tmp_path,
                                                 capsys):
    # Periods this large make the generator draw from spans above 2^64.
    dest = tmp_path / "wide.json"
    rc, _, err = run_cli(["generate", *argv, "--output", str(dest)], capsys)
    assert (rc, err) == (0, "")
    assert len(load_tasks(str(dest))) == tasks


def test_experiment_heuristic_quality_small(capsys):
    rc, out, _ = run_cli(["experiment", "heuristic-quality", "--sets", "30",
                          "--n", "4", "--utilization", "1/2", "--seed", "5",
                          "--deterministic"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert "utilization,sets,misclassified,rate" in lines
    rows = csv_rows(out)
    assert len(rows) == 1
    assert rows[0]["utilization"] == "0.500000"
    assert rows[0]["sets"] == "30"
    assert rows[0]["misclassified"] == "0"
    assert float(rows[0]["rate"]) == 0.0


def test_experiment_jobs_flag_is_invariant(capsys):
    base = ["experiment", "heuristic-quality", "--sets", "20", "--n", "3",
            "--utilization", "3/5", "--seed", "2", "--deterministic"]
    _, one, _ = run_cli(base + ["--jobs", "1"], capsys)
    _, two, _ = run_cli(base + ["--jobs", "2"], capsys)
    strip = lambda text: [l for l in text.splitlines()
                          if not l.startswith("# jobs=")]
    assert strip(one) == strip(two)


def test_experiment_jobs_two_runs_chunks_in_worker_processes(capsys):
    # Ten alpha points are ten chunks, so --jobs 2 starts two workers.
    base = ["experiment", "feasibility-sweep", "--sets", "30", "--n", "4",
            "--seed", "3", "--deterministic"]
    _, one, _ = run_cli(base + ["--jobs", "1"], capsys)
    _, two, _ = run_cli(base + ["--jobs", "2"], capsys)
    assert one.replace("# jobs=1\n", "# jobs=2\n") == two
    assert len(csv_rows(two)) == 10


def test_experiment_feasibility_sweep_small(capsys):
    rc, out, _ = run_cli(["experiment", "feasibility-sweep", "--sets", "10",
                          "--n", "4", "--utilization", "9/10",
                          "--deterministic"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert "alpha,sets,feasible,fraction" in lines
    rows = csv_rows(out)
    assert len(rows) == 10
    assert rows[0]["alpha"] == "0.100000"
    assert rows[-1]["alpha"] == "1.000000"
    for row in rows:
        assert row["sets"] == "10"
        assert 0 <= int(row["feasible"]) <= 10


def test_experiment_oracle_cross_check_small(capsys):
    rc, out, _ = run_cli(["experiment", "oracle-cross-check", "--sets", "5",
                          "--n", "5", "--seed", "11", "--deterministic"],
                         capsys)
    assert rc == 0
    assert "# disagreements=0" in out.splitlines()
    rows = csv_rows(out)
    assert len(rows) == 5
    for row in rows:
        assert row["agree"] == "true"
        assert row["methods"].startswith("harmonic+fixed-point+exclusion")


def _no_draw(*args, **kwargs):
    raise RuntimeError("set drawn")


@pytest.mark.parametrize("cap", [1, 0, -5])
def test_oracle_cross_check_rejects_cap_below_two_before_drawing(
        monkeypatch, cap):
    # Every set simulates at least two first jobs, so no draw can meet it.
    monkeypatch.setattr(experiments, "random_analysis_set", _no_draw)
    with pytest.raises(ValueError,
                       match=rf"^sim_job_cap must be >= 2, got {cap}$"):
        experiments.oracle_cross_check(sets=3, sim_job_cap=cap)


@pytest.mark.parametrize("count", [0, -5])
@pytest.mark.parametrize("call", [
    lambda n: experiments.heuristic_quality(
        hp_count=3, sets_per_point=n, grid=(Fraction(1, 2),)),
    lambda n: experiments.feasibility_sweep(sets_per_alpha=n),
    lambda n: experiments.oracle_cross_check(sets=n),
], ids=["heuristic-quality", "feasibility-sweep", "oracle-cross-check"])
def test_experiments_reject_set_counts_below_one(call, count):
    # Before, these returned rows with sets=0 or -5, or no rows at all.
    with pytest.raises(ValueError,
                       match=rf"^set count must be >= 1, got {count}$"):
        call(count)


@pytest.mark.parametrize("call", [
    lambda: experiments.heuristic_quality(hp_count=3, sets_per_point=2,
                                          grid=()),
    lambda: experiments.feasibility_sweep(sets_per_alpha=2, alphas=()),
], ids=["heuristic-quality", "feasibility-sweep"])
def test_experiments_reject_an_empty_grid(call):
    # Before, these returned no rows without a word.
    with pytest.raises(ValueError,
                       match="^the grid must hold at least one point$"):
        call()


def test_experiment_oracle_cross_check_jittered(capsys):
    rc, out, _ = run_cli(["experiment", "oracle-cross-check", "--sets", "5",
                          "--n", "5", "--jitter-mode", "constrained",
                          "--no-simulation", "--seed", "11",
                          "--deterministic"], capsys)
    assert rc == 0
    rows = csv_rows(out)
    assert len(rows) == 5
    for row in rows:
        assert row["agree"] == "true"
        assert "fixed-point-jitter" in row["methods"]


def test_format_decimal():
    assert format_decimal(Fraction(1, 3)) == "0.333333"
    assert format_decimal(Fraction(2, 3)) == "0.666667"
    assert format_decimal(Fraction(72)) == "72.000000"
    assert format_decimal(72) == "72.000000"
    assert format_decimal(0) == "0.000000"
    assert format_decimal(Fraction(1, 8)) == "0.125000"
    # Ties round up.
    assert format_decimal(Fraction(1234565, 10**7)) == "0.123457"
    assert format_decimal(Fraction(19, 20)) == "0.950000"
