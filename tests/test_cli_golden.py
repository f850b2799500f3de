"""Golden check of the CLI's analysis commands, byte for byte.

Each input file below gets ``analyze --deterministic`` with every method,
with and without ``--cross-validate``, at ``--target all`` and at priority
2, then ``check-jitter``.  The inputs are seeded ``generate`` files in all
three jitter modes plus the Table-1 and walkthrough sets.  Every command
runs in process through ``main``; its argument list, exit code, stdout and
stderr are hashed with the temporary directory replaced by a fixed token.
The commands include exit-2 cases: jitter-free methods on jittered files,
and ``uniform-jitter --cross-validate`` on targets where the uniform-jitter
value is not exact.  The digests were recorded before the method table
moved into ``experiments`` and must never be regenerated to make a change
pass.
"""

import hashlib

import pytest

from harmonic_rta import main
from harmonic_rta.cli import METHODS
from conftest import write_task_file

GENERATED = {
    "gen-none": ["--jitter-mode", "none", "--utilization", "0.9",
                 "--seed", "3"],
    "gen-unconstrained": ["--jitter-mode", "unconstrained", "--alpha", "0.5",
                          "--utilization", "0.8", "--seed", "4"],
    "gen-constrained": ["--jitter-mode", "constrained", "--utilization",
                        "0.9", "--seed", "5"],
}
DIGESTS = {
    "gen-none":
        "a794777f9492d45177909cb43730e9ba4e79e6ecfd252a8ca740a72c5f5bdc70",
    "gen-unconstrained":
        "4286628efe79f6f182991281dfc9b3f6a61c38baa02fcd4a615e5c0dfdb8d3e5",
    "gen-constrained":
        "40d4925779e4ab9b36ca81bd21fdc0070dd9cd06331f367664dbedb7bceb2ae5",
    "table1":
        "7a2267035dc9778df59a1e181a6cd1f9a829a9f8f79aa36b18a4ed7f4ea0a4bb",
    "walkthrough":
        "ee75813647572b07d04ba2e58ff098c15eb96ea66c274bffab17965d3a2dd1e0",
}


def _input_files(name, request, tmp_path, capsys) -> list[str]:
    if name not in GENERATED:
        # The Table-1 and walkthrough sets of conftest.
        return [write_task_file(tmp_path / f"{name}.json",
                                request.getfixturevalue(name))]
    prefix = str(tmp_path / name)
    assert main(["generate", "--n", "5", "--with-target", "--count", "4",
                 "--factor-range", "1", "2", "--output", prefix,
                 *GENERATED[name]]) == 0
    return capsys.readouterr().out.split()


def _commands(path: str):
    for method in METHODS:
        for target in ("all", "2"):
            for extra in ([], ["--cross-validate"]):
                yield ["analyze", "--input", path, "--method", method,
                       "--target", target, "--deterministic", *extra]
    yield ["check-jitter", "--input", path, "--deterministic"]


def _transcript(name, request, tmp_path, capsys) -> list[tuple]:
    """(argv, exit code, stdout, stderr) of every command on `name`'s
    files, with the temporary directory replaced by ``<tmp>``."""
    token = str(tmp_path)
    runs = []
    for path in _input_files(name, request, tmp_path, capsys):
        for argv in _commands(path):
            code = main(argv)
            out, err = capsys.readouterr()
            runs.append((tuple(a.replace(token, "<tmp>") for a in argv), code,
                         out.replace(token, "<tmp>"),
                         err.replace(token, "<tmp>")))
    return runs


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_cli_transcript_is_unchanged(name, request, tmp_path, capsys):
    text = "\n".join(repr(run) for run in
                     _transcript(name, request, tmp_path, capsys))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


def test_transcripts_reach_every_exit_and_error(request, tmp_path, capsys):
    runs = [run for name in sorted(DIGESTS)
            for run in _transcript(name, request, tmp_path, capsys)]
    assert {code for _, code, _, _ in runs} == {0, 1, 2}
    errors = {err.split(";")[0].split(",")[0] for _, _, _, err in runs}
    assert "error: task t1 has jitter 8" in errors
    assert ("error: method fixed-point requires a jitter-free task set"
            in errors)
    mismatches = [argv for argv, _, _, err in runs if "mismatch" in err]
    assert mismatches
    assert all("uniform-jitter" in argv and "--cross-validate" in argv
               for argv in mismatches)
    assert any(",virtual-jitter,,,,infeasible," in out for _, _, out, _ in runs)
