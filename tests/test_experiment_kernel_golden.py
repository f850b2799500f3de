"""Golden check of the arrays the experiment kernels hand to the solver.

``heuristic_quality`` and ``feasibility_sweep`` draw each set's periods,
wcets and jitters, scale them to integers and pass them to
``experiments.solve_feasibility_arrays``.  The test replaces that function
with a recorder that calls the real solver and hashes, per call, the
``repr`` of the three arrays as tuples (which tells an ``int`` from a
``Fraction``) and of the ``FeasibilityResult``, followed by the ``repr`` of
the rows the experiment returns.  The digests were recorded before the
kernels drew their sets in integers and must never be regenerated to make
a change pass.
"""

import hashlib
from fractions import Fraction

import pytest

import harmonic_rta.experiments as experiments
from harmonic_rta import feasibility_sweep, heuristic_quality

CONFIGS = {
    "heuristic-quality": (
        heuristic_quality,
        dict(hp_count=14, sets_per_point=50, seed=1000),
        19 * 50,
        "aef0c67b21aa0fbbbc5f170cd51a6282fa72f580bf88b005c7fdc56bbbae12c2"),
    "feasibility-sweep": (
        feasibility_sweep,
        dict(task_count=5, total_utilization=Fraction(19, 20),
             sets_per_alpha=50, seed=0),
        10 * 50,
        "5ecc77b8d54c212ae99bdace5336b0327c6d22f2c1a25d5e58e2db9a9a2a4e69"),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_solver_inputs_and_rows_are_unchanged(name, monkeypatch):
    run, kwargs, calls, expected = CONFIGS[name]
    solve = experiments.solve_feasibility_arrays
    lines = []

    def recorder(periods, wcets, jitters):
        result = solve(periods, wcets, jitters)
        lines.append(f"{tuple(periods)!r} {tuple(wcets)!r} "
                     f"{tuple(jitters)!r} {result!r}")
        return result

    monkeypatch.setattr(experiments, "solve_feasibility_arrays", recorder)
    rows = run(**kwargs, jobs=1)
    assert len(lines) == calls
    lines += [repr(row) for row in rows]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == expected
