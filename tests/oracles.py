"""Test-side oracles: analyses that only the tests use.

`classify_gamma` sorts one adjacent pair of the shift solver's order into
its local solution case; `adversarial_response` scans release-offset
corner patterns with the simulator.
"""

from dataclasses import dataclass
from itertools import product

from harmonic_rta import SimConfig, TaskSet, simulate
from harmonic_rta.feasibility import _feasibility_view


class IndexOutOfRange(ValueError):
    """Stage index outside 1..k-1 for k interfering tasks."""


@dataclass(frozen=True)
class GammaCase:
    """Local solution count of one adjacent-pair congruence stage."""

    case_id: str
    jtilde: int


def classify_gamma(ts: TaskSet, target_index: int | None, i: int) -> GammaCase:
    """Solution count of the adjacent congruence at stage i (1-based).

    Looks at the pair (pi(i), pi(i+1)): jtilde is the jitter difference
    modulo the smaller period; the case says how many shift counts the pair
    admits locally: "Zero" extra, exactly "One", "Both" candidates, or an
    "Empty" local window.
    """
    view = _feasibility_view(ts, target_index)
    periods, jitters, suffix = view.periods, view.jitters, view.suffix_wcet
    unit = view.scale                      # one time unit in view units
    k = len(periods)
    if not 1 <= i <= k - 1:
        raise IndexOutOfRange(f"stage {i} outside 1..{k - 1}")
    jtilde = (jitters[i] - jitters[i - 1]) % periods[i]
    after = suffix[i]                      # wcets strictly after pi(i+1)
    gap = periods[i] - suffix[i - 1]       # period minus wcets after pi(i)
    if jtilde <= after and jtilde <= gap - unit:
        case = "Zero"
    elif jtilde >= after + unit and jtilde >= gap:
        case = "One"
    elif gap <= jtilde <= after:
        case = "Both"
    else:
        case = "Empty"
    return GammaCase(case, jtilde // unit)


def adversarial_response(ts: TaskSet, target_index: int, cfg: SimConfig) -> int:
    """Largest observed target first-job response over offset corner patterns.

    Scans every combination of offset in {0, jitter} for the higher-priority
    tasks (the target's own offset shifts only its arrival, never its release
    or response, so it stays 0).  An empirical lower bound on the jitter-aware
    WCRT; exact at the critical instant for jitter-free sets.
    """
    if len(ts) > 6:
        raise ValueError("offset scan is exponential; need n <= 6")
    target = ts[target_index]
    choices = []
    for i, task in enumerate(ts):
        if i == target_index:
            choices.append((0,))
        else:
            choices.append((0, task.jitter) if task.jitter else (0,))
    best = 0
    for offsets in product(*choices):
        trace = simulate(ts, SimConfig(cfg.horizon, tuple(offsets),
                                       cfg.arrival_policy))
        best = max(best, trace.first_response(target.id))
    return best
