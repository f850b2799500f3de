"""Task model: domain types, validation, and the reverse-rate-monotonic ordering.

Tasks are sporadic with constrained deadlines (wcet <= deadline <= period) and
optional release jitter, scheduled by preemptive fixed priorities on one
processor.  The fast analysis paths additionally require pairwise harmonic
periods (one period of every pair divides the other).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import accumulate
from operator import and_, attrgetter, eq, gt, mod


class TaskModelError(ValueError):
    """Base class for task-set construction and validation failures."""


class NonPositiveParameter(TaskModelError):
    """A parameter that must be a positive (or non-negative) integer is not."""


class NonHarmonic(TaskModelError):
    """Two periods exist of which neither divides the other."""


class DeadlineViolation(TaskModelError):
    """wcet <= deadline <= period does not hold for some task."""


class UtilizationOverload(TaskModelError):
    """Total utilization is >= 1; fixed-point analyses would not converge."""


class DuplicatePriority(TaskModelError):
    """Priorities are not distinct contiguous 1..n."""


class JitterTooLarge(TaskModelError):
    """A release jitter is not in [0, period)."""


@dataclass(frozen=True, slots=True)
class Task:
    """One sporadic task.  Times are integer time units; priority 1 is highest.

    `wcet` may be a Fraction only in relaxed (experiment-grade) task sets;
    strict validation requires integers throughout.  `id` is an opaque label
    used in reports, auto-derived as "t<priority>" when empty.
    """

    period: int
    wcet: int | Fraction
    deadline: int
    jitter: int = 0
    priority: int = 1
    id: str = ""

    @property
    def utilization(self) -> Fraction:
        return Fraction(self.wcet) / self.period


def _task_id(priority: int) -> str:
    """The id of a task that was given none."""
    return f"t{priority}"


@dataclass(frozen=True)
class TaskSet:
    """Immutable task list ordered by strictly increasing priority index.

    The priorities are 1..n in order, so the task at index i has priority
    i + 1; `validate`, which builds every TaskSet, guarantees it, and the
    ordered views read a task's index off its priority.
    """

    tasks: tuple[Task, ...]
    total_utilization: Fraction

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def __getitem__(self, index: int) -> Task:
        return self.tasks[index]


@dataclass(frozen=True)
class PiOrder:
    """Higher-priority tasks of one target, sorted by non-increasing period.

    `order` holds indices into the TaskSet; consecutive periods divide each
    other (largest first).  `cumulative_wcet[k]` / `cumulative_util[k]` are the
    exact suffix sums over the tasks strictly after position k, so the last
    entry of each is zero.
    """

    target_index: int
    order: tuple[int, ...]
    cumulative_wcet: tuple[Fraction | int, ...]
    cumulative_util: tuple[Fraction, ...]


def _require_int(value, what: str, task_label: str):
    if type(value) is not int:
        raise NonPositiveParameter(
            f"{what} of task {task_label} must be an integer, got {value!r}")


def validate(raw_tasks: list[Task], relaxed: bool = False) -> TaskSet:
    """Check all task and task-set invariants and return an immutable TaskSet.

    Strict mode enforces: positive integer parameters, wcet <= deadline <=
    period, 0 <= jitter < period, distinct contiguous priorities 1..n,
    distinct ids, pairwise harmonic periods, and total utilization < 1.

    Relaxed mode (oracle tests and experiment-grade generated sets) skips the
    harmonicity and utilization-cap checks and allows rational wcets; the
    structural per-task checks and the distinct ids still apply.
    """
    if not raw_tasks:
        raise TaskModelError("task set is empty")

    for t in raw_tasks:
        label = t.id or f"priority {t.priority}"
        _require_int(t.period, "period", label)
        _require_int(t.deadline, "deadline", label)
        _require_int(t.jitter, "jitter", label)
        _require_int(t.priority, "priority", label)
        if not relaxed:
            _require_int(t.wcet, "wcet", label)
        if t.period <= 0 or t.deadline <= 0 or t.priority <= 0:
            raise NonPositiveParameter(
                f"task {label}: period, deadline and priority must be positive")
        if t.wcet <= 0:
            raise NonPositiveParameter(f"task {label}: wcet must be positive")
        if t.jitter < 0:
            raise NonPositiveParameter(f"task {label}: jitter must be >= 0")
        if not (t.wcet <= t.deadline <= t.period):
            raise DeadlineViolation(
                f"task {label}: need wcet <= deadline <= period, "
                f"got C={t.wcet}, D={t.deadline}, T={t.period}")
        if t.jitter >= t.period:
            raise JitterTooLarge(
                f"task {label}: jitter {t.jitter} must be < period {t.period}")

    prios = sorted(t.priority for t in raw_tasks)
    if prios != list(range(1, len(raw_tasks) + 1)):
        raise DuplicatePriority(
            f"priorities must be distinct contiguous 1..{len(raw_tasks)}, got {prios}")

    ordered = sorted(raw_tasks, key=lambda t: t.priority)
    if not relaxed:
        by_period = sorted(ordered, key=lambda t: t.period)
        for a, b in zip(by_period, by_period[1:]):
            if b.period % a.period != 0:
                raise NonHarmonic(
                    f"periods {a.period} (task {a.id or a.priority}) and "
                    f"{b.period} (task {b.id or b.priority}) do not divide")

    lcm = math.lcm(*(t.period for t in ordered))
    total_u = Fraction(sum([t.wcet * (lcm // t.period) for t in ordered]), lcm)
    if not relaxed and total_u >= 1:
        raise UtilizationOverload(f"total utilization {total_u} >= 1")

    ordered = tuple(
        t if t.id else Task(t.period, t.wcet, t.deadline, t.jitter,
                            t.priority, _task_id(t.priority))
        for t in ordered)
    ids = [t.id for t in ordered]
    if len(set(ids)) < len(ids):
        repeated = next(i for k, i in enumerate(ids) if i in ids[:k])
        raise TaskModelError(f"task id {repeated!r} is used more than once")
    return TaskSet(ordered, total_u)


def pi_order(ts: TaskSet, target_index: int) -> PiOrder:
    """Sort the target's higher-priority tasks by non-increasing period,
    ties by non-decreasing jitter, then priority.

    This is the order and the suffix sums of `ordered_view(ts, target_index)`,
    back in task time units.
    """
    view = ordered_view(ts, target_index)
    lcm, unum, _ = view.rates()
    return PiOrder(target_index, view.order,
                   tuple(view.unscaled(view.suffix_wcet)),
                   tuple([_ratio(u, lcm) for u in _suffix_sums(unum)]))


def _reduced(num: int, den: int) -> Fraction:
    """Fraction(num, den) for coprime num and den > 0, without the gcd.

    Equal to Fraction(num, den) in value, repr and hash.  Fraction's own
    constructor would reduce the pair a second time.
    """
    value = object.__new__(Fraction)
    value._numerator = num
    value._denominator = den
    return value


def _ratio(num: int, den: int) -> Fraction:
    """Fraction(num, den) for den > 0, reduced with one gcd."""
    g = math.gcd(num, den)
    return _reduced(num // g, den // g)


class _Deferred:
    """Base of a frozen dataclass some of whose fields may be built on
    their first read.

    `_deferred` makes such an instance.  Until a deferred field is read it
    is missing from the instance `__dict__`; `__getattr__` then builds and
    stores it, so every later read returns the same object.  Reads,
    `repr`, `==`, `hash` and pickling all go through the attribute, so
    they see the same values as an instance built by the constructor.
    """

    def __getattr__(self, name):
        # Reached only for an attribute missing from __dict__.
        values = self.__dict__
        entry = values.get("_pending", {}).get(name)
        if entry is not None:
            build, *args = entry
            # Of two threads building at once, the first to store wins, so
            # every read returns one object.
            values.setdefault(name, build(*args))
            values["_pending"].pop(name, None)
        try:
            # Also finds a field another thread stored since the miss.
            return values[name]
        except KeyError:
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}") from None

    def __reduce__(self):
        return type(self), tuple([getattr(self, f.name)
                                  for f in fields(self)])


def _deferred(cls, values: dict, **pending):
    """An instance of `cls` with the field values `values` and, for each
    `name=(build, *args)` in `pending`, a field `name` that is
    `build(*args)`, called on its first read."""
    obj = object.__new__(cls)
    values["_pending"] = pending
    obj.__dict__.update(values)
    return obj


def scaled(values, scale: int) -> tuple[int, ...]:
    """Each int or Fraction value times `scale` (a multiple of its
    denominator), as an int."""
    return tuple(v.numerator * (scale // v.denominator) for v in values)


def _suffix_sums(values) -> list:
    """[sum(values[k + 1:]) for every k] in one pass; values is non-empty."""
    return list(accumulate(values[:0:-1], initial=0))[::-1]


class OrderedView:
    """Interfering tasks of one analysis call, in plain `int`.

    The tasks are in non-increasing period order.  When a wcet, a jitter or
    an `extra` value (a uniform jitter, a demand shift) is rational, every
    time is multiplied by the common denominator `scale`: that changes the
    unit of time, not a ceiling or a fixed point.  `suffix_wcet[k]` sums
    the wcets of the tasks strictly after position k.  `rational` records
    whether a wcet was a Fraction, which decides the type of the values the
    fixed points return.  The utilizations are built on first use by
    `rates()`.  Views are shared between calls and read-only once built;
    only the `rates()` cache is filled in later.
    """

    __slots__ = ("order", "periods", "wcets", "jitters", "target_wcet",
                 "scale", "rational", "nondividing", "suffix_wcet", "_rates")

    def __init__(self, order, periods, wcets, jitters, target_wcet=0,
                 extra=()):
        self.order = order
        # A sum is an int exactly when every term is one.
        self.rational = type(sum(wcets, target_wcet)) is not int
        self.nondividing = None
        if any(map(mod, periods, periods[1:])):
            self.nondividing = next(
                (a, b) for a, b in zip(periods, periods[1:]) if a % b)
        scale = 1
        if (self.rational or type(sum(jitters)) is not int
                or type(sum(extra)) is not int):
            scale = math.lcm(*(v.denominator for v in
                               (target_wcet, *wcets, *jitters, *extra)))
            periods = tuple(t * scale for t in periods)
            wcets = scaled(wcets, scale)
            jitters = scaled(jitters, scale)
            target_wcet = scaled((target_wcet,), scale)[0]
        self.periods, self.wcets, self.jitters = periods, wcets, jitters
        self.target_wcet = target_wcet
        self.scale = scale
        self.suffix_wcet = _suffix_sums(wcets) if periods else ()
        self._rates = None

    def rates(self) -> tuple:
        """(lcm, unum, total_unum), computed on the first call.

        Utilizations are integer numerators `unum` over `lcm`, the least
        common multiple of the scaled periods (the largest one when they
        divide), and `total_unum` is their sum.  The fixed points read
        them; the shift solver does not.
        """
        if self._rates is None:
            periods = self.periods
            lcm = math.lcm(*periods)
            unum = [w * (lcm // t) for t, w in zip(periods, self.wcets)]
            self._rates = (lcm, unum, sum(unum))
        return self._rates

    @property
    def utilization(self) -> Fraction:
        lcm, _, total = self.rates()
        return Fraction(total, lcm)

    def scaled(self, value) -> int:
        """An int or Fraction time (a multiple of 1/scale) in view units."""
        return value.numerator * (self.scale // value.denominator)

    def unscaled(self, values):
        """Times in view units (fixed-point iterates, wcet sums) back in
        task time units: Fractions when some wcet was one, else ints;
        `values` itself when the view's unit is the task time unit."""
        scale = self.scale
        if self.rational:
            return [Fraction(v, scale) for v in values]
        if scale == 1:
            return values
        return [v // scale for v in values]

    def require_harmonic(self) -> None:
        if self.nondividing is not None:
            a, b = self.nondividing
            raise NonHarmonic(
                f"higher-priority periods {a} and {b} do not divide")


_PERIOD = attrgetter("period")
_JITTER = attrgetter("jitter")
_last_views = (None, {})  # (ts, {(target_index, jitter_ties): view})
_INDEX_TYPES = (int, type(None))


def ordered_view(ts: TaskSet, target_index: int | None,
                 jitter_ties: bool = True, extra=()) -> OrderedView:
    """The view of the target's higher-priority tasks (all tasks for None).

    Period ties go by non-decreasing jitter, then priority, when
    `jitter_ties` is set (the WCRT iterations' order, reported by `pi_order`),
    else by priority (the order the shift solver's windows are defined over).
    Both orders are kept because the choice changes results: swapping them
    on 25,174 constrained-jitter targets (5,000 sets of the seed-20260818
    stream) changed the restricted-jitter verdict on 833, the shift
    solver's result on 5,861 and the uniform-jitter stage trace on 5,878.
    Rational `extra` values the caller will convert with `view.scaled`
    join the common denominator.  The views of the last set are kept (by
    identity) and reused; a rational `extra` builds a new, unshared view.
    When the stored view of the other tie order is also in this order,
    that one object serves both.
    """
    global _last_views
    if ((extra and type(sum(extra)) is not int)
            or not isinstance(target_index, _INDEX_TYPES)):
        return _build_view(ts, target_index, jitter_ties, extra)
    last, views = _last_views
    if last is not ts:
        _last_views = ts, (views := {})
    key = target_index, jitter_ties
    view = views.get(key)
    if view is None:
        view = views.get((target_index, not jitter_ties))
        if view is None or not _ties_agree(view, jitter_ties):
            view = _build_view(ts, target_index, jitter_ties, ())
        views[key] = view
    return view


def _ties_agree(view: OrderedView, jitter_ties: bool) -> bool:
    """Whether `view`, built for the other tie order, is in this one too.

    Both orders sort by non-increasing period.  The priority order breaks
    period ties by index, so it is also the jitter order when its jitters
    do not decrease within a period; the jitter order breaks jitter ties
    by index, so it is also the priority order when its indices increase
    within a period.
    """
    periods = view.periods
    keys = view.jitters if jitter_ties else view.order
    return not any(map(and_, map(eq, periods, periods[1:]),
                       map(gt, keys, keys[1:])))


def _build_view(ts: TaskSet, target_index: int | None, jitter_ties: bool,
                extra) -> OrderedView:
    tasks = ts.tasks
    if target_index is None:
        hp, target_wcet = tasks, 0
    else:
        if not 0 <= target_index < len(tasks):
            raise IndexError(f"target index {target_index} out of range")
        hp, target_wcet = tasks[:target_index], tasks[target_index].wcet
    # Two stable sorts: by jitter, then by non-increasing period (reverse
    # keeps equal keys in order).  Ties left by both stay in priority
    # order, and a task's priority is its index plus one.
    chosen = sorted(hp, key=_JITTER) if jitter_ties else hp
    chosen = sorted(chosen, key=_PERIOD, reverse=True)
    order = tuple([t.priority - 1 for t in chosen])
    return OrderedView(order, tuple([t.period for t in chosen]),
                       tuple([t.wcet for t in chosen]),
                       tuple([t.jitter for t in chosen]), target_wcet, extra)


def load_tasks(path: str) -> TaskSet:
    """Read and strictly validate a task-set file.

    The file is a UTF-8 JSON document: a top-level object with "tasks", an
    array of objects with integer fields "period", "wcet", "deadline",
    "jitter" (optional, default 0) and "priority"; an optional string "id".
    """
    return tasks_from_dict(read_task_document(path), where=path)


def read_task_document(path: str):
    """The parsed JSON document of a task-set file, not yet validated."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise TaskModelError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TaskModelError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise TaskModelError(
            f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}"
        ) from exc
    except ValueError as exc:
        # An integer past Python's digit limit for int().
        raise TaskModelError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise TaskModelError(
            f"{path}: JSON nested too deeply to read") from exc


def tasks_from_dict(doc, where: str = "<input>") -> TaskSet:
    """Build a strict TaskSet from a parsed task-file document."""
    if not isinstance(doc, dict) or "tasks" not in doc:
        raise TaskModelError(f"{where}: expected an object with a 'tasks' array")
    entries = doc["tasks"]
    if not isinstance(entries, list):
        raise TaskModelError(f"{where}: 'tasks' must be an array")
    tasks = []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise TaskModelError(f"{where}: tasks[{pos}] is not an object")
        unknown = set(entry) - {"period", "wcet", "deadline", "jitter",
                                "priority", "id"}
        if unknown:
            raise TaskModelError(
                f"{where}: tasks[{pos}] has unknown fields {sorted(unknown)}")
        task_id = entry.get("id", "")
        if not isinstance(task_id, str):
            raise TaskModelError(f"{where}: tasks[{pos}] id must be a string, "
                                 f"got {json.dumps(task_id)}")
        try:
            tasks.append(Task(
                period=entry["period"],
                wcet=entry["wcet"],
                deadline=entry["deadline"],
                jitter=entry.get("jitter", 0),
                priority=entry["priority"],
                id=task_id,
            ))
        except KeyError as exc:
            raise TaskModelError(
                f"{where}: tasks[{pos}] is missing field {exc.args[0]!r}") from exc
    return validate(tasks)


def tasks_to_dict(ts: TaskSet) -> dict:
    """Render a TaskSet in the task-file layout (inverse of tasks_from_dict).

    The layout holds integer wcets only; a task whose wcet is not a whole
    number raises TaskModelError.
    """
    for t in ts:
        if t.wcet != int(t.wcet):
            raise TaskModelError(f"task {t.id}: cannot write non-integer "
                                 f"wcet {t.wcet} to a task file")
    return {"tasks": [
        {"id": t.id, "period": t.period, "wcet": int(t.wcet),
         "deadline": t.deadline, "jitter": t.jitter, "priority": t.priority}
        for t in ts
    ]}


def save_tasks(ts: TaskSet, path: str) -> None:
    """Write a TaskSet as a deterministic task-set file."""
    doc = tasks_to_dict(ts)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
