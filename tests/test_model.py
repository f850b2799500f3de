"""Task model: validation rules, priority ordering, file round-trips."""

import json
import random
from fractions import Fraction

import pytest

from harmonic_rta import (
    DeadlineViolation,
    DuplicatePriority,
    JitterTooLarge,
    NonHarmonic,
    NonPositiveParameter,
    Task,
    TaskModelError,
    UtilizationOverload,
    load_tasks,
    pi_order,
    save_tasks,
    validate,
)
from conftest import mk


def test_table1_is_valid(table1):
    assert len(table1) == 6
    expected = (Fraction(6, 60) + Fraction(8, 60) + Fraction(4, 30)
                + Fraction(13, 360) + Fraction(7, 120) + Fraction(12, 360))
    assert table1.total_utilization == expected
    assert table1.total_utilization < 1


def test_single_task_valid():
    ts = mk([(10, 1, 0)])
    assert ts.total_utilization == Fraction(1, 10)


def test_non_harmonic_rejected():
    with pytest.raises(NonHarmonic):
        mk([(6, 1, 0), (10, 1, 0)])


def test_validate_sorts_by_priority():
    tasks = [
        Task(period=20, wcet=1, deadline=20, jitter=0, priority=2, id="b"),
        Task(period=10, wcet=1, deadline=10, jitter=0, priority=1, id="a"),
    ]
    ts = validate(tasks)
    assert [t.id for t in ts] == ["a", "b"]
    assert [t.priority for t in ts] == [1, 2]


@pytest.mark.parametrize("rows,exc", [
    ([(10, 0, 0)], NonPositiveParameter),
    ([(0, 1, 0)], NonPositiveParameter),
    ([(10, 1, -1)], NonPositiveParameter),
    ([(10, 11, 0)], DeadlineViolation),            # wcet > deadline
    ([(10, 1, 0, 11)], DeadlineViolation),         # deadline > period
    ([(10, 1, 10)], JitterTooLarge),               # jitter == period
    ([(10, 6, 0), (10, 5, 0)], UtilizationOverload),
])
def test_strict_violations(rows, exc):
    with pytest.raises(exc):
        mk(rows)


def test_duplicate_and_gapped_priorities():
    a = Task(period=10, wcet=1, deadline=10, jitter=0, priority=1)
    b = Task(period=20, wcet=1, deadline=20, jitter=0, priority=1)
    with pytest.raises(DuplicatePriority):
        validate([a, b])
    c = Task(period=20, wcet=1, deadline=20, jitter=0, priority=3)
    with pytest.raises(TaskModelError):
        validate([a, c])


def test_empty_set_rejected():
    with pytest.raises(TaskModelError):
        validate([])


def test_relaxed_allows_rational_wcet_and_overload():
    a = Task(period=10, wcet=Fraction(7, 2), deadline=10, jitter=0, priority=1)
    b = Task(period=6, wcet=5, deadline=6, jitter=0, priority=2)
    ts = validate([a, b], relaxed=True)
    assert ts.total_utilization == Fraction(7, 20) + Fraction(5, 6)
    # Strict mode rejects the fractional wcet before it ever reaches the
    # divisibility or utilization checks.
    with pytest.raises(NonPositiveParameter):
        validate([a, b])


def test_pi_order_equal_periods_break_by_jitter(table1):
    # Target task 3: both higher-priority tasks have period 60; jitters 8 and
    # 0 order the zero-jitter one first.
    pi = pi_order(table1, 2)
    assert pi.order == (1, 0)


def test_pi_order_table1_task6(table1):
    pi = pi_order(table1, 5)
    assert pi.order == (3, 4, 1, 0, 2)


def test_pi_order_no_higher_priority(table1):
    assert pi_order(table1, 0).order == ()


RELAXED_ROWS = [(40, Fraction(7, 3), 5), (10, Fraction(9, 2), 1),
                (20, 19, 0), (10, 3, 7), (40, Fraction(1, 6), 2)]


def test_pi_order_suffix_sums(table1):
    # The relaxed set has rational wcets and a utilization above 1.
    for ts in (table1, mk(RELAXED_ROWS, relaxed=True)):
        pi = pi_order(ts, len(ts) - 1)
        wcets = [ts[i].wcet for i in pi.order]
        k = len(wcets)
        assert pi.cumulative_wcet[k - 1] == 0
        for i in range(k - 1):
            assert (pi.cumulative_wcet[i]
                    == pi.cumulative_wcet[i + 1] + wcets[i + 1])


def test_pi_order_periods_divide(table1):
    pi = pi_order(table1, 5)
    periods = [table1[i].period for i in pi.order]
    for a, b in zip(periods, periods[1:]):
        assert a % b == 0


def test_file_round_trip(tmp_path, table1):
    path = tmp_path / "set.json"
    save_tasks(table1, str(path))
    loaded = load_tasks(str(path))
    assert loaded == table1
    # Byte determinism of the writer.
    first = path.read_bytes()
    save_tasks(table1, str(path))
    assert path.read_bytes() == first


def test_save_rejects_non_integer_wcet(tmp_path):
    ts = mk([(10, Fraction(5, 2), 0), (20, 3, 0)], relaxed=True)
    path = tmp_path / "set.json"
    with pytest.raises(TaskModelError, match=f"task {ts[0].id}: .* 5/2"):
        save_tasks(ts, str(path))
    assert not path.exists()


def test_load_rejects_unknown_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"tasks": [
        {"period": 10, "wcet": 1, "deadline": 10, "priority": 1, "color": 3},
    ]}))
    with pytest.raises(TaskModelError) as err:
        load_tasks(str(path))
    assert "color" in str(err.value)


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"tasks": [
        {"period": 10, "wcet": 1, "priority": 1},
    ]}))
    with pytest.raises(TaskModelError) as err:
        load_tasks(str(path))
    assert "deadline" in str(err.value)


def test_load_parse_error_has_line_info(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"tasks": [\n  {"period": 10,}\n]}')
    with pytest.raises(TaskModelError) as err:
        load_tasks(str(path))
    assert "line" in str(err.value)


@pytest.mark.parametrize("relaxed", [False, True])
def test_repeated_ids_are_rejected(relaxed):
    # The second task has no id, so it reads "t2", which the first one has.
    tasks = [Task(period=10, wcet=3, deadline=10, priority=1, id="t2"),
             Task(period=20, wcet=5, deadline=20, priority=2),
             Task(period=40, wcet=6, deadline=40, priority=3, id="c")]
    with pytest.raises(TaskModelError, match="task id 't2' is used more"):
        validate(tasks, relaxed=relaxed)
    tasks[1] = Task(period=20, wcet=5, deadline=20, priority=2, id="c")
    with pytest.raises(TaskModelError, match="task id 'c' is used more"):
        validate(tasks, relaxed=relaxed)
    tasks[1] = Task(period=20, wcet=5, deadline=20, priority=2, id="b")
    assert [t.id for t in validate(tasks, relaxed=relaxed)] == ["t2", "b", "c"]


def test_total_utilization_is_the_exact_fraction_sum():
    rng = random.Random(5)
    for trial in range(400):
        rows = []
        for _ in range(rng.randint(1, 12)):
            period = rng.choice([2, 3, 5, 7, 12, 30, 49, 360, 1001])
            wcet = (Fraction(rng.randint(1, 4 * period), 4) if trial % 2
                    else rng.randint(1, period))
            rows.append((period, min(wcet, period), rng.randrange(period)))
        ts = mk(rows, relaxed=True)
        total = ts.total_utilization
        assert type(total) is Fraction
        assert total == sum((Fraction(t.wcet, t.period) for t in ts),
                            Fraction(0))
    with pytest.raises(UtilizationOverload,
                       match=r"^total utilization 11/10 >= 1$"):
        mk([(10, 6, 0), (10, 5, 0)])
    with pytest.raises(UtilizationOverload,
                       match=r"^total utilization 1 >= 1$"):
        mk([(20, 5, 0), (10, 5, 0), (40, 10, 0)])
