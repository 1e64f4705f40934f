import math
import random
from fractions import Fraction

import pytest

from gangsched.model import (
    GangTask,
    ParseError,
    TaskSystem,
    ValidationError,
    parse_task_system,
    print_task_system,
    validate,
)

from oracles import COUNTEREXAMPLE_TEXT, random_system, two_task_system


def test_utilization_full_task():
    assert GangTask(0, 2, 2, 2, 2).utilization == Fraction(1)


def test_utilization_half_task():
    assert GangTask(1, 2, 1, 2, 2).utilization == Fraction(1, 2)


def test_utilization_wcet_equals_period():
    assert GangTask(0, 1, 5, 5, 5).utilization == Fraction(1)


def test_validate_accepts_counterexample_system():
    validate(two_task_system())  # infeasible at runtime, but a valid input


def test_validate_width_exceeds_platform():
    ts = TaskSystem(1, (GangTask(0, 2, 1, 1, 1),))
    with pytest.raises(ValidationError) as err:
        validate(ts)
    assert "v <= m" in str(err.value)
    assert err.value.task_index == 0


def test_validate_deadline_exceeds_period():
    ts = TaskSystem(2, (GangTask(0, 1, 1, 3, 2),))
    with pytest.raises(ValidationError) as err:
        validate(ts)
    assert "D <= T" in str(err.value)


def test_validate_rejects_each_violated_constraint():
    good = dict(index=0, width=1, wcet=2, deadline=3, period=4)
    breakers = [
        (dict(width=0), "v >= 1 violated"),
        (dict(wcet=0), "C >= 1 violated"),
        (dict(deadline=0), "D >= 1 violated"),  # checked before C <= D
        (dict(period=0), "T >= 1 violated"),  # checked before D <= T
        (dict(wcet=4), "C <= D violated"),
        (dict(deadline=5), "D <= T violated"),
        (dict(width=3), "v <= m violated"),
    ]
    for broken, constraint in breakers:
        with pytest.raises(ValidationError) as err:
            validate(TaskSystem(2, (GangTask(**{**good, **broken}),)))
        assert err.value.constraint == constraint
    invalid = [
        TaskSystem(0, (GangTask(**good),)),
        TaskSystem(2, ()),
        TaskSystem(2, (GangTask(**{**good, "index": 1}),)),
    ]
    for ts in invalid:
        with pytest.raises(ValidationError):
            validate(ts)
    validate(TaskSystem(2, (GangTask(**good),)))


def test_parse_two_task_file():
    ts = parse_task_system("m 3\ntask 2 2 2 2\ntask 2 1 2 2")
    assert ts == two_task_system()


def test_parse_empty_is_missing_m():
    with pytest.raises(ParseError) as err:
        parse_task_system("")
    assert "missing 'm" in str(err.value)


def test_parse_tolerates_comments_and_whitespace():
    text = "# header\n\n  m   3\n\ntask  2 2\t2 2\n# mid\ntask 2 1 2  2\n"
    assert parse_task_system(text) == two_task_system()


def test_parse_rejects_non_integer():
    # int() takes `1_0`, `+5` and other scripts' digits; a task file does not.
    for field in ("x", "1_0", "+5", "\u0661"):
        with pytest.raises(ParseError) as err:
            parse_task_system(f"m 3\ntask 2 {field} 2 2\n")
        assert err.value.line == 2
        assert str(err.value) == f"line 2: not an integer: {field!r}"
    with pytest.raises(ParseError) as err:
        parse_task_system("m 2\ntask 1 -3 1 1\n")
    assert str(err.value) == "line 2: expected a positive integer, got -3"
    with pytest.raises(ParseError) as err:
        parse_task_system("m 2\ntask 0 1 1 1\n")
    assert str(err.value) == "line 2: expected a positive integer, got 0"


def test_parse_rejects_bad_keyword():
    for text, message in [
        ("m 3\njob 2 1 2 2\n", "line 2: expected 'task <v> <C> <D> <T>', got 'job'"),
        ("task 2 1 2 2\n", "line 1: expected 'm <count>', got 'task'"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_task_system(text)
        assert str(err.value) == message


def test_parse_rejects_wrong_field_count():
    for text, message in [
        ("m 3\ntask 2 1 2\n", "line 2: expected exactly four values after 'task'"),
        ("m 3 4\n", "line 1: expected exactly one value after 'm'"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_task_system(text)
        assert str(err.value) == message


def test_parse_reports_validation_failure_with_line():
    with pytest.raises(ParseError) as err:
        parse_task_system("m 3\ntask 2 2 2 2\ntask 2 5 4 4\n")
    assert err.value.line == 3
    assert "C <= D" in str(err.value)


def test_print_canonical_form():
    assert print_task_system(two_task_system()) == COUNTEREXAMPLE_TEXT


def test_print_single_task_two_lines():
    ts = TaskSystem(2, (GangTask(0, 1, 1, 2, 3),))
    assert print_task_system(ts) == "m 2\ntask 1 1 2 3\n"


def test_parse_print_round_trip_random():
    rng = random.Random(20240901)
    for _ in range(300):
        ts = random_system(rng, 8, 6, 30)
        assert parse_task_system(print_task_system(ts)) == ts


def test_print_after_parse_is_idempotent():
    messy = "# c\nm 3\n\ntask 2   2 2 2\ntask 2 1 2 2"
    once = print_task_system(parse_task_system(messy))
    assert print_task_system(parse_task_system(once)) == once


def test_rational_ops_match_integer_cross_multiplication():
    rng = random.Random(99)
    for _ in range(500):
        a, c = rng.randint(-50, 50), rng.randint(-50, 50)
        b, d = rng.randint(1, 50), rng.randint(1, 50)
        x, y = Fraction(a, b), Fraction(c, d)
        assert x + y == Fraction(a * d + c * b, b * d)
        assert (x < y) == (a * d < c * b)
        assert (x == y) == (a * d == c * b)
        assert math.floor(x) == a // b  # python floordiv floors toward -inf
        assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
