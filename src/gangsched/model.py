"""Task and platform model for gang (rigid parallel) scheduling.

A gang task occupies a fixed number of processors simultaneously for its
whole execution; a job is a wcet x width rectangle in time x processor
space.  All parameters are positive integers and deadlines are constrained
(wcet <= deadline <= period), which keeps every analysis quantity integral
and lets the simulator run in exact unit time slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


class ValidationError(ValueError):
    """A task system violates a model constraint."""

    def __init__(self, constraint: str, task_index: Optional[int] = None):
        self.constraint = constraint
        self.task_index = task_index
        where = "system" if task_index is None else f"task {task_index}"
        super().__init__(f"{where}: {constraint}")


class ParseError(ValueError):
    """A task-set file is malformed or fails validation."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


@dataclass(frozen=True)
class GangTask:
    """One rigid parallel task.

    Fields may hold invalid values at construction time; `validate` is the
    single authority on model constraints.
    """

    index: int
    width: int  # processors held simultaneously by every job
    wcet: int  # worst-case execution time, integer time units
    deadline: int  # relative deadline
    period: int  # minimum inter-arrival time

    @property
    def utilization(self) -> Fraction:
        """wcet / period, exact and in lowest terms."""
        return Fraction(self.wcet, self.period)


@dataclass(frozen=True)
class TaskSystem:
    """An ordered task list plus the platform processor count.

    List order doubles as the EDF tie-break order: among equal absolute
    deadlines the lower-indexed task wins.  Immutable; safe to share.
    """

    processors: int
    tasks: tuple[GangTask, ...]

    @property
    def n(self) -> int:
        return len(self.tasks)


def validate(ts: TaskSystem) -> None:
    """Raise ValidationError on the first violated constraint, else return."""
    if ts.processors < 1:
        raise ValidationError("m >= 1 violated")
    if not ts.tasks:
        raise ValidationError("task list is empty")
    for pos, t in enumerate(ts.tasks):
        if t.index != pos:
            raise ValidationError(f"index {t.index} != list position {pos}", pos)
        if t.width < 1:
            raise ValidationError("v >= 1 violated", pos)
        if t.wcet < 1:
            raise ValidationError("C >= 1 violated", pos)
        if t.deadline < 1:
            raise ValidationError("D >= 1 violated", pos)
        if t.period < 1:
            raise ValidationError("T >= 1 violated", pos)
        if t.wcet > t.deadline:
            raise ValidationError("C <= D violated", pos)
        if t.deadline > t.period:
            raise ValidationError("D <= T violated", pos)
        if t.width > ts.processors:
            raise ValidationError("v <= m violated", pos)


def parse_task_system(text: str) -> TaskSystem:
    """Parse the line-oriented task-set format.

    Blank lines and lines starting with `#` are ignored.  The first
    significant line is `m <int>`, each following one `task <v> <C> <D> <T>`.
    The parsed system is validated; violations surface as ParseError with
    the offending line number.
    """
    m: Optional[int] = None
    m_line = 0
    tasks: list[GangTask] = []
    task_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if m is None:
            if fields[0] != "m":
                raise ParseError(lineno, f"expected 'm <count>', got {fields[0]!r}")
            if len(fields) != 2:
                raise ParseError(lineno, "expected exactly one value after 'm'")
            m = _parse_int(lineno, fields[1])
            m_line = lineno
            continue
        if fields[0] != "task":
            raise ParseError(lineno, f"expected 'task <v> <C> <D> <T>', got {fields[0]!r}")
        if len(fields) != 5:
            raise ParseError(lineno, "expected exactly four values after 'task'")
        v, c, d, t = (_parse_int(lineno, f) for f in fields[1:])
        tasks.append(GangTask(index=len(tasks), width=v, wcet=c, deadline=d, period=t))
        task_lines.append(lineno)
    if m is None:
        raise ParseError(0, "missing 'm <count>' line")
    ts = TaskSystem(processors=m, tasks=tuple(tasks))
    try:
        validate(ts)
    except ValidationError as err:
        lineno = m_line if err.task_index is None else task_lines[err.task_index]
        raise ParseError(lineno, str(err)) from err
    return ts


def print_task_system(ts: TaskSystem) -> str:
    """Canonical text form; parse(print(ts)) == ts."""
    lines = [f"m {ts.processors}"]
    for t in ts.tasks:
        lines.append(f"task {t.width} {t.wcet} {t.deadline} {t.period}")
    return "\n".join(lines) + "\n"


def _parse_int(lineno: int, field: str) -> int:
    digits = field.removeprefix("-")  # ASCII -?[0-9]+; int() alone takes `+5`, `1_0`, `١`
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(field)
        value = int(field)  # still refuses a field of over 4,300 digits
    except ValueError:
        raise ParseError(lineno, f"not an integer: {field!r}") from None
    if value < 1:
        raise ParseError(lineno, f"expected a positive integer, got {value}")
    return value
