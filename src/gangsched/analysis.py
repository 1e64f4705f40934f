"""Demand-based sufficient schedulability test for Gang EDF.

For each task k the test asks whether higher-priority work can fill the
interference rectangle of width delta - C_k and height m - v_k + 1 for
some window length delta >= D_k.  Per window the accumulated interference
(plus a carry-in allowance) is compared against the rectangle area:

  - `original` variant: the test certifies k when lhs <= rhs at every
    scanned window length.  This non-strict comparison is unsound: a
    system can miss deadlines while lhs == rhs everywhere.
  - `strict` variant: certification requires lhs < rhs, which repairs the
    boundary case.

The scan interval comes from a rational bound whose denominator
h_k - sum_i U_i * min(v_i, h_k) is not guaranteed positive.  A
non-positive denominator leaves the scan interval undefined; the outcome
is then the first-class verdict Inapplicable, never a schedulability
claim in either direction.

The scan evaluates only the window lengths where the condition can turn.
It rests on one lemma: for C <= D <= T and delta >= D,

  C <= hbf(delta) <= hbf'(delta)  and  hbf'(delta) - C <= delta - D.

For delta >= D_k every per-task term is then min(demand, delta - C_k)
* min(v_i, h_k), with demand hbf_i or hbf'_i (less C_k for task k itself),
and the max(0, .) clamps are inactive.  Task k's own limit, delta - D_k
in check_condition, changes nothing: by the lemma its demand stays at or
below it, and so below delta - C_k.  The terms change form only at
these integer breakpoints, for each task i:

  - D_i + j*T_i, where hbf_i steps up;
  - j*T_i + C_i, where a rising piece of hbf'_i turns flat;
  - j*C_i + C_k, where a flat demand meets delta - C_k (on a rising piece
    of hbf' both sides have slope 1 and never cross; for task k, by the
    lemma, they never meet).

j <= floor(hi/T_i) + 1 covers every demand value reached up to the end hi
of the scan.

Between consecutive breakpoints p < q the sign of demand - (delta - C_k)
is fixed, so each term is linear on [p, q) (hbf is right-continuous) or
follows hbf'.  On [p, q) hbf' is flat, rising, or flat then rising: the
kink j*T_i turns it up and keeps it convex.  So the no-carry-in sum is
linear, each carry-in extra is convex and the carry-in bound, the sum of
the largest h_k - 1 extras, is a maximum of convex functions.  Hence
lhs - rhs is convex on [p, q).  Its limit at q lies at or below its value
at q: hbf only steps up, and lhs never falls when a demand rises (the
no-carry-in term gains what the extra loses, and the carry-in bound falls
by at most that).  So lhs - rhs is convex on [p, q].  Two consequences:

  - a segment with no violation at either end has none inside it;
  - in a segment that holds at p and is violated at q, the violated
    windows form one run ending at q, so bisection finds the first.

The scan therefore walks its first window, the breakpoints inside its
range in increasing order and its last window, one point at a time, and
bisects back from the first violated point to the last one that held.

All arithmetic is exact (integers and Fraction); there are no tolerances
anywhere in this module.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from heapq import merge
from itertools import accumulate, chain
from typing import Callable, Iterable, Iterator, Optional, Union

from .demand import hbf, hbf_prime
from .model import TaskSystem


class Variant(Enum):
    """Comparison used against the rectangle area."""

    ORIGINAL = "original"  # certify on lhs <= rhs (published, unsound)
    STRICT = "strict"  # certify on lhs < rhs (corrected)


class CarryInStrategy(Enum):
    """How per-task carry-in contributions aggregate into one bound."""

    # At the window start at least v_k processors are idle, so at most
    # h_k - 1 processors run carry-in jobs and each such job occupies at
    # least one processor: at most h_k - 1 tasks contribute carry-in.
    TOP_H_MINUS_ONE = "top"
    # Strictly more conservative fallback: every task contributes.
    ALL_TASKS = "all"


@dataclass(frozen=True)
class AnalysisConfig:
    variant: Variant = Variant.STRICT
    carry_in_strategy: CarryInStrategy = CarryInStrategy.TOP_H_MINUS_ONE
    # Scan limit used when the scan interval is undefined (strict variant
    # refutation scan); None means 10 * max(D_i + T_i).
    delta_cap: Optional[int] = None

    def __post_init__(self):
        if self.delta_cap is not None and self.delta_cap < 1:
            raise ValueError("delta_cap must be >= 1")


@dataclass(frozen=True)
class InterferenceSummary:
    """Per-task interference at one analysis point, plus the comparison."""

    no_carry_in: tuple[int, ...]
    with_carry_in: tuple[int, ...]
    carry_in_extra: tuple[int, ...]
    carry_in_bound: int
    lhs: int  # sum(no_carry_in) + carry_in_bound
    rhs: int  # width * height


@dataclass(frozen=True)
class DeltaBound:
    """Valid scan interval: window lengths up to `value` need checking."""

    value: Fraction


@dataclass(frozen=True)
class NoDeltaBound:
    """Scan interval undefined: the bound's denominator is not positive."""

    denominator: Fraction


@dataclass(frozen=True)
class Certified:
    task_index: int
    scanned_up_to: int  # last window length checked (may be < D_k: empty scan)


@dataclass(frozen=True)
class NotProven:
    """The sufficient condition failed at witness_delta, where the scan
    found lhs against rhs.

    The test cannot certify the task; this does NOT prove infeasibility.
    check_condition(ts, task_index, witness_delta, config) gives the
    per-task InterferenceSummary at the witness, with the same lhs and rhs.
    """

    task_index: int
    witness_delta: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class Inapplicable:
    """The scan interval is undefined (denominator <= 0); no conclusion.

    scanned_up_to reports how far a refutation scan looked without finding
    a violation; None when no such scan was attempted (original variant,
    which models the published procedure and has no defined behavior
    here).
    """

    task_index: int
    denominator: Fraction
    scanned_up_to: Optional[int]


TaskOutcome = Union[Certified, NotProven, Inapplicable]

SYSTEM_SCHEDULABLE = "schedulable"
SYSTEM_NOT_PROVEN = "not_proven"
SYSTEM_INAPPLICABLE = "inapplicable"


@dataclass(frozen=True)
class AnalysisVerdict:
    per_task: tuple[TaskOutcome, ...]

    @property
    def schedulable(self) -> bool:
        """True iff every task is certified."""
        return self.outcome_class == SYSTEM_SCHEDULABLE

    @property
    def outcome_class(self) -> str:
        """System-level class; any Inapplicable task dominates."""
        if any(isinstance(o, Inapplicable) for o in self.per_task):
            return SYSTEM_INAPPLICABLE
        if any(isinstance(o, NotProven) for o in self.per_task):
            return SYSTEM_NOT_PROVEN
        return SYSTEM_SCHEDULABLE


def check_condition(
    ts: TaskSystem, k: int, delta: int, config: AnalysisConfig
) -> tuple[bool, InterferenceSummary]:
    """Evaluate the per-window condition for task k at one window length.

    Busy work must fill the rectangle of width delta - C_k and height
    h_k = m - v_k + 1 for task k's job to miss.  Task i adds
    max(0, min(demand, limit) * min(v_i, h_k)), with demand hbf_i, or
    hbf'_i when it has a carry-in job, and limit delta - C_k; task k's
    own term counts the demand before its job (less C_k), limited to
    delta - D_k.  lhs is the no-carry-in sum plus the sum of the largest
    h_k - 1 carry-in extras (every extra under ALL_TASKS); rhs is the
    rectangle area.  This is the independent reference form of the
    comparison; the window scan evaluates it in the lemma form of the
    module docstring (see _scan_test).
    """
    own = ts.tasks[k]
    if delta < own.deadline:
        raise ValueError(f"delta {delta} < deadline {own.deadline} of task {k}")
    width, h = delta - own.wcet, ts.processors - own.width + 1

    def term(i: int, demand: int) -> int:
        t = ts.tasks[i]
        base = min(demand - t.wcet, delta - t.deadline) if i == k else min(demand, width)
        return max(0, base * min(t.width, h))

    no_carry = tuple(term(i, hbf(t, delta)) for i, t in enumerate(ts.tasks))
    with_carry = tuple(term(i, hbf_prime(t, delta)) for i, t in enumerate(ts.tasks))
    extras = tuple(w - n for w, n in zip(with_carry, no_carry))
    if config.carry_in_strategy is CarryInStrategy.ALL_TASKS:
        carry = sum(extras)
    else:
        carry = sum(sorted(extras, reverse=True)[: max(h - 1, 0)])
    lhs, rhs = sum(no_carry) + carry, width * h
    holds = lhs < rhs if config.variant is Variant.STRICT else lhs <= rhs
    return holds, InterferenceSummary(no_carry, with_carry, extras, carry, lhs, rhs)


def scan_upper_bound(
    ts: TaskSystem, k: int, strategy: CarryInStrategy
) -> Union[DeltaBound, NoDeltaBound]:
    """Upper end of the window-length scan for task k, when defined.

    numerator   h_k*C_k - sum_i (D_i - T_i)*U_i*min(v_i, h_k) + carry wcets
    denominator h_k - sum_i U_i*min(v_i, h_k)

    A denominator <= 0 reverses the inequality the bound is derived from,
    so no finite scan interval exists and the result is NoDeltaBound.
    The arithmetic is _bound_table's, in integers; one Fraction is built
    at the end, equal to what Fraction arithmetic on U_i would give.
    """
    common, numerator, denominator = _bound_table(ts, strategy)[k]
    if denominator > 0:
        return DeltaBound(Fraction(numerator, denominator))
    return NoDeltaBound(Fraction(denominator, common))


# (L, L*numerator, L*denominator) of one task's scan bound.
_BoundRow = tuple[int, int, int]


def _bound_table(ts: TaskSystem, strategy: CarryInStrategy) -> list[_BoundRow]:
    """(L, L*numerator, L*denominator) of every task's scan bound.

    Both sums are taken in integers over the common denominator
    L = lcm(T_i) of the utilizations: L*U_i = C_i*(L/T_i) is an integer,
    so L*numerator and L*denominator are integers with the same ratio and
    the same sign of the denominator.  The sums depend on k only through
    h = m - v_k + 1, and sum_i a_i*min(v_i, h) is the sum of a_i*v_i over
    the tasks with v_i <= h plus h times the sum of a_i over the rest, so
    prefix sums in width order give each distinct h in O(log n).  The
    carry wcets are a prefix sum of the wcets in descending order.
    """
    common = math.lcm(*(t.period for t in ts.tasks))
    by_width = sorted(ts.tasks, key=lambda t: t.width)
    widths = [t.width for t in by_width]

    def clipped(values: list[int]) -> Callable[[int, int], int]:
        # sum_i values_i * min(v_i, h), where tasks j.. are wider than h.
        narrow = list(accumulate((a * v for a, v in zip(values, widths)), initial=0))
        wide = list(accumulate(reversed(values), initial=0))[::-1]
        return lambda j, h: narrow[j] + h * wide[j]

    util = [t.wcet * (common // t.period) for t in by_width]  # L*U_i
    weight = clipped(util)
    slack = clipped([(t.deadline - t.period) * u for t, u in zip(by_width, util)])
    top = list(accumulate(sorted((t.wcet for t in ts.tasks), reverse=True), initial=0))
    sums: dict[int, tuple[int, int]] = {}
    table = []
    for t in ts.tasks:
        h = ts.processors - t.width + 1
        if h not in sums:
            j = bisect_right(widths, h)
            carry = top[-1] if strategy is CarryInStrategy.ALL_TASKS else top[min(h - 1, ts.n)]
            sums[h] = (carry * common - slack(j, h), h * common - weight(j, h))
        numerator, denominator = sums[h]
        table.append((common, numerator + h * t.wcet * common, denominator))
    return table


def default_delta_cap(ts: TaskSystem) -> int:
    """Reporting horizon when the scan interval is undefined."""
    return 10 * max(t.deadline + t.period for t in ts.tasks)


def analyze_task(ts: TaskSystem, k: int, config: AnalysisConfig) -> TaskOutcome:
    """Run the test for one task.

    With a valid scan interval, integer window lengths from D_k through
    ceil(bound) are checked: the first violated window yields NotProven,
    a clean scan yields Certified.  Integer scanning is exhaustive: on
    each unit interval between integer window lengths the demand terms
    are constant while the width, the arrival offset and the carry-in
    selection vary piecewise-linearly, making lhs - rhs convex there;
    its maximum sits on an integer endpoint, so any real violation
    implies an integer one no further than ceil(bound).  The same
    convexity holds on each segment between the demand breakpoints
    listed in the module docstring, so the scan walks the segment ends in
    increasing order, in Python ints, and bisects the first segment whose
    right end is violated; its cost follows the number of breakpoints,
    not of windows.

    With an undefined scan interval (denominator <= 0):
      - original: verdict Inapplicable.  The published procedure defines
        no behavior here, and treating it as certified-by-default is
        exactly the unsound reading this toolkit exists to flag.
      - strict: a bounded refutation scan up to delta_cap runs first; a
        violated window still yields NotProven (a violation refutes
        certification no matter how the interval was obtained), and only
        a clean scan yields Inapplicable.
    """
    return next(_outcomes(ts, config, _scan_ranges(ts, config, [k])))


def analyze(ts: TaskSystem, config: AnalysisConfig = AnalysisConfig()) -> AnalysisVerdict:
    """Run the test for every task; schedulable iff all are certified.

    Pure function of its inputs: per-task outcomes are independent and
    identical regardless of evaluation order.  Every task's scan range is
    taken first, in task order, from one bound table, and the outcomes of
    _outcomes are put back in task order.
    """
    outcomes = _outcomes(ts, config, _scan_ranges(ts, config, range(ts.n)))
    return AnalysisVerdict(tuple(sorted(outcomes, key=lambda o: o.task_index)))


def system_outcome(ts: TaskSystem, config: AnalysisConfig = AnalysisConfig()) -> str:
    """analyze(ts, config).outcome_class from only the scans that decide
    it; raises what analyze raises.

    Every task's scan range is taken first, as in analyze, so that a
    range over SCAN_GUARD raises for the same task.  Only a task with an
    undefined scan interval can be Inapplicable, and it is never
    Certified, so when there are such tasks only they are visited, up to
    the first Inapplicable outcome.  Otherwise the first NotProven
    outcome decides the class.
    """
    ranges = _scan_ranges(ts, config, range(ts.n))
    if undefined := [r for r in ranges if r[1][2] <= 0]:
        inapplicable = any(isinstance(o, Inapplicable) for o in _outcomes(ts, config, undefined))
        return SYSTEM_INAPPLICABLE if inapplicable else SYSTEM_NOT_PROVEN
    violated = any(isinstance(o, NotProven) for o in _outcomes(ts, config, ranges))
    return SYSTEM_NOT_PROVEN if violated else SYSTEM_SCHEDULABLE


# Refuse-to-run guard: a near-zero positive denominator can demand an
# absurdly long exact scan; fail loudly instead of grinding.
SCAN_GUARD = 1 << 31


class ScanGuardError(RuntimeError):
    """A scan interval holds more than SCAN_GUARD window lengths."""


_ScanRange = tuple[int, _BoundRow, Optional[int]]


def _scan_ranges(ts: TaskSystem, config: AnalysisConfig, tasks: Iterable[int]) -> list[_ScanRange]:
    """(k, bound row, last) for each listed task k, where last is the last
    window length to scan from D_k: ceil(bound) when the bound is
    defined, else the refutation cap under strict and None (no scan)
    under original.  Raises ScanGuardError for the first listed task
    whose range holds more than SCAN_GUARD window lengths."""
    table = _bound_table(ts, config.carry_in_strategy)
    cap = config.delta_cap
    ranges = []
    for k in tasks:
        _, numerator, denominator = table[k]
        if denominator > 0:
            last = -(-numerator // denominator)
        elif config.variant is Variant.STRICT:
            if cap is None:
                cap = default_delta_cap(ts)
            last = cap
        else:
            ranges.append((k, table[k], None))
            continue
        windows = last - ts.tasks[k].deadline + 1
        if windows > SCAN_GUARD:
            raise ScanGuardError(f"task {k}: scan over {windows} window lengths "
                                 f"exceeds guard {SCAN_GUARD}")
        ranges.append((k, table[k], last))
    return ranges


_ScanTest = Callable[[int, int], Optional[tuple[int, int]]]


def _outcomes(
    ts: TaskSystem, config: AnalysisConfig, ranges: list[_ScanRange]
) -> Iterator[TaskOutcome]:
    """analyze_task's outcome for each listed range, as soon as it is
    decided: in order, a range with no window or a violated first window
    D_k at once, then the walks of the other ranges over (D_k, last].
    Most violations sit at D_k, and a walk costs O(n) to set up: on
    1,000 systems of the criterion-3 sweep shape (10 tasks on 6
    processors, original variant, load up to 0.4) system_outcome
    evaluates 650 windows and walks 25 ranges, where scanning each
    task's whole range first evaluated 6,162 windows in 917 scans.  The
    scan test is built at the first window, if any."""
    test, held = None, []
    for k, row, last in ranges:
        deadline = ts.tasks[k].deadline
        if last is None or last < deadline:
            yield _clean_outcome(k, row, last)
            continue
        test = test or _scan_test(ts, config)
        if found := test(k, deadline):
            yield NotProven(k, deadline, *found)
        else:
            held.append((k, row, last))
    for k, row, last in held:
        found = _walk(ts, k, test, ts.tasks[k].deadline, last)
        yield NotProven(k, *found) if found else _clean_outcome(k, row, last)


def _clean_outcome(k: int, row: _BoundRow, last: Optional[int]) -> Union[Certified, Inapplicable]:
    """Task k's outcome when no window up to last is violated."""
    common, _, denominator = row
    if denominator > 0:
        return Certified(k, scanned_up_to=last)
    return Inapplicable(k, Fraction(denominator, common), scanned_up_to=last)


def _walk(
    ts: TaskSystem, k: int, test: _ScanTest, held: int, hi: int
) -> Optional[tuple[int, int, int]]:
    """(delta, lhs, rhs) at the smallest integer delta in (held, hi]
    violating task k's condition under the system's scan test, or None,
    given a window held >= D_k where the condition holds.

    Walks the breakpoints inside (held, hi) in increasing order (see the
    module docstring) and hi.  The first violated point ends a segment
    whose start held; there the violated windows run up to that point,
    and bisection finds the first of them.
    """
    c_k = ts.tasks[k].wcet
    families = []
    for t in ts.tasks:
        last = hi // t.period + 1
        for first, step in ((t.deadline, t.period), (t.wcet, t.period), (c_k, t.wcet)):
            # first + j * step for j <= last, past held and up to hi.
            j0 = max(0, (held - first) // step + 1)
            families.append(range(first + j0 * step, min(first + last * step, hi) + 1, step))
    for point in chain(merge(*families), (hi,)):
        if point <= held:
            continue
        if found := test(k, point):
            while point - held > 1:
                mid = (held + point) // 2
                if at_mid := test(k, mid):
                    point, found = mid, at_mid
                else:
                    held = mid
            return (point, *found)
        held = point
    return None


def _scan_test(ts: TaskSystem, config: AnalysisConfig) -> _ScanTest:
    """The system's scan test, built once per analysis from one row per
    task, in the lemma form of the module docstring (every term clipped
    at delta - C_k, and no clamp at 0): (lhs, rhs) where
    check_condition(ts, k, delta, config) fails at delta >= D_k, else
    None."""
    all_tasks = config.carry_in_strategy is CarryInStrategy.ALL_TASKS
    strict = config.variant is Variant.STRICT
    rows = [(t.wcet, t.deadline, t.period, t.width) for t in ts.tasks]

    def violated(k: int, delta: int) -> Optional[tuple[int, int]]:
        c_k, _, _, v_k = own = rows[k]
        h = ts.processors - v_k + 1
        width = delta - c_k
        lhs, extras = 0, []
        for row in rows:
            wcet, deadline, period, v = row
            # hbf_i and hbf'_i, clipped at width by conditionals: min()
            # would double the cost of this loop, which is the scan's cost.
            clip = v if v < h else h
            no_carry = ((delta - deadline) // period + 1) * wcet
            jobs, offset = divmod(delta, period)
            carry = jobs * wcet + (offset if offset < wcet else wcet)
            if row is own:  # task k's own demand loses C_k
                no_carry -= wcet
                carry -= wcet
            no_carry = (no_carry if no_carry < width else width) * clip
            lhs += no_carry
            extras.append((carry if carry < width else width) * clip - no_carry)
        extras.sort(reverse=True)
        lhs += sum(extras if all_tasks else extras[:h - 1])
        rhs = width * h
        return (lhs, rhs) if (lhs >= rhs if strict else lhs > rhs) else None

    return violated
