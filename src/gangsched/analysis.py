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

All arithmetic is exact (integers and Fraction); there are no tolerances
anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

import numpy as np

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
class AnalysisPoint:
    """One evaluation point of the test: task k at window length delta."""

    task_index: int
    delta: int  # window length, >= deadline of task k
    arrival_offset: int  # delta - D_k: problem-job arrival within the window
    width: int  # rectangle width: delta - C_k
    height: int  # rectangle height: m - v_k + 1


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
    """The sufficient condition failed at witness_delta.

    The test cannot certify the task; this does NOT prove infeasibility.
    """

    task_index: int
    witness_delta: int
    summary: InterferenceSummary


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
    schedulable: bool

    @property
    def outcome_class(self) -> str:
        """System-level class; any Inapplicable task dominates."""
        if any(isinstance(o, Inapplicable) for o in self.per_task):
            return SYSTEM_INAPPLICABLE
        if any(isinstance(o, NotProven) for o in self.per_task):
            return SYSTEM_NOT_PROVEN
        return SYSTEM_SCHEDULABLE


def interference_rectangle(ts: TaskSystem, k: int, delta: int) -> AnalysisPoint:
    """The minimal region busy work must fill for task k's job to miss."""
    t = ts.tasks[k]
    if delta < t.deadline:
        raise ValueError(f"delta {delta} < deadline {t.deadline} of task {k}")
    return AnalysisPoint(
        task_index=k,
        delta=delta,
        arrival_offset=delta - t.deadline,
        width=delta - t.wcet,
        height=ts.processors - t.width + 1,
    )


def interference_no_carry_in(ts: TaskSystem, i: int, point: AnalysisPoint) -> int:
    """Interference bound for task i assuming it has no carry-in job."""
    t = ts.tasks[i]
    clip = min(t.width, point.height)
    if i == point.task_index:
        base = min(hbf(t, point.delta) - t.wcet, point.arrival_offset)
    else:
        base = min(hbf(t, point.delta), point.width)
    # base < 0 cannot happen for delta >= D_k, but clamping keeps the
    # function total on all inputs.
    return max(0, base * clip)


def interference_with_carry_in(ts: TaskSystem, i: int, point: AnalysisPoint) -> int:
    """Interference bound for task i when it may have a carry-in job."""
    t = ts.tasks[i]
    clip = min(t.width, point.height)
    if i == point.task_index:
        base = min(hbf_prime(t, point.delta) - t.wcet, point.arrival_offset)
    else:
        base = min(hbf_prime(t, point.delta), point.width)
    return max(0, base * clip)


def carry_in_extra(ts: TaskSystem, i: int, point: AnalysisPoint) -> int:
    """Extra interference task i's carry-in job can add; always >= 0."""
    return interference_with_carry_in(ts, i, point) - interference_no_carry_in(
        ts, i, point
    )


def carry_in_bound(
    ts: TaskSystem, point: AnalysisPoint, strategy: CarryInStrategy
) -> int:
    """Aggregate carry-in allowance at one analysis point."""
    extras = [carry_in_extra(ts, i, point) for i in range(ts.n)]
    return _aggregate_carry(extras, point.height, strategy)


def check_condition(
    ts: TaskSystem, k: int, delta: int, config: AnalysisConfig
) -> tuple[bool, InterferenceSummary]:
    """Evaluate the per-window condition for task k at one window length."""
    point = interference_rectangle(ts, k, delta)
    no_carry = tuple(interference_no_carry_in(ts, i, point) for i in range(ts.n))
    with_carry = tuple(interference_with_carry_in(ts, i, point) for i in range(ts.n))
    extras = tuple(w - n for w, n in zip(with_carry, no_carry))
    carry = _aggregate_carry(list(extras), point.height, config.carry_in_strategy)
    lhs = sum(no_carry) + carry
    rhs = point.width * point.height
    holds = lhs < rhs if config.variant is Variant.STRICT else lhs <= rhs
    summary = InterferenceSummary(no_carry, with_carry, extras, carry, lhs, rhs)
    return holds, summary


def scan_upper_bound(
    ts: TaskSystem, k: int, strategy: CarryInStrategy
) -> Union[DeltaBound, NoDeltaBound]:
    """Upper end of the window-length scan for task k, when defined.

    numerator   h_k*C_k - sum_i (D_i - T_i)*U_i*min(v_i, h_k) + carry wcets
    denominator h_k - sum_i U_i*min(v_i, h_k)

    A denominator <= 0 reverses the inequality the bound is derived from,
    so no finite scan interval exists and the result is NoDeltaBound.

    Both sums are taken in integers over the common denominator
    L = lcm(T_i) of the utilizations: L*U_i = C_i*(L/T_i) is an integer,
    so L*numerator and L*denominator are integers with the same ratio and
    the same sign of the denominator.  One Fraction is built at the end,
    equal to what Fraction arithmetic on U_i would give.
    """
    t = ts.tasks[k]
    h = ts.processors - t.width + 1
    common = math.lcm(*(other.period for other in ts.tasks))
    numerator = 0
    denominator = h * common
    for other in ts.tasks:
        # L * U_i * min(v_i, h_k), exact.
        weight = other.wcet * (common // other.period) * min(other.width, h)
        numerator -= (other.deadline - other.period) * weight
        denominator -= weight
    wcets = sorted((other.wcet for other in ts.tasks), reverse=True)
    if strategy is CarryInStrategy.ALL_TASKS:
        carry = sum(wcets)
    else:
        carry = sum(wcets[: h - 1])
    numerator += (h * t.wcet + carry) * common
    if denominator > 0:
        return DeltaBound(Fraction(numerator, denominator))
    return NoDeltaBound(Fraction(denominator, common))


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
    implies an integer one no further than ceil(bound).

    With an undefined scan interval (denominator <= 0):
      - original: verdict Inapplicable.  The published procedure defines
        no behavior here, and treating it as certified-by-default is
        exactly the unsound reading this toolkit exists to flag.
      - strict: a bounded refutation scan up to delta_cap runs first; a
        violated window still yields NotProven (a violation refutes
        certification no matter how the interval was obtained), and only
        a clean scan yields Inapplicable.
    """
    first = ts.tasks[k].deadline
    bound = scan_upper_bound(ts, k, config.carry_in_strategy)
    if isinstance(bound, DeltaBound):
        last = math.ceil(bound.value)
        violation = _first_violation(ts, k, first, last, config)
        if violation is not None:
            return NotProven(k, *violation)
        return Certified(k, scanned_up_to=last)
    if config.variant is Variant.ORIGINAL:
        return Inapplicable(k, bound.denominator, scanned_up_to=None)
    cap = config.delta_cap if config.delta_cap is not None else default_delta_cap(ts)
    violation = _first_violation(ts, k, first, cap, config)
    if violation is not None:
        return NotProven(k, *violation)
    return Inapplicable(k, bound.denominator, scanned_up_to=cap)


def analyze(ts: TaskSystem, config: AnalysisConfig = AnalysisConfig()) -> AnalysisVerdict:
    """Run the test for every task; schedulable iff all are certified.

    Pure function of its inputs: per-task outcomes are independent and
    identical regardless of evaluation order.
    """
    per_task = tuple(analyze_task(ts, k, config) for k in range(ts.n))
    return AnalysisVerdict(
        per_task=per_task,
        schedulable=all(isinstance(o, Certified) for o in per_task),
    )


def _aggregate_carry(extras: list[int], height: int, strategy: CarryInStrategy) -> int:
    if strategy is CarryInStrategy.ALL_TASKS:
        return sum(extras)
    keep = height - 1
    if keep <= 0:
        return 0
    return sum(sorted(extras, reverse=True)[:keep])


# Scans of at most this many windows run the scalar check_condition loop,
# which stops at the first violated window; longer scans run in vectorized
# blocks.  Scans whose values could overflow int64 stay scalar at any length.
_SCALAR_SCAN_MAX = 48

# Windows in the first vectorized block.  Each next block doubles, so a
# violation at the first window costs one small block, while a long clean
# scan reaches full-size blocks after a few steps.
_FIRST_BLOCK = 64

# Largest vectorized block; caps the int64 working arrays of one block at
# a few times n * _SCAN_CHUNK entries.
_SCAN_CHUNK = 1 << 16

# Refuse-to-run guard: a near-zero positive denominator can demand an
# absurdly long exact scan; fail loudly instead of grinding.
SCAN_GUARD = 1 << 31


class ScanGuardError(RuntimeError):
    """A scan interval holds more than SCAN_GUARD window lengths."""


def _first_violation(
    ts: TaskSystem, k: int, lo: int, hi: int, config: AnalysisConfig
) -> Optional[tuple[int, InterferenceSummary]]:
    """Smallest integer delta in [lo, hi] violating the condition, with the
    summary check_condition gives there, or None."""
    if hi < lo:
        return None
    if hi - lo + 1 > SCAN_GUARD:
        raise ScanGuardError(
            f"task {k}: scan over {hi - lo + 1} window lengths exceeds guard {SCAN_GUARD}"
        )
    if hi - lo + 1 <= _SCALAR_SCAN_MAX or not _fits_int64(ts, hi):
        for delta in range(lo, hi + 1):
            holds, summary = check_condition(ts, k, delta, config)
            if not holds:
                return delta, summary
        return None
    start, size = lo, _FIRST_BLOCK
    while start <= hi:
        stop = min(start + size - 1, hi)
        found = _first_violation_block(ts, k, start, stop, config)
        if found is not None:
            return found
        start, size = stop + 1, min(2 * size, _SCAN_CHUNK)
    return None


def _first_violation_block(
    ts: TaskSystem, k: int, lo: int, hi: int, config: AnalysisConfig
) -> Optional[tuple[int, InterferenceSummary]]:
    """Vectorized scan of one contiguous block of window lengths.

    The summary of the first violated window is read from its column;
    with_carry_in is base + extra = max(0, carry-in term), exactly as
    check_condition computes it, and _fits_int64 keeps every entry exact.
    """
    tk = ts.tasks[k]
    h = ts.processors - tk.width + 1
    deltas = np.arange(lo, hi + 1, dtype=np.int64)
    width = deltas - tk.wcet
    offset = deltas - tk.deadline

    base = np.empty((ts.n, deltas.size), dtype=np.int64)
    extra = np.empty_like(base)
    for i, t in enumerate(ts.tasks):
        clip = min(t.width, h)
        demand = np.maximum(0, (deltas - t.deadline) // t.period + 1) * t.wcet
        demand_ci = (deltas // t.period) * t.wcet + np.minimum(
            t.wcet, deltas % t.period
        )
        if i == k:
            b1 = np.minimum(demand - t.wcet, offset)
            b2 = np.minimum(demand_ci - t.wcet, offset)
        else:
            b1 = np.minimum(demand, width)
            b2 = np.minimum(demand_ci, width)
        base[i] = np.maximum(0, b1 * clip)
        extra[i] = np.maximum(0, b2 * clip) - base[i]

    if config.carry_in_strategy is CarryInStrategy.ALL_TASKS or h - 1 >= ts.n:
        carry = extra.sum(axis=0)
    elif h - 1 <= 0:
        carry = np.zeros(deltas.size, dtype=np.int64)
    else:
        split = ts.n - (h - 1)
        carry = np.partition(extra, split - 1, axis=0)[split:].sum(axis=0)

    lhs = base.sum(axis=0) + carry
    rhs = width * h
    violated = lhs >= rhs if config.variant is Variant.STRICT else lhs > rhs
    hits = np.nonzero(violated)[0]
    if hits.size == 0:
        return None
    j = hits[0]
    no_carry = tuple(base[:, j].tolist())
    extras = tuple(extra[:, j].tolist())
    with_carry = tuple(b + e for b, e in zip(no_carry, extras))
    summary = InterferenceSummary(
        no_carry, with_carry, extras, int(carry[j]), int(lhs[j]), int(rhs[j])
    )
    return int(deltas[j]), summary


def _fits_int64(ts: TaskSystem, hi: int) -> bool:
    """Conservative overflow check for the vectorized integer scan."""
    worst_demand = max(
        (hi // t.period + 1) * t.wcet + t.wcet for t in ts.tasks
    )
    worst_term = max(worst_demand, hi) * ts.processors
    return 2 * ts.n * worst_term < 2**62
