"""Independent brute-force oracles the analytic formulas are checked against.

These deliberately avoid the closed forms under test: demand is counted by
enumerating release patterns and sliding windows over an explicit
execution timeline.  The scan references keep the plain forms that the
optimized analysis code replaced: the scan bound in Fraction arithmetic
and the window scan as one check_condition call per window length.  The
schedule reference steps the simulator's rules one slot at a time.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

import numpy as np

from gangsched.analysis import (
    AnalysisConfig,
    CarryInStrategy,
    DeltaBound,
    InterferenceSummary,
    NoDeltaBound,
    check_condition,
)
from gangsched.model import GangTask, TaskSystem


def brute_hbf(task: GangTask, length: int) -> int:
    """Most time-length demand with release and deadline inside the window.

    Tries every release offset and counts jobs whose whole [release,
    release + D] span fits in [0, length]; releases are period apart.
    """
    best = 0
    for offset in range(task.period):
        count = 0
        release = offset
        while release + task.deadline <= length:
            count += 1
            release += task.period
        best = max(best, count)
    return best * task.wcet


def brute_hbf_prime(task: GangTask, length: int) -> int:
    """Most execution time overlapping any window of the given length.

    Builds the synchronous run-as-early-as-possible timeline (each job
    executes [release, release + C)) and slides a window over it.
    """
    if length == 0:
        return 0
    horizon = task.period + length
    timeline = np.fromiter(
        ((u % task.period) < task.wcet for u in range(horizon)),
        dtype=np.int64,
        count=horizon,
    )
    sums = np.cumsum(np.concatenate(([0], timeline)))
    starts = np.arange(task.period)
    return int(np.max(sums[starts + length] - sums[starts]))


def scalar_no_carry_bound(
    tasks, i: int, k: int, delta: int, processors: int
) -> int:
    """Single-processor-style interference bound for width-1 tasks.

    Written directly from the scalar demand formulas; shares no code with
    the gang analysis it is compared against.
    """
    t = tasks[i]
    demand = max(0, (delta - t.deadline) // t.period + 1) * t.wcet
    if i == k:
        return max(0, min(demand - t.wcet, delta - tasks[k].deadline))
    return max(0, min(demand, delta - tasks[k].wcet))


def scalar_carry_bound(tasks, i: int, k: int, delta: int, processors: int) -> int:
    t = tasks[i]
    demand = (delta // t.period) * t.wcet + min(t.wcet, delta % t.period)
    if i == k:
        return max(0, min(demand - t.wcet, delta - tasks[k].deadline))
    return max(0, min(demand, delta - tasks[k].wcet))


def fraction_scan_upper_bound(
    ts: TaskSystem, k: int, strategy: CarryInStrategy
) -> Union[DeltaBound, NoDeltaBound]:
    """The scan bound summed term by term in Fraction arithmetic.

    numerator   h_k*C_k - sum_i (D_i - T_i)*U_i*min(v_i, h_k) + carry wcets
    denominator h_k - sum_i U_i*min(v_i, h_k)
    """
    t = ts.tasks[k]
    h = ts.processors - t.width + 1
    numerator = Fraction(h * t.wcet)
    denominator = Fraction(h)
    for other in ts.tasks:
        clip = min(other.width, h)
        numerator -= (other.deadline - other.period) * other.utilization * clip
        denominator -= other.utilization * clip
    wcets = sorted((other.wcet for other in ts.tasks), reverse=True)
    if strategy is CarryInStrategy.ALL_TASKS:
        numerator += sum(wcets)
    else:
        numerator += sum(wcets[: h - 1])
    if denominator > 0:
        return DeltaBound(numerator / denominator)
    return NoDeltaBound(denominator)


def dense_first_violation(
    ts: TaskSystem, k: int, lo: int, hi: int, config: AnalysisConfig
) -> Optional[tuple[int, InterferenceSummary]]:
    """Smallest delta in [lo, hi] where check_condition fails, window by
    window, with check_condition's summary there."""
    for delta in range(lo, hi + 1):
        holds, summary = check_condition(ts, k, delta, config)
        if not holds:
            return delta, summary
    return None


def reference_trace(ts: TaskSystem, horizon: int):
    """Slot-by-slot Gang EDF schedule of the synchronous scenario.

    Steps one unit slot at a time and continues after a miss; returns the
    per-slot allocations and the first miss as (task index, deadline).
    Shares no code with the event-driven simulator.
    """
    jobs = []  # [deadline, index, release, remaining, width]
    slots = []
    first_miss = None
    for now in range(horizon + 1):
        if now < horizon:
            for t in ts.tasks:
                if now % t.period == 0:
                    jobs.append([now + t.deadline, t.index, now, t.wcet, t.width])
        jobs = [j for j in jobs if j[3] > 0]
        late = sorted((j for j in jobs if j[0] <= now), key=lambda j: (j[0], j[1]))
        if late and first_miss is None:
            first_miss = (late[0][1], late[0][0])
        if now == horizon:
            break
        next_free = 0
        allocation = []
        for j in sorted(jobs, key=lambda j: (j[0], j[1], j[2])):
            if j[4] <= ts.processors - next_free:
                allocation.append((j[1], tuple(range(next_free, next_free + j[4]))))
                next_free += j[4]
                j[3] -= 1
        slots.append(tuple(allocation))
    return tuple(slots), first_miss
