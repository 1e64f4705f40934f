"""Independent brute-force oracles the analytic formulas are checked against.

These deliberately avoid the closed forms under test: demand is counted by
enumerating release patterns and sliding windows over an explicit
execution timeline.  The scan references keep the plain forms that the
optimized analysis code replaced: the scan bound in Fraction arithmetic
and the window scan as one check_condition call per window length.  The
schedule reference steps the simulator's rules one slot at a time.  The
generator references draw through numpy's Generator, one call per draw:
the fixed-sum sampler with general bounds [lo, hi] on a caller's stream,
and whole task systems on numpy's stream per (seed, trial).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from gangsched.analysis import (
    AnalysisConfig,
    CarryInStrategy,
    DeltaBound,
    NoDeltaBound,
    check_condition,
)
from gangsched.generator import DeadlineMode, GenerationError, GenParams, _stafford_table
from gangsched.model import GangTask, TaskSystem, validate


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
) -> Optional[int]:
    """Smallest delta in [lo, hi] where check_condition fails, window by
    window."""
    for delta in range(lo, hi + 1):
        if not check_condition(ts, k, delta, config)[0]:
            return delta
    return None


def reference_trace(ts: TaskSystem, horizon: int, offsets=None):
    """Slot-by-slot Gang EDF schedule of a periodic release pattern.

    Task i first releases at offsets[i] and then every period; the
    default, all offsets 0, is the synchronous scenario.  Steps one unit
    slot at a time and continues after a miss; returns the per-slot
    allocations, each job as (task index, first processor, width), and
    the first miss as (task index, deadline).  Shares no code with the
    event-driven simulator.
    """
    offsets = offsets or (0,) * ts.n
    jobs = []  # [deadline, index, release, remaining, width]
    slots = []
    first_miss = None
    for now in range(horizon + 1):
        if now < horizon:
            for t in ts.tasks:
                if now >= offsets[t.index] and (now - offsets[t.index]) % t.period == 0:
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
                allocation.append((j[1], next_free, j[4]))
                next_free += j[4]
                j[3] -= 1
        slots.append(tuple(allocation))
    return tuple(slots), first_miss


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """numpy's stream for one (seed, trial) pair."""
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def reference_fixed_sum(
    n: int, total: float, lo: float, hi: float, rng: np.random.Generator
) -> np.ndarray:
    """One vector x of length n with sum(x) == total and lo <= x_i <= hi,
    uniform over the constrained simplex (Stafford's construction), drawn
    through rng's numpy calls.  generate_task_system's _unit_fixed_sum is
    the case lo = 0, hi = 1, replayed on raw words."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if hi < lo:
        raise ValueError("need lo <= hi")
    if not (n * lo - 1e-12 <= total <= n * hi + 1e-12):
        raise ValueError(f"sum {total} outside feasible range [{n * lo}, {n * hi}]")
    if hi == lo:
        return np.full(n, lo)
    unit_sum = (total - n * lo) / (hi - lo)
    s = min(max(unit_sum, 0.0), float(n))
    if n == 1:
        return lo + (hi - lo) * np.full(1, s)
    k, s, t = _stafford_table(n, s)
    x = [0.0] * n
    rt = rng.uniform(size=n - 1).tolist()
    rs = rng.uniform(size=n - 1).tolist()
    total = s
    j = k + 1
    accum = 0.0
    scale = 1.0
    for i in range(n - 1, 0, -1):
        e = 1.0 if rt[n - i - 1] <= t[i - 1][j - 1] else 0.0
        sx = rs[n - i - 1] ** (1.0 / i)
        accum = accum + (1.0 - sx) * scale * total / (i + 1)
        scale = sx * scale
        x[n - i - 1] = accum + scale * e
        total = total - e
        j = j - int(e)
    x[n - 1] = accum + scale * total
    return lo + (hi - lo) * np.array(x)[rng.permutation(n)]


def reference_task_system(params: GenParams, trial: int) -> TaskSystem:
    """generate_task_system drawn through numpy's Generator, one call per
    draw, in the order the generator draws."""
    rng = trial_rng(params.seed, trial)
    target = float(Fraction(params.target_load) * params.m)
    try:
        utils = reference_fixed_sum(params.n, target, 0.0, 1.0, rng)
    except ValueError as err:
        raise GenerationError(str(err)) from err
    tasks = []
    for i in range(params.n):
        util = min(max(float(utils[i]), 0.0), 1.0)
        width = int(rng.integers(1, params.m + 1))
        period = params.t_min
        if params.t_min < params.t_max:
            value = round(math.exp(rng.uniform(math.log(params.t_min), math.log(params.t_max))))
            period = min(max(value, params.t_min), params.t_max)
        wcet = max(1, round(util * period))
        if params.deadline_mode is DeadlineMode.IMPLICIT:
            deadline = period
        else:
            deadline = int(rng.integers(wcet, period + 1))
        tasks.append(GangTask(index=i, width=width, wcet=wcet, deadline=deadline, period=period))
    ts = TaskSystem(processors=params.m, tasks=tuple(tasks))
    validate(ts)
    return ts
