"""The one module test files share, in two parts.

Independent oracles deliberately avoid the closed forms under test:
demand is counted by enumerating release patterns and sliding windows
over an explicit execution timeline.  The scan references keep the plain
forms that the optimized analysis code replaced: the scan bound in
Fraction arithmetic and the window scan as one check_condition call per
window length.  The schedule reference steps the simulator's rules one
slot at a time.  The generator references draw through numpy's
Generator, one call per draw: the fixed-sum sampler with general bounds
[lo, hi] on a caller's stream, and whole task systems on numpy's stream
per (seed, trial).

Shared inputs and runners: the paper's counterexample, seeded and
hypothesis drawers of small systems, the analysis configurations, the
guard and dense systems with periods of 10^6, the CLI run in process,
the interpreter run in a subprocess for the tests whose subject is the
process itself, and recorders of the scan's work.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import resource
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Optional, Union

import numpy as np
from hypothesis import strategies as st

from gangsched import analysis, cli
from gangsched.analysis import (
    AnalysisConfig,
    CarryInStrategy,
    DeltaBound,
    NoDeltaBound,
    Variant,
    check_condition,
)
from gangsched.generator import DeadlineMode, GenerationError, GenParams, _stafford_table
from gangsched.model import GangTask, TaskSystem, parse_task_system, validate


# --- independent oracles ----------------------------------------------------

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


def csv_rows(slots) -> str:
    """The simulate CSV's slot,task,processor rows of per-slot
    allocations, from slot 0: one row per processor of each block."""
    return "".join(f"{slot},{task},{proc}\n"
                   for slot, allocation in enumerate(slots)
                   for task, first, width in allocation
                   for proc in range(first, first + width))


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


def _ranks(values) -> list[Fraction]:
    """1-based ranks, tied values sharing the average of their ranks."""
    ordered = sorted(values)
    return [Fraction(bisect_left(ordered, v) + bisect_right(ordered, v) + 1, 2) for v in values]


def spearman(xs, ys) -> float:
    """Spearman's rank correlation: Pearson's correlation of the ranks.

    Ranks and sums are exact Fractions; floats enter only at the final
    division.
    """
    rx, ry = _ranks(xs), _ranks(ys)
    mean = Fraction(len(xs) + 1, 2)
    sxy = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    sxx = sum((a - mean) ** 2 for a in rx)
    syy = sum((b - mean) ** 2 for b in ry)
    if not sxx or not syy:
        raise ValueError("rank correlation of a constant list is undefined")
    return float(sxy) / math.sqrt(sxx * syy)


# --- shared inputs and runners ----------------------------------------------

# The paper's counterexample, written out independently of
# gangsched.cli.counterexample_system.
COUNTEREXAMPLE_TEXT = "m 3\ntask 2 2 2 2\ntask 2 1 2 2\n"


def two_task_system() -> TaskSystem:
    return TaskSystem(3, (GangTask(0, 2, 2, 2, 2), GangTask(1, 2, 1, 2, 2)))


def random_system(rng: random.Random, n_max: int, m_max: int, t_max: int) -> TaskSystem:
    """Up to n_max constrained tasks on up to m_max processors, periods
    up to t_max."""
    m = rng.randint(1, m_max)
    tasks = []
    for i in range(rng.randint(1, n_max)):
        period = rng.randint(1, t_max)
        wcet = rng.randint(1, period)
        deadline = rng.randint(wcet, period)
        tasks.append(GangTask(i, rng.randint(1, m), wcet, deadline, period))
    return TaskSystem(m, tuple(tasks))


@st.composite
def small_systems(draw, m_max: int, t_max: st.SearchStrategy[int]):
    """Up to 5 constrained tasks on up to m_max processors, periods up to
    a t_max drawn from its strategy."""
    m = draw(st.integers(1, m_max))
    longest = draw(t_max)
    tasks = []
    for i in range(draw(st.integers(1, 5))):
        period = draw(st.integers(1, longest))
        wcet = draw(st.integers(1, period))
        deadline = draw(st.integers(wcet, period))
        tasks.append(GangTask(i, draw(st.integers(1, m)), wcet, deadline, period))
    return TaskSystem(m, tuple(tasks))


def outcome_systems() -> st.SearchStrategy[TaskSystem]:
    """Small systems; overloaded ones have undefined scan intervals."""
    return small_systems(6, st.sampled_from([4, 12, 40]))


ORIGINAL = AnalysisConfig(variant=Variant.ORIGINAL)
STRICT = AnalysisConfig(variant=Variant.STRICT)
ALL_CONFIGS = tuple(AnalysisConfig(variant=v, carry_in_strategy=c)
                    for v in Variant for c in CarryInStrategy)

# Strict, delta_cap 4: both intervals are undefined, with denominator
# -13/14; task 0's is refuted and task 1's scan (D_1 = 6 > 4) is clean.
REFUTED_THEN_CLEAN = TaskSystem(4, (GangTask(0, 3, 3, 4, 4), GangTask(1, 3, 5, 6, 7)))

# Task 0's scan bound has a tiny positive denominator, so its scan runs to
# about 3.3e11 windows, over SCAN_GUARD; task 1's scan interval is
# undefined (denominator 0).
GUARD_TEXT = "m 4\ntask 1 1 1000000 1000000\ntask 4 999999 999999 1000000\n"
GUARD_SYSTEM = parse_task_system(GUARD_TEXT)
# Strict: task 0 is certified by a scan of about 25.7M windows and task 1
# (C_1 = D_1) is violated at its first window.  Its trace is one
# 4-processor run.
DENSE_TEXT = "m 4\ntask 1 1 1000000 1000000\ntask 4 990000 990000 1000000\n"
DENSE_SYSTEM = parse_task_system(DENSE_TEXT)


def record_points(monkeypatch) -> list:
    """Every window length the scan evaluates, in order."""
    points = []
    scan_test = analysis._scan_test

    def recording_test(ts, config):
        violated = scan_test(ts, config)

        def recording(k, delta):
            points.append(delta)
            return violated(k, delta)

        return recording

    monkeypatch.setattr(analysis, "_scan_test", recording_test)
    return points


def record_walks(monkeypatch) -> list:
    """The task of every breakpoint walk, in call order."""
    walks = []
    walk = analysis._walk

    def recording(ts, k, violated, held, hi):
        walks.append(k)
        return walk(ts, k, violated, held, hi)

    monkeypatch.setattr(analysis, "_walk", recording)
    return walks


def run_python(*args, memory=None, timeout=120):
    """Run the interpreter with args in a subprocess with one BLAS thread,
    under an address-space limit of `memory` bytes when one is given, so
    that a runaway allocation fails fast instead of taking the machine's
    memory; a hung command fails on the timeout."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          preexec_fn=None if memory is None else limit_memory,
                          timeout=timeout)


def main_in_process(*args: str) -> tuple[int, str, str]:
    """cli.main's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()
