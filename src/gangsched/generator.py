"""Reproducible synthetic gang task-set generation.

Utilization vectors come from Stafford's fixed-sum sampler (uniform over
the box-constrained simplex, built by walking the simplex decomposition
with the standard recursive weight matrix and then randomly permuting
coordinates).  Around each utilization the remaining gang parameters are
synthesized: uniform widths, log-uniform integer periods, rounded wcets,
implicit or uniformly constrained deadlines.

Every draw is fully determined by (seed, trial); distinct trials use
independently derived streams, so trial generation order never matters.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

from .model import GangTask, TaskSystem, validate

if TYPE_CHECKING:  # numpy is imported where a draw is made, not with the package
    import numpy as np


class GenerationError(RuntimeError):
    """Parameter synthesis failed: the target utilization is infeasible."""


class DeadlineMode(Enum):
    IMPLICIT = "implicit"  # D = T
    CONSTRAINED = "constrained"  # D uniform integer in [C, T]


@dataclass(frozen=True)
class GenParams:
    """Knobs for one family of random task systems.

    target_load is the fraction of total platform capacity: utilizations
    are drawn with sum(U_i) == target_load * m, each U_i in [0, 1].
    """

    n: int
    m: int
    target_load: Fraction
    t_min: int = 10
    t_max: int = 1000
    deadline_mode: DeadlineMode = DeadlineMode.CONSTRAINED
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not (0 < self.target_load <= 1):
            raise ValueError("target_load must be in (0, 1]")
        if not (1 <= self.t_min <= self.t_max):
            raise ValueError("need 1 <= t_min <= t_max")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")


def rand_fixed_sum(
    n: int, total: float, lo: float, hi: float, rng: np.random.Generator
) -> np.ndarray:
    """One vector x of length n with sum(x) == total and lo <= x_i <= hi,
    uniform over the constrained simplex."""
    import numpy as np

    if n < 1:
        raise ValueError("n must be >= 1")
    if hi < lo:
        raise ValueError("need lo <= hi")
    if not (n * lo - 1e-12 <= total <= n * hi + 1e-12):
        raise ValueError(f"sum {total} outside feasible range [{n * lo}, {n * hi}]")
    if hi == lo:
        return np.full(n, lo)
    unit_sum = (total - n * lo) / (hi - lo)
    unit = _unit_fixed_sum(n, min(max(unit_sum, 0.0), float(n)), rng)
    return lo + (hi - lo) * unit


def _unit_fixed_sum(n: int, s: float, rng: np.random.Generator) -> np.ndarray:
    """Stafford's construction on [0, 1]^n with coordinate sum s."""
    import numpy as np

    if n == 1:
        return np.full(1, s)

    k, s, t = _stafford_table(n, s)

    x = [0.0] * n
    rt = rng.uniform(size=n - 1).tolist()  # simplex-type decisions
    rs = rng.uniform(size=n - 1)  # position inside the simplex
    total = s
    j = k + 1
    accum = 0.0
    scale = 1.0
    for i in range(n - 1, 0, -1):
        e = 1.0 if rt[n - i - 1] <= t[i - 1][j - 1] else 0.0
        # numpy power on one element: Python's ** differs in the last bit in ~1/4 of draws
        sx = float((rs[n - i - 1 : n - i] ** (1.0 / i))[0])
        accum = accum + (1.0 - sx) * scale * total / (i + 1)
        scale = sx * scale
        x[n - i - 1] = accum + scale * e
        total = total - e
        j = j - int(e)
    x[n - 1] = accum + scale * total
    return np.array(x)[rng.permutation(n)]


# Every trial of a sweep point shares (n, s); a sweep walks its points in
# order, and one table holds O(n * (k + 1)) floats.
@functools.lru_cache(maxsize=2)
def _stafford_table(n: int, s: float) -> tuple[int, float, tuple[tuple[float, ...], ...]]:
    """The simplex-walk inputs of _unit_fixed_sum for n >= 2: the integer
    part k of s, s clamped to [k, k + 1], and the drop-branch table t."""
    k = int(max(min(math.floor(s), n - 1), 0))
    s = max(min(s, float(k + 1)), float(k))
    s1 = [s - (k - c) for c in range(k + 1)]
    s2 = [(k + n - c) - s for c in range(n)]

    # w[c] (at level l) is proportional to the volume of the level-l slice
    # whose coordinate sum sits c - (k+1) integer steps above s; each slice
    # is the union of a stay branch (same column one level down, factor s1)
    # and a drop branch (previous column, factor s2).  t[l-2][c] holds the
    # conditional probability of the drop branch, written two ways for
    # numerical stability.  The walk starts in column k and never rises,
    # and a column depends only on itself and the column before it one
    # level down, so rows of t are k + 1 wide, zero past column l-1,
    # where the walk may still look.
    tiny = sys.float_info.min
    w = [0.0, sys.float_info.max]
    t = []
    for i in range(2, n + 1):
        w.append(0.0)
        level = [0.0]
        t_row = [0.0] * (k + 1)
        for c in range(min(i, k + 1)):
            stay = w[c + 1] * s1[c] / i
            drop = w[c] * s2[n - i + c] / i
            level.append(stay + drop)
            total_w = level[-1] + tiny
            if s2[n - i + c] > s1[c]:
                t_row[c] = drop / total_w
            else:
                t_row[c] = 1.0 - stay / total_w
        w = level
        t.append(tuple(t_row))
    return k, s, tuple(t)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent deterministic stream for one (seed, trial) pair."""
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def generate_task_system(params: GenParams, trial: int) -> TaskSystem:
    """Draw one valid task system; identical for identical (seed, trial)."""
    rng = trial_rng(params.seed, trial)
    target = float(Fraction(params.target_load) * params.m)
    try:
        utils = rand_fixed_sum(params.n, target, 0.0, 1.0, rng)
    except ValueError as err:
        raise GenerationError(str(err)) from err

    tasks: list[GangTask] = []
    for i in range(params.n):
        # util <= 1 keeps wcet <= period, so every draw is valid.
        util = min(max(float(utils[i]), 0.0), 1.0)  # strip float dust
        width = int(rng.integers(1, params.m + 1))
        period = _log_uniform_int(rng, params.t_min, params.t_max)
        wcet = max(1, round(util * period))  # round half to even
        if params.deadline_mode is DeadlineMode.IMPLICIT:
            deadline = period
        else:
            deadline = int(rng.integers(wcet, period + 1))
        tasks.append(
            GangTask(index=i, width=width, wcet=wcet, deadline=deadline, period=period)
        )
    ts = TaskSystem(processors=params.m, tasks=tuple(tasks))
    validate(ts)
    return ts


def _log_uniform_int(rng: np.random.Generator, lo: int, hi: int) -> int:
    if lo == hi:
        return lo
    value = round(math.exp(rng.uniform(math.log(lo), math.log(hi))))
    return min(max(value, lo), hi)
