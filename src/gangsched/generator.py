"""Reproducible synthetic gang task-set generation.

Utilization vectors come from Stafford's fixed-sum sampler (uniform over
the box-constrained simplex, built by walking the simplex decomposition
with the standard recursive weight matrix and then randomly permuting
coordinates).  Around each utilization the remaining gang parameters are
synthesized: uniform widths, log-uniform integer periods, rounded wcets,
implicit or uniformly constrained deadlines.

Every draw is fully determined by (seed, trial); distinct trials use
independently derived streams, so trial generation order never matters.
A trial's stream is numpy's PCG64 seeded from SeedSequence([seed, trial]),
and its draws are the ones numpy's Generator would make, replayed in
Python on blocks of raw words rather than one numpy call per draw.  The
simplex roots are Python float powers, not numpy calls.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .model import GangTask, TaskSystem, validate


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

    Bounds: 1 <= n; 1 <= m < 2**63, because the width draw is an int64
    draw; 0 < target_load <= 1; 1 <= t_min <= t_max <= 2**53, because
    every period up to 2**53 is exact as a float; 0 <= seed < 2**64.
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
        if self.m >= 2**63:
            raise ValueError("m must be < 2**63")
        if self.t_max > 2**53:
            raise ValueError("t_max must be <= 2**53")


def _unit_fixed_sum(n: int, s: float, draws: _Draws) -> list:
    """One vector x of length n with sum(x) == s and 0 <= x_i <= 1, uniform
    over that slice of the unit cube: Stafford's construction."""
    if not (-1e-12 <= s <= n + 1e-12):
        raise GenerationError(f"sum {s} outside feasible range [0.0, {float(n)}]")
    k, s, t = _stafford_table(n, s)

    x = [0.0] * n
    rt = draws.doubles(n - 1)  # simplex-type decisions
    rs = draws.doubles(n - 1)  # position inside the simplex
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
    draws.shuffle(x)
    return x


# Every trial of a sweep point shares (n, s); a sweep walks its points in
# order, and one table holds O(n * (k + 1)) floats.
@functools.lru_cache(maxsize=2)
def _stafford_table(n: int, s: float) -> tuple[int, float, tuple[tuple[float, ...], ...]]:
    """The simplex-walk inputs of _unit_fixed_sum: floor(s) clamped to
    [0, n - 1] as k, s clamped to [k, k + 1], and the drop-branch table t."""
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


class _Draws:
    """numpy Generator draws, replayed in Python on a bit generator's raw
    64-bit words (PCG64's, in generate_task_system).

    The transforms are numpy's:
    - a double takes a whole word w and is (w >> 11) * 2**-53;
    - a 32-bit request takes the low half of a word and keeps the high
      half for the next 32-bit request; doubles leave it alone;
    - integers(lo, hi) is Lemire's method: no draw for a closed span
      hi - 1 - lo of 0, 32-bit halves up to 2**32 - 1 (one half as drawn
      there, as numpy does) and whole words above;
    - a shuffle (and so permutation(n)) is Fisher-Yates from n - 1 down
      to 1, each index drawn by masked rejection on 32-bit halves.

    bitgen must be a fresh stream of this object's own: words are fetched
    block at a time, and those left over are dropped.
    """

    __slots__ = ("_stream", "_word", "_has_half", "_half")

    def __init__(self, bitgen, block: int):
        blocks = iter(lambda: bitgen.random_raw(block).tolist(), None)
        self._stream = itertools.chain.from_iterable(blocks)
        self._word = self._stream.__next__
        self._has_half, self._half = False, 0

    def _half_word(self) -> int:
        if self._has_half:
            self._has_half = False
            return self._half
        word = self._word()
        self._has_half, self._half = True, word >> 32
        return word & 0xFFFFFFFF

    def doubles(self, count: int) -> list[float]:
        """count draws of uniform()."""
        return [(w >> 11) * 2**-53 for w in itertools.islice(self._stream, count)]

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * ((self._word() >> 11) * 2**-53)

    def integers(self, low: int, high: int) -> int:
        """integers(low, high) with the default int64 dtype, for
        0 <= low < high <= 2**63 (GenParams keeps m and t_max in range)."""
        excl = high - low
        if excl == 1:
            return low
        # An if/else, not a conditional tuple: this is generation's hot path.
        if excl <= 2**32:
            draw, bits, mask = self._half_word, 32, 2**32 - 1
        else:
            draw, bits, mask = self._word, 64, 2**64 - 1
        product = draw() * excl
        if product & mask < excl:
            threshold = (mask + 1 - excl) % excl
            while product & mask < threshold:
                product = draw() * excl
        return low + (product >> bits)

    def shuffle(self, items: list) -> None:
        """shuffle(items) in place, for len(items) <= 2**32: the draws of
        permutation(n), and items[permutation(n)] as the result."""
        half_word = self._half_word
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = half_word() & mask
            while j > i:
                j = half_word() & mask
            items[i], items[j] = items[j], items[i]


def generate_task_system(params: GenParams, trial: int) -> TaskSystem:
    """Draw one valid task system; identical for identical (seed, trial)."""
    from numpy.random import PCG64, SeedSequence

    # A system takes 4 to 4.6 words a task on average (two doubles for the
    # walk, a period, and halves for the shuffle, the width and the
    # deadline), so one block usually holds them all.
    draws = _Draws(PCG64(SeedSequence([params.seed, trial])), block=5 * params.n + 8)
    utils = _unit_fixed_sum(params.n, float(Fraction(params.target_load) * params.m), draws)

    t_min, t_max = params.t_min, params.t_max
    log_min, log_max = math.log(t_min), math.log(t_max)
    constrained = params.deadline_mode is DeadlineMode.CONSTRAINED
    integers, uniform = draws.integers, draws.uniform
    tasks: list[GangTask] = []
    for i, util in enumerate(utils):
        # util <= 1 keeps wcet <= period, as periods up to 2**53 are exact
        # floats, so every draw is valid.
        util = min(max(util, 0.0), 1.0)  # strip float dust
        width = integers(1, params.m + 1)
        period = t_min
        if t_min < t_max:  # log-uniform
            period = round(math.exp(uniform(log_min, log_max)))
            period = min(max(period, t_min), t_max)
        wcet = max(1, round(util * period))  # round half to even
        deadline = integers(wcet, period + 1) if constrained else period
        tasks.append(GangTask(i, width, wcet, deadline, period))
    ts = TaskSystem(processors=params.m, tasks=tuple(tasks))
    validate(ts)
    return ts
