import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from gangsched.generator import (
    DeadlineMode,
    GenParams,
    GenerationError,
    _Draws,
    _stafford_table,
    _unit_fixed_sum,
    generate_task_system,
)
from gangsched.model import print_task_system, validate

from oracles import reference_fixed_sum, reference_task_system


def unit_draws(seed):
    """A draw stream of its own for _unit_fixed_sum, as generate_task_system
    makes one per trial."""
    return _Draws(np.random.PCG64(seed), block=4096)


def test_single_element_is_forced():
    assert _unit_fixed_sum(1, 0.5, unit_draws(0)) == [0.5]


def _draws(count, n, total, seed):
    draws = unit_draws(seed)
    return np.array([_unit_fixed_sum(n, total, draws) for _ in range(count)])


def test_sum_and_bounds_hold_on_every_draw():
    for n, total in [(4, 2.0), (2, 0.3), (7, 6.5), (10, 1.0), (3, 3.0), (5, 0.0)]:
        batch = _draws(200, n, total, seed=1)
        assert batch.shape == (200, n)
        assert np.all(batch >= -1e-12) and np.all(batch <= 1 + 1e-12)
        assert np.max(np.abs(batch.sum(axis=1) - total)) <= 1e-9


def test_general_bounds_rescale():
    # Only the numpy reference takes bounds other than [0, 1].
    rng = np.random.default_rng(2)
    batch = np.array([reference_fixed_sum(5, 12.0, 1.5, 3.0, rng) for _ in range(100)])
    assert np.all(batch >= 1.5 - 1e-9) and np.all(batch <= 3.0 + 1e-9)
    assert np.max(np.abs(batch.sum(axis=1) - 12.0)) <= 1e-9


def test_infeasible_sum_rejected():
    draws = unit_draws(3)
    with pytest.raises(GenerationError, match=r"^sum 4.5 outside feasible range \[0.0, 4.0\]$"):
        _unit_fixed_sum(4, 4.5, draws)
    with pytest.raises(GenerationError, match=r"^sum -0.1 outside feasible range"):
        _unit_fixed_sum(4, -0.1, draws)


def test_coordinate_means_match_symmetry():
    # by symmetry each coordinate of a (3, sum 1.5) draw has mean 0.5
    batch = _draws(100_000, 3, 1.5, seed=4)
    means = batch.mean(axis=0)
    stderr = batch.std(axis=0, ddof=1) / math.sqrt(batch.shape[0])
    assert np.all(np.abs(means - 0.5) <= 3 * stderr)


def test_marginal_matches_rejection_sampling_oracle():
    # keep uniform-cube samples whose sum lands in a thin band around 1.5
    rng = np.random.default_rng(5)
    cube = rng.uniform(size=(400_000, 3))
    kept = cube[np.abs(cube.sum(axis=1) - 1.5) <= 0.02][:, 0]
    assert kept.size > 5_000
    fixed = _draws(50_000, 3, 1.5, seed=6)[:, 0]
    grid = np.linspace(0.05, 0.95, 19)
    cdf_kept = np.array([(kept <= g).mean() for g in grid])
    cdf_fixed = np.array([(fixed <= g).mean() for g in grid])
    assert np.max(np.abs(cdf_kept - cdf_fixed)) < 0.05


# sha256 of the float64 bytes of every draw in the grid below, drawn by the
# numpy reference, which test_generated_systems_match_the_numpy_reference
# ties generate_task_system to, with its roots taken as Python float powers;
# a changed value, RNG call or call order anywhere in the grid changes it.
GOLDEN_GRID_SHA256 = "863fbb2ea46dd5615501d20fb2da25bd7504727e128cc06ecaf7829e2770cd68"


def test_draws_are_bit_identical_to_recorded_digest():
    # n 1..20; fractional, integer and edge unit sums (slightly outside
    # [0, n] too, inside the feasibility tolerance); three bound pairs,
    # including hi == lo.  One stream for the whole grid: 2,640 draws.
    rng = np.random.default_rng(20170517)
    digest = hashlib.sha256()
    for n in range(1, 21):
        unit_sums = [-4e-13, 0.0, 0.37, 1.0, n / 3 + 0.05, float(n // 2),
                     0.5 * n, n - 0.6, n - 1e-9, float(n), n + 4e-13]
        for lo, hi in [(0.0, 1.0), (1.5, 3.0), (0.5, 0.5)]:
            for u in unit_sums:
                for _ in range(4):
                    x = reference_fixed_sum(n, n * lo + (hi - lo) * u, lo, hi, rng)
                    digest.update(x.tobytes())
    assert digest.hexdigest() == GOLDEN_GRID_SHA256


def generated(draw, params, trial):
    """The system draw makes, or the type and message of its error."""
    try:
        return draw(params, trial)
    except (GenerationError, ValueError) as err:
        return type(err).__name__, str(err)


# (P, x): one task at the fixed period P with utilization (P - x) / P draws
# its deadline with the closed span period - wcet = x.  The spans at and
# around 2^32 switch numpy's bounded draw from 32-bit halves to whole words;
# 2^31 makes it reject about half of the draws, and 2^53 is the largest
# period.
DEADLINE_SPANS = [(2**41, x) for x in (0, 2**32 - 1, 2**32, 2**32 + 1, 2**40)] + [
    (2**32, 2**31), (2**53, 2**52)]
# m - 1 is the closed span of the width draw: 2^62 + 1 makes whole-word
# draws reject about a quarter of the time (2 of the 8 trials at seed 4),
# and m = 2^63 - 1 is the largest m.
WIDTH_BOUNDS = [1, 2**32, 2**32 + 1, 2**32 + 2, 2**40 + 1, 2**31 + 1, 2**62 + 2,
                2**63 - 1]


def deadline_span_params(period, span):
    return GenParams(n=1, m=1, target_load=Fraction(period - span, period),
                     t_min=period, t_max=period, seed=3)


def differential_params():
    for seed in (0, 2**64 - 1):
        for n, m in ((1, 1), (1, 4), (2, 1), (3, 2), (5, 8), (10, 6), (12, 16)):
            for t_min, t_max in ((10, 1000), (7, 7), (1, 2**45)):
                for mode in DeadlineMode:
                    for j in range(1, 6):
                        yield GenParams(n=n, m=m, target_load=Fraction(j, 5), t_min=t_min,
                                        t_max=t_max, deadline_mode=mode, seed=seed)
    for period, span in DEADLINE_SPANS:
        yield deadline_span_params(period, span)
    for m in WIDTH_BOUNDS:
        yield GenParams(n=1, m=m, target_load=Fraction(1, m), seed=4)
    # infeasible: a sum of 1.5 for a single task
    yield GenParams(n=1, m=2, target_load=Fraction(3, 4), seed=5)


class WordCountingDraws(_Draws):
    """_Draws that records each whole-word integers() draw that rejected,
    that is, fetched more than one word."""

    rejected: list = []

    def __init__(self, bitgen, block):
        super().__init__(bitgen, block)
        word = self._word

        def counted():
            self.words += 1
            return word()

        self._word, self.words = counted, 0

    def integers(self, low, high):
        before = self.words
        value = super().integers(low, high)
        if high - low > 2**32 and self.words - before > 1:
            self.rejected.append((low, high))
        return value


def test_generated_systems_match_the_numpy_reference(monkeypatch):
    # Same TaskSystem, or the same error, as one numpy call per draw.
    monkeypatch.setattr("gangsched.generator._Draws", WordCountingDraws)
    monkeypatch.setattr(WordCountingDraws, "rejected", [])
    seen_errors = set()
    for params in differential_params():
        for trial in range(8):
            ours = generated(generate_task_system, params, trial)
            assert ours == generated(reference_task_system, params, trial), (params, trial)
            if isinstance(ours, tuple):
                seen_errors.add(ours)
    assert ("GenerationError", "sum 1.5 outside feasible range [0.0, 1.0]") in seen_errors
    assert (1, 2**62 + 3) in WordCountingDraws.rejected  # the whole-word loop ran
    for period, span in DEADLINE_SPANS:  # the boundary systems reach their spans
        (task,) = generate_task_system(deadline_span_params(period, span), 0).tasks
        assert (task.period, task.period - task.wcet) == (period, span)


def test_same_seed_and_trial_reproduce_system():
    params = GenParams(n=5, m=4, target_load=Fraction(3, 5), seed=42)
    assert generate_task_system(params, 7) == generate_task_system(params, 7)
    assert generate_task_system(params, 7) != generate_task_system(params, 8)


def test_generated_systems_are_valid():
    params = GenParams(n=6, m=4, target_load=Fraction(1, 2), t_min=5, t_max=50, seed=1)
    for trial in range(200):
        ts = generate_task_system(params, trial)
        validate(ts)
        assert ts.n == 6 and ts.processors == 4
        for t in ts.tasks:
            assert 5 <= t.period <= 50


def test_total_utilization_tracks_target():
    params = GenParams(n=8, m=4, target_load=Fraction(3, 4), t_min=20, t_max=200, seed=2)
    target = float(params.target_load * params.m)
    slack = 1.5 * params.n / params.t_min  # rounding plus the wcet floor of 1
    for trial in range(100):
        ts = generate_task_system(params, trial)
        actual = float(sum(t.utilization for t in ts.tasks))
        assert abs(actual - target) <= slack


def test_implicit_mode_forces_deadline_equal_period():
    params = GenParams(n=5, m=3, target_load=Fraction(1, 2),
                       deadline_mode=DeadlineMode.IMPLICIT, seed=3)
    ts = generate_task_system(params, 0)
    assert all(t.deadline == t.period for t in ts.tasks)


def test_width_can_reach_platform_bound():
    params = GenParams(n=4, m=3, target_load=Fraction(2, 3), t_min=2, t_max=2, seed=4)
    widths = {
        t.width for trial in range(50) for t in generate_task_system(params, trial).tasks
    }
    assert widths == {1, 2, 3}


def test_forced_full_utilization_emits_saturated_pairs():
    # sum target 2 over two tasks in [0,1] forces U_0 = U_1 = 1, so wcet
    # equals the period; widths still vary up to m
    params = GenParams(n=2, m=3, target_load=Fraction(2, 3), t_min=2, t_max=2, seed=6)
    seen_double_width = False
    for trial in range(40):
        ts = generate_task_system(params, trial)
        for t in ts.tasks:
            assert (t.wcet, t.deadline, t.period) == (2, 2, 2)
        seen_double_width = seen_double_width or all(t.width == 2 for t in ts.tasks)
    assert seen_double_width


def test_overloaded_target_raises_generation_error():
    # feasibility needs target_load * m <= n; here 0.9 * 4 > 2
    params = GenParams(n=2, m=4, target_load=Fraction(9, 10), seed=5)
    with pytest.raises(GenerationError):
        generate_task_system(params, 0)


def test_period_of_2_to_the_53_keeps_wcet_and_deadline_within_it():
    # 2^53 is the largest t_max: its period is exact as a float, so a full
    # utilization rounds to a wcet of exactly the period.
    for mode in DeadlineMode:
        params = GenParams(n=1, m=1, target_load=Fraction(1), t_min=2**53, t_max=2**53,
                           deadline_mode=mode)
        assert print_task_system(generate_task_system(params, 0)) == (
            "m 1\ntask 1 9007199254740992 9007199254740992 9007199254740992\n")


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        GenParams(n=0, m=1, target_load=Fraction(1, 2))
    with pytest.raises(ValueError):
        GenParams(n=1, m=1, target_load=Fraction(0))
    with pytest.raises(ValueError):
        GenParams(n=1, m=1, target_load=Fraction(3, 2))
    with pytest.raises(ValueError):
        GenParams(n=1, m=1, target_load=Fraction(1, 2), t_min=5, t_max=4)
    with pytest.raises(ValueError):
        GenParams(n=1, m=1, target_load=Fraction(1, 2), seed=2**64)
    with pytest.raises(ValueError, match=r"^m must be < 2\*\*63$"):
        GenParams(n=1, m=2**63, target_load=Fraction(1, 2**63))
    with pytest.raises(ValueError, match=r"^t_max must be <= 2\*\*53$"):
        GenParams(n=1, m=1, target_load=Fraction(1, 2), t_min=2**53 + 1, t_max=2**53 + 1)


def test_trial_streams_are_independent_of_generation_order():
    # Each (seed, trial) draws from its own stream, and the cached Stafford
    # tables do not depend on the order: two loads and two n, interleaved
    # draw by draw, then grouped by (n, load), each from an empty cache.
    interleaved = [(n, load, trial) for trial in range(3) for n in (4, 9)
                   for load in (Fraction(1, 5), Fraction(3, 4))]

    def draw(key):
        n, load, trial = key
        return generate_task_system(GenParams(n=n, m=3, target_load=load, seed=9), trial)

    _stafford_table.cache_clear()
    first = {key: draw(key) for key in interleaved}
    _stafford_table.cache_clear()
    second = {key: draw(key) for key in sorted(interleaved)}
    assert first == second


def test_stafford_table_cache_stays_bounded():
    _stafford_table.cache_clear()
    maxsize = _stafford_table.cache_info().maxsize
    for point in range(1, 2 * maxsize + 2):
        params = GenParams(n=5, m=2, target_load=Fraction(point, 2 * maxsize + 1), seed=1)
        for trial in range(3):
            generate_task_system(params, trial)
    info = _stafford_table.cache_info()
    assert info.misses == 2 * maxsize + 1  # one table per sweep point
    assert info.currsize <= maxsize
