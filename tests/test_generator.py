import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from gangsched.generator import (
    DeadlineMode,
    GenParams,
    GenerationError,
    generate_task_system,
    rand_fixed_sum,
    trial_rng,
)
from gangsched.model import is_valid


def test_single_element_is_forced():
    x = rand_fixed_sum(1, 0.5, 0.0, 1.0, np.random.default_rng(0))
    assert x.shape == (1,)
    assert x[0] == pytest.approx(0.5, abs=1e-12)


def _draws(count, n, total, lo, hi, rng):
    return np.array([rand_fixed_sum(n, total, lo, hi, rng) for _ in range(count)])


def test_sum_and_bounds_hold_on_every_draw():
    rng = np.random.default_rng(1)
    for n, total in [(4, 2.0), (2, 0.3), (7, 6.5), (10, 1.0), (3, 3.0), (5, 0.0)]:
        batch = _draws(200, n, total, 0.0, 1.0, rng)
        assert batch.shape == (200, n)
        assert np.all(batch >= -1e-12) and np.all(batch <= 1 + 1e-12)
        assert np.max(np.abs(batch.sum(axis=1) - total)) <= 1e-9


def test_general_bounds_rescale():
    rng = np.random.default_rng(2)
    batch = _draws(100, 5, 12.0, 1.5, 3.0, rng)
    assert np.all(batch >= 1.5 - 1e-9) and np.all(batch <= 3.0 + 1e-9)
    assert np.max(np.abs(batch.sum(axis=1) - 12.0)) <= 1e-9


def test_infeasible_sum_rejected():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        rand_fixed_sum(4, 4.5, 0.0, 1.0, rng)
    with pytest.raises(ValueError):
        rand_fixed_sum(4, -0.1, 0.0, 1.0, rng)


def test_coordinate_means_match_symmetry():
    # by symmetry each coordinate of a (3, sum 1.5) draw has mean 0.5
    batch = _draws(100_000, 3, 1.5, 0.0, 1.0, np.random.default_rng(4))
    means = batch.mean(axis=0)
    stderr = batch.std(axis=0, ddof=1) / math.sqrt(batch.shape[0])
    assert np.all(np.abs(means - 0.5) <= 3 * stderr)


def test_marginal_matches_rejection_sampling_oracle():
    # keep uniform-cube samples whose sum lands in a thin band around 1.5
    rng = np.random.default_rng(5)
    cube = rng.uniform(size=(400_000, 3))
    kept = cube[np.abs(cube.sum(axis=1) - 1.5) <= 0.02][:, 0]
    assert kept.size > 5_000
    fixed = _draws(50_000, 3, 1.5, 0.0, 1.0, np.random.default_rng(6))[:, 0]
    grid = np.linspace(0.05, 0.95, 19)
    cdf_kept = np.array([(kept <= g).mean() for g in grid])
    cdf_fixed = np.array([(fixed <= g).mean() for g in grid])
    assert np.max(np.abs(cdf_kept - cdf_fixed)) < 0.05


# sha256 of the float64 bytes of every draw in the grid below, recorded from
# the earlier (count, n) batch implementation of the sampler; a changed value,
# RNG call or call order anywhere in the grid changes it.
GOLDEN_GRID_SHA256 = "9ee32566da0fb0591e39c93f000388689d6f434e6747fd1847ffcf413494279c"


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
                    x = rand_fixed_sum(n, n * lo + (hi - lo) * u, lo, hi, rng)
                    digest.update(x.tobytes())
    assert digest.hexdigest() == GOLDEN_GRID_SHA256


def test_same_seed_and_trial_reproduce_system():
    params = GenParams(n=5, m=4, target_load=Fraction(3, 5), seed=42)
    assert generate_task_system(params, 7) == generate_task_system(params, 7)
    assert generate_task_system(params, 7) != generate_task_system(params, 8)


def test_generated_systems_are_valid():
    params = GenParams(n=6, m=4, target_load=Fraction(1, 2), t_min=5, t_max=50, seed=1)
    for trial in range(200):
        ts = generate_task_system(params, trial)
        assert is_valid(ts)
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


def test_trial_streams_are_independent_of_generation_order():
    a = trial_rng(9, 3).uniform()
    trial_rng(9, 4).uniform()
    b = trial_rng(9, 3).uniform()
    assert a == b
