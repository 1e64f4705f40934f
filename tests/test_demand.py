import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gangsched.demand import hbf, hbf_prime
from gangsched.model import GangTask

from oracles import brute_hbf, brute_hbf_prime

TAU1 = GangTask(0, 2, 2, 2, 2)


def random_task(rng: random.Random, t_max: int = 20) -> GangTask:
    period = rng.randint(1, t_max)
    wcet = rng.randint(1, period)
    deadline = rng.randint(wcet, period)
    return GangTask(0, rng.randint(1, 4), wcet, deadline, period)


def test_hbf_counterexample_value():
    assert hbf(TAU1, 2) == 2


def test_hbf_zero_below_deadline():
    assert hbf(GangTask(0, 1, 1, 2, 5), 1) == 0


def test_hbf_derived_value():
    task = GangTask(0, 1, 1, 3, 5)
    assert brute_hbf(task, 13) == 3  # oracle first
    assert hbf(task, 13) == 3


def test_hbf_rejects_negative_length():
    with pytest.raises(ValueError):
        hbf(TAU1, -1)
    with pytest.raises(ValueError):
        hbf_prime(TAU1, -1)


def test_hbf_prime_counterexample_value():
    assert hbf_prime(TAU1, 2) == 2


def test_hbf_prime_zero_window():
    assert hbf_prime(GangTask(0, 3, 4, 7, 9), 0) == 0


def test_hbf_prime_derived_value():
    task = GangTask(0, 1, 2, 3, 5)
    assert brute_hbf_prime(task, 7) == 4  # oracle first
    assert hbf_prime(task, 7) == 4


def test_dbf_zero_below_deadline():
    assert hbf(GangTask(0, 3, 2, 4, 6), 3) == 0


def test_nondecreasing_in_window_length():
    rng = random.Random(2)
    for _ in range(50):
        t = random_task(rng)
        grid = range(0, 4 * t.period + 2)
        values = [hbf(t, L) for L in grid]
        values_ci = [hbf_prime(t, L) for L in grid]
        assert values == sorted(values)
        assert values_ci == sorted(values_ci)


def test_hbf_jumps_by_wcet_at_deadline_plus_periods():
    rng = random.Random(3)
    for _ in range(50):
        t = random_task(rng)
        horizon = t.deadline + 4 * t.period
        for length in range(horizon):
            step = hbf(t, length + 1) - hbf(t, length)
            lands_on_jump = (length + 1 - t.deadline) % t.period == 0 and (
                length + 1 >= t.deadline
            )
            assert step == (t.wcet if lands_on_jump else 0)
        assert hbf(t, t.deadline - 1) == 0


def test_carry_in_demand_dominates():
    rng = random.Random(4)
    for _ in range(200):
        t = random_task(rng)
        for length in range(0, 3 * t.period + 3):
            assert hbf_prime(t, length) >= hbf(t, length)


def test_formulas_match_brute_force_oracles():
    rng = random.Random(5)
    for _ in range(400):
        t = random_task(rng, t_max=15)
        length = rng.randint(0, 60)
        assert hbf(t, length) == brute_hbf(t, length)
        assert hbf_prime(t, length) == brute_hbf_prime(t, length)


def test_width_one_matches_classical_demand_bound():
    # classical sporadic dbf, written out independently of demand.py
    def classical(c, d, p, length):
        if length < d:
            return 0
        return ((length - d) // p + 1) * c

    rng = random.Random(6)
    for _ in range(200):
        t = random_task(rng)
        one = GangTask(0, 1, t.wcet, t.deadline, t.period)
        length = rng.randint(0, 5 * t.period)
        assert hbf(one, length) == classical(t.wcet, t.deadline, t.period, length)


@st.composite
def constrained_task_and_window(draw):
    """A task with C <= D <= T and a window length delta >= D."""
    period = draw(st.integers(1, 10**6))
    wcet = draw(st.integers(1, period))
    deadline = draw(st.integers(wcet, period))
    return GangTask(0, 1, wcet, deadline, period), deadline + draw(st.integers(0, 10**7))


@given(constrained_task_and_window())
def test_demand_lemma_for_constrained_deadlines(case):
    # The breakpoint scan in gangsched.analysis rests on this lemma.
    task, delta = case
    assert task.wcet <= hbf(task, delta) <= hbf_prime(task, delta)
    assert hbf_prime(task, delta) - task.wcet <= delta - task.deadline
