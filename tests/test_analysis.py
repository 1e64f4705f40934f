import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gangsched import analysis
from gangsched.analysis import (
    AnalysisConfig,
    CarryInStrategy,
    Certified,
    DeltaBound,
    Inapplicable,
    NoDeltaBound,
    NotProven,
    SCAN_GUARD,
    ScanGuardError,
    Variant,
    _SCAN_CHUNK,
    _aggregate_carry,
    _first_violation,
    _first_violation_block,
    analyze,
    analyze_task,
    carry_in_bound,
    carry_in_extra,
    check_condition,
    interference_no_carry_in,
    interference_rectangle,
    interference_with_carry_in,
    scan_upper_bound,
)
from gangsched.model import GangTask, TaskSystem

from oracles import dense_first_violation, fraction_scan_upper_bound

ORIGINAL = AnalysisConfig(variant=Variant.ORIGINAL)
STRICT = AnalysisConfig(variant=Variant.STRICT)


def two_task_system() -> TaskSystem:
    return TaskSystem(3, (GangTask(0, 2, 2, 2, 2), GangTask(1, 2, 1, 2, 2)))


def random_system(rng: random.Random, n_max: int = 6, m_max: int = 5,
                  t_max: int = 20) -> TaskSystem:
    m = rng.randint(1, m_max)
    tasks = []
    for i in range(rng.randint(1, n_max)):
        period = rng.randint(1, t_max)
        wcet = rng.randint(1, period)
        deadline = rng.randint(wcet, period)
        tasks.append(GangTask(i, rng.randint(1, m), wcet, deadline, period))
    return TaskSystem(m, tuple(tasks))


# --- interference rectangle -------------------------------------------------

def test_rectangle_counterexample_point():
    point = interference_rectangle(two_task_system(), 1, 2)
    assert point.width == 1
    assert point.height == 2
    assert point.arrival_offset == 0


def test_rectangle_height_one_when_width_fills_platform():
    ts = TaskSystem(4, (GangTask(0, 4, 1, 2, 3),))
    assert interference_rectangle(ts, 0, 2).height == 1


def test_rectangle_height_is_m_for_width_one():
    ts = TaskSystem(5, (GangTask(0, 1, 1, 2, 3),))
    assert interference_rectangle(ts, 0, 2).height == 5


def test_rectangle_rejects_delta_below_deadline():
    with pytest.raises(ValueError):
        interference_rectangle(two_task_system(), 1, 1)


# --- interference bounds ----------------------------------------------------

def test_no_carry_bounds_at_counterexample_point():
    ts = two_task_system()
    point = interference_rectangle(ts, 1, 2)
    assert interference_no_carry_in(ts, 0, point) == 2
    assert interference_no_carry_in(ts, 1, point) == 0


def test_with_carry_bounds_at_counterexample_point():
    ts = two_task_system()
    point = interference_rectangle(ts, 1, 2)
    assert interference_with_carry_in(ts, 0, point) == 2
    assert interference_with_carry_in(ts, 1, point) == 0


def test_carry_extras_vanish_at_counterexample_point():
    ts = two_task_system()
    point = interference_rectangle(ts, 1, 2)
    assert carry_in_extra(ts, 0, point) == 0
    assert carry_in_extra(ts, 1, point) == 0


def test_no_carry_zero_below_other_deadline():
    ts = TaskSystem(3, (GangTask(0, 1, 1, 2, 9), GangTask(1, 1, 3, 9, 9)))
    point = interference_rectangle(ts, 0, 2)  # delta < deadline of task 1
    assert interference_no_carry_in(ts, 1, point) == 0


def test_with_carry_zero_when_rectangle_width_zero():
    ts = TaskSystem(3, (GangTask(0, 2, 2, 2, 2), GangTask(1, 2, 1, 2, 2)))
    point = interference_rectangle(ts, 0, 2)  # width = 2 - 2 = 0
    assert point.width == 0
    assert interference_with_carry_in(ts, 1, point) == 0


def test_bounds_nonnegative_and_ordered_on_random_points():
    rng = random.Random(7)
    for _ in range(300):
        ts = random_system(rng)
        k = rng.randrange(ts.n)
        delta = ts.tasks[k].deadline + rng.randint(0, 40)
        point = interference_rectangle(ts, k, delta)
        for i in range(ts.n):
            lo = interference_no_carry_in(ts, i, point)
            hi = interference_with_carry_in(ts, i, point)
            clip = min(ts.tasks[i].width, point.height)
            assert 0 <= lo <= point.width * clip
            assert lo <= hi
            assert carry_in_extra(ts, i, point) == hi - lo >= 0


# --- carry-in aggregation ---------------------------------------------------

def test_aggregate_keeps_largest_height_minus_one():
    assert _aggregate_carry([5, 3, 1], 3, CarryInStrategy.TOP_H_MINUS_ONE) == 8
    assert _aggregate_carry([5, 3, 1], 3, CarryInStrategy.ALL_TASKS) == 9


def test_aggregate_zero_when_height_one():
    assert _aggregate_carry([5, 3, 1], 1, CarryInStrategy.TOP_H_MINUS_ONE) == 0


def test_counterexample_has_no_carry_in():
    ts = two_task_system()
    point = interference_rectangle(ts, 1, 2)
    for strategy in CarryInStrategy:
        assert carry_in_bound(ts, point, strategy) == 0


def test_all_tasks_strategy_dominates_top_strategy():
    rng = random.Random(8)
    for _ in range(200):
        ts = random_system(rng)
        k = rng.randrange(ts.n)
        point = interference_rectangle(ts, k, ts.tasks[k].deadline + rng.randint(0, 30))
        top = carry_in_bound(ts, point, CarryInStrategy.TOP_H_MINUS_ONE)
        full = carry_in_bound(ts, point, CarryInStrategy.ALL_TASKS)
        assert 0 <= top <= full


# --- per-window condition ---------------------------------------------------

def test_condition_boundary_case_splits_variants():
    ts = two_task_system()
    holds_orig, summary = check_condition(ts, 1, 2, ORIGINAL)
    holds_strict, _ = check_condition(ts, 1, 2, STRICT)
    assert holds_orig and not holds_strict
    assert summary.lhs == 2 and summary.rhs == 2
    assert sum(summary.no_carry_in) == 2


def test_condition_holds_with_empty_interference():
    ts = TaskSystem(2, (GangTask(0, 1, 1, 2, 3),))
    for config in (ORIGINAL, STRICT):
        holds, summary = check_condition(ts, 0, 2, config)
        assert holds
        assert summary.lhs == 0 and summary.rhs == 2


def test_strict_holding_implies_original_holding():
    rng = random.Random(9)
    for _ in range(400):
        ts = random_system(rng)
        k = rng.randrange(ts.n)
        delta = ts.tasks[k].deadline + rng.randint(0, 25)
        if check_condition(ts, k, delta, STRICT)[0]:
            assert check_condition(ts, k, delta, ORIGINAL)[0]


# --- scan upper bound -------------------------------------------------------

def test_scan_bound_counterexample_denominator():
    ts = two_task_system()
    result = scan_upper_bound(ts, 1, CarryInStrategy.TOP_H_MINUS_ONE)
    assert result == NoDeltaBound(Fraction(-1))
    assert scan_upper_bound(ts, 0, CarryInStrategy.TOP_H_MINUS_ONE) == NoDeltaBound(
        Fraction(-1)
    )


def test_scan_bound_zero_denominator_is_undefined():
    ts = TaskSystem(1, (GangTask(0, 1, 1, 1, 1),))
    assert scan_upper_bound(ts, 0, CarryInStrategy.TOP_H_MINUS_ONE) == NoDeltaBound(
        Fraction(0)
    )


def test_scan_bound_single_task_exact_value():
    # independent recomputation: h=2, numerator 2*1 - (2-4)*(1/4)*1 + 1 = 7/2,
    # denominator 2 - (1/4)*1 = 7/4, quotient exactly 2
    ts = TaskSystem(2, (GangTask(0, 1, 1, 2, 4),))
    result = scan_upper_bound(ts, 0, CarryInStrategy.TOP_H_MINUS_ONE)
    assert result == DeltaBound(Fraction(2))


periods = st.one_of(st.integers(1, 20), st.integers(1, 10**6))


@st.composite
def bound_systems(draw):
    """Systems with m in 1..16 and periods up to 1e6.

    With near_zero drawn, the last task's wcet is picked so that
    sum_i U_i*min(v_i, h) lands as close to h as integers allow for the
    first task's h: the scan-bound denominator is then zero or within a
    few 1/T of it, on either side.
    """
    m = draw(st.integers(1, 16))
    shapes = [(draw(st.integers(1, m)), draw(periods))
              for _ in range(draw(st.integers(1, 6)))]
    h = m - shapes[0][0] + 1
    near_zero = draw(st.booleans())
    left = Fraction(h)
    tasks = []
    for i, (width, period) in enumerate(shapes):
        clip = min(width, h)
        if near_zero and i == len(shapes) - 1:
            aim = round(left * period / clip) + draw(st.integers(-1, 1))
            wcet = min(max(aim, 1), period)
        else:
            wcet = draw(st.integers(1, period))
        left -= Fraction(wcet, period) * clip
        deadline = draw(st.integers(wcet, period))
        tasks.append(GangTask(i, width, wcet, deadline, period))
    return TaskSystem(m, tuple(tasks))


@settings(max_examples=300, deadline=None)
@given(bound_systems())
@example(TaskSystem(4, (GangTask(0, 1, 1, 10**6, 10**6),
                        GangTask(1, 4, 999999, 999999, 10**6))))
@example(two_task_system())
@example(TaskSystem(1, (GangTask(0, 1, 1, 1, 1),)))
def test_integer_scan_bound_matches_fraction_oracle(ts):
    for strategy in CarryInStrategy:
        for k in range(ts.n):
            got = scan_upper_bound(ts, k, strategy)
            want = fraction_scan_upper_bound(ts, k, strategy)
            assert type(got) is type(want)
            value = got.value if isinstance(got, DeltaBound) else got.denominator
            assert isinstance(value, Fraction)
            assert got == want


def test_scan_guard_system_bound_is_tiny_positive():
    ts = TaskSystem(4, (GangTask(0, 1, 1, 10**6, 10**6),
                        GangTask(1, 4, 999999, 999999, 10**6)))
    bound = scan_upper_bound(ts, 0, CarryInStrategy.TOP_H_MINUS_ONE)
    assert isinstance(bound, DeltaBound) and bound.value > SCAN_GUARD
    with pytest.raises(ScanGuardError):
        analyze_task(ts, 0, STRICT)


# --- per-task analysis ------------------------------------------------------

def test_counterexample_original_verdict_is_inapplicable():
    outcome = analyze_task(two_task_system(), 1, ORIGINAL)
    assert outcome == Inapplicable(task_index=1, denominator=Fraction(-1),
                                   scanned_up_to=None)


def test_counterexample_strict_verdict_is_not_proven_at_first_window():
    outcome = analyze_task(two_task_system(), 1, STRICT)
    assert isinstance(outcome, NotProven)
    assert outcome.witness_delta == 2
    assert outcome.summary.lhs == 2 and outcome.summary.rhs == 2


def test_single_task_strict_certified():
    ts = TaskSystem(2, (GangTask(0, 1, 1, 2, 4),))
    outcome = analyze_task(ts, 0, STRICT)
    assert outcome == Certified(task_index=0, scanned_up_to=2)


def test_strict_refutation_scan_respects_delta_cap():
    ts = two_task_system()
    config = AnalysisConfig(variant=Variant.STRICT, delta_cap=1)
    # cap below the first window: nothing scanned, verdict stays inapplicable
    outcome = analyze_task(ts, 1, config)
    assert outcome == Inapplicable(task_index=1, denominator=Fraction(-1),
                                   scanned_up_to=1)


def test_delta_cap_must_be_positive():
    with pytest.raises(ValueError):
        AnalysisConfig(delta_cap=0)


# --- whole-system analysis --------------------------------------------------

def test_counterexample_system_never_schedulable():
    ts = two_task_system()
    for config in (ORIGINAL, STRICT):
        verdict = analyze(ts, config)
        assert not verdict.schedulable
    assert analyze(ts, ORIGINAL).outcome_class == "inapplicable"
    assert analyze(ts, STRICT).outcome_class == "not_proven"


def test_full_width_single_task_certified_under_strict():
    ts = TaskSystem(2, (GangTask(0, 2, 1, 2, 2),))
    point = interference_rectangle(ts, 0, 2)
    assert (point.width, point.height) == (1, 1)
    holds, summary = check_condition(ts, 0, 2, STRICT)
    assert holds and summary.lhs == 0 and summary.rhs == 1
    assert analyze(ts, STRICT).schedulable


def test_system_verdict_is_conjunction_of_task_verdicts():
    rng = random.Random(10)
    for _ in range(60):
        ts = random_system(rng)
        for config in (ORIGINAL, STRICT):
            verdict = analyze(ts, config)
            assert verdict.schedulable == all(
                isinstance(o, Certified) for o in verdict.per_task
            )


def test_original_variant_fully_certifies_an_infeasible_system():
    # Stronger witness than the built-in counterexample: here the scan
    # bound is valid (denominators positive), the published procedure runs
    # to completion and certifies both tasks, yet the second task misses
    # at t=1 (found by a randomized soundness audit, then minimized).
    from gangsched.simulator import simulate_synchronous

    ts = TaskSystem(5, (GangTask(0, 4, 1, 1, 3), GangTask(1, 2, 1, 1, 2)))
    for k in range(2):
        assert isinstance(
            scan_upper_bound(ts, k, CarryInStrategy.TOP_H_MINUS_ONE), DeltaBound
        )
    assert analyze(ts, ORIGINAL).schedulable  # the published test's verdict
    assert simulate_synchronous(ts).first_miss == (1, 1)  # reality
    strict = analyze(ts, STRICT)
    assert not strict.schedulable
    assert all(isinstance(o, NotProven) and o.witness_delta == 1
               for o in strict.per_task)


def test_strict_certification_implies_original_certification():
    rng = random.Random(12)
    seen = 0
    for _ in range(400):
        ts = random_system(rng)
        strict = analyze(ts, STRICT)
        if strict.schedulable:
            seen += 1
            assert analyze(ts, ORIGINAL).schedulable
    assert seen >= 30  # the sweep must actually exercise certified systems


# --- scan implementation details --------------------------------------------

def test_vectorized_scan_matches_scalar_condition():
    rng = random.Random(13)
    for _ in range(30):
        ts = random_system(rng)
        k = rng.randrange(ts.n)
        lo = ts.tasks[k].deadline
        hi = lo + 300
        for config in (
            ORIGINAL,
            STRICT,
            AnalysisConfig(variant=Variant.STRICT,
                           carry_in_strategy=CarryInStrategy.ALL_TASKS),
        ):
            block = _first_violation_block(ts, k, lo, hi, config)
            assert block == dense_first_violation(ts, k, lo, hi, config)


def test_first_violation_chunking_consistent():
    rng = random.Random(14)
    for _ in range(10):
        ts = random_system(rng)
        k = rng.randrange(ts.n)
        lo = ts.tasks[k].deadline
        assert _first_violation(ts, k, lo, lo + 20, STRICT) == _first_violation(
            ts, k, lo, lo + 2000, STRICT
        ) or _first_violation(ts, k, lo, lo + 20, STRICT) is None


@pytest.mark.parametrize("scalar_max", [0, 10**9], ids=["vector", "scalar"])
def test_not_proven_summary_is_check_condition_at_the_witness(monkeypatch, scalar_max):
    # The scan hands back the summary it computed at the witness; on both
    # scan paths it must equal a fresh check_condition there.
    monkeypatch.setattr(analysis, "_SCALAR_SCAN_MAX", scalar_max)
    rng = random.Random(16)
    seen = 0
    for _ in range(60):
        ts = random_system(rng)
        for config in (
            ORIGINAL,
            STRICT,
            AnalysisConfig(variant=Variant.STRICT,
                           carry_in_strategy=CarryInStrategy.ALL_TASKS),
        ):
            for k in range(ts.n):
                outcome = analyze_task(ts, k, config)
                if isinstance(outcome, NotProven):
                    seen += 1
                    expected = check_condition(ts, k, outcome.witness_delta, config)[1]
                    assert outcome.summary == expected
                    assert all(type(v) is int for v in outcome.summary.no_carry_in)
                    assert type(outcome.summary.lhs) is int
    assert seen >= 100


def late_violation_system(period: int) -> TaskSystem:
    """Under the original variant task 0 first fails at delta = 2 * period.

    On one processor task 1 (C = D = T = 1) fills the rectangle exactly,
    lhs == rhs, and task 0's own term stays 0 until its second job's
    deadline at 2 * period adds one unit.
    """
    return TaskSystem(1, (GangTask(0, 1, 1, period, period), GangTask(1, 1, 1, 1, 1)))


@pytest.mark.parametrize("offset", [0, 63, 64, 65, 191])
def test_first_violation_at_block_edges_matches_dense_scan(offset):
    period = 1000
    ts = late_violation_system(period)
    lo = 2 * period - offset
    hi = lo + 400
    assert dense_first_violation(ts, 0, lo, hi, ORIGINAL)[0] == lo + offset
    for config in (
        ORIGINAL,
        STRICT,
        AnalysisConfig(variant=Variant.ORIGINAL,
                       carry_in_strategy=CarryInStrategy.ALL_TASKS),
    ):
        assert _first_violation(ts, 0, lo, hi, config) == dense_first_violation(
            ts, 0, lo, hi, config
        )


def test_first_violation_just_past_a_full_chunk_matches_dense_scan():
    period = _SCAN_CHUNK + 100
    ts = late_violation_system(period)
    lo = 2 * period - (_SCAN_CHUNK + 1)
    hi = 2 * period + 10
    assert dense_first_violation(ts, 0, lo, hi, ORIGINAL)[0] == 2 * period
    assert _first_violation(ts, 0, lo, hi, ORIGINAL) == dense_first_violation(
        ts, 0, lo, hi, ORIGINAL
    )


def record_blocks(monkeypatch) -> list:
    blocks = []

    def recording(ts, k, lo, hi, config):
        blocks.append((lo, hi))
        return _first_violation_block(ts, k, lo, hi, config)

    monkeypatch.setattr(analysis, "_first_violation_block", recording)
    return blocks


def test_first_window_witness_evaluates_only_the_first_block(monkeypatch):
    blocks = record_blocks(monkeypatch)
    period = 1000
    ts = late_violation_system(period)
    # Under the strict variant lhs == rhs fails at the first window.
    assert _first_violation(ts, 0, period, period + 10**5, STRICT)[0] == period
    assert blocks == [(period, period + 63)]


def test_clean_scan_blocks_double_up_to_the_chunk_and_cover_the_range(monkeypatch):
    blocks = record_blocks(monkeypatch)
    period = 3 * _SCAN_CHUNK
    ts = late_violation_system(period)
    lo, hi = period, 2 * period - 1
    assert _first_violation(ts, 0, lo, hi, ORIGINAL) is None
    sizes = [stop - start + 1 for start, stop in blocks]
    doubling = [64 << j for j in range((_SCAN_CHUNK // 64).bit_length())]
    assert sizes[: len(doubling)] == doubling
    assert all(size == _SCAN_CHUNK for size in sizes[len(doubling):-1])
    assert blocks[0][0] == lo and blocks[-1][1] == hi
    assert all(b[0] == a[1] + 1 for a, b in zip(blocks, blocks[1:]))


def test_integer_scan_catches_rational_violations():
    # lhs - rhs is convex between consecutive integers, so a violation at a
    # fractional window length must show at an adjacent integer
    rng = random.Random(15)
    for _ in range(25):
        ts = random_system(rng, t_max=10)
        k = rng.randrange(ts.n)
        first = ts.tasks[k].deadline
        for config in (ORIGINAL, STRICT):
            for quarters in range(1, 4 * 25):
                delta = first + Fraction(quarters, 4)
                if delta == int(delta):
                    continue
                if not check_condition(ts, k, delta, config)[0]:
                    below = check_condition(ts, k, math.floor(delta), config)[0]
                    above = check_condition(ts, k, math.ceil(delta), config)[0]
                    assert not (below and above)
