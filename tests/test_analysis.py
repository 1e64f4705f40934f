import math
import random
from dataclasses import replace
from fractions import Fraction
from typing import Optional

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
    InterferenceSummary,
    NoDeltaBound,
    NotProven,
    SCAN_GUARD,
    SYSTEM_SCHEDULABLE,
    ScanGuardError,
    Variant,
    _scan_ranges,
    _walk,
    analyze,
    analyze_task,
    check_condition,
    default_delta_cap,
    scan_upper_bound,
    system_outcome,
)
from gangsched.model import GangTask, TaskSystem

from oracles import (ALL_CONFIGS, DENSE_SYSTEM, GUARD_SYSTEM, ORIGINAL, REFUTED_THEN_CLEAN, STRICT,
                     dense_first_violation, fraction_scan_upper_bound, outcome_systems,
                     random_system, record_points, record_walks, reference_trace, small_systems,
                     two_task_system)


# --- interference rectangle -------------------------------------------------

def assert_rectangle(ts: TaskSystem, k: int, width: int, height: int) -> None:
    """At delta = D_k the rectangle is width x height: rhs is its area
    there and at D_k + 3, and below D_k the condition is undefined."""
    first = ts.tasks[k].deadline
    for config in ALL_CONFIGS:
        assert check_condition(ts, k, first, config)[1].rhs == width * height
        assert check_condition(ts, k, first + 3, config)[1].rhs == (width + 3) * height
        with pytest.raises(ValueError):
            check_condition(ts, k, first - 1, config)


def test_rectangle_counterexample_point():
    assert_rectangle(two_task_system(), 1, 1, 2)


def test_rectangle_height_one_when_width_fills_platform():
    assert_rectangle(TaskSystem(4, (GangTask(0, 4, 1, 2, 3),)), 0, 1, 1)


def test_rectangle_height_is_m_for_width_one():
    assert_rectangle(TaskSystem(5, (GangTask(0, 1, 1, 2, 3),)), 0, 1, 5)


def test_rectangle_rejects_delta_below_deadline():
    ts = two_task_system()
    for delta in (0, 1):
        with pytest.raises(ValueError, match="< deadline 2 of task 1"):
            check_condition(ts, 1, delta, STRICT)


# --- interference bounds ----------------------------------------------------

def counterexample_summaries() -> list[InterferenceSummary]:
    """check_condition's summary at the counterexample point (k = 1,
    delta = 2) under every configuration."""
    ts = two_task_system()
    return [check_condition(ts, 1, 2, config)[1] for config in ALL_CONFIGS]


def test_no_carry_bounds_at_counterexample_point():
    for summary in counterexample_summaries():
        assert summary.no_carry_in == (2, 0)


def test_with_carry_bounds_at_counterexample_point():
    for summary in counterexample_summaries():
        assert summary.with_carry_in == (2, 0)


def test_carry_extras_vanish_at_counterexample_point():
    for summary in counterexample_summaries():
        assert summary.carry_in_extra == (0, 0)


def test_no_carry_zero_below_other_deadline():
    ts = TaskSystem(3, (GangTask(0, 1, 1, 2, 9), GangTask(1, 1, 3, 9, 9)))
    # delta = 2 < deadline of task 1
    assert check_condition(ts, 0, 2, STRICT)[1].no_carry_in[1] == 0


def test_with_carry_zero_when_rectangle_width_zero():
    ts = TaskSystem(3, (GangTask(0, 2, 2, 2, 2), GangTask(1, 2, 1, 2, 2)))
    _, summary = check_condition(ts, 0, 2, STRICT)  # width = 2 - 2 = 0
    assert summary.rhs == 0
    assert summary.with_carry_in[1] == 0


def test_bounds_nonnegative_and_ordered_on_random_points():
    rng = random.Random(7)
    for _ in range(300):
        ts = random_system(rng, 6, 5, 20)
        k = rng.randrange(ts.n)
        delta = ts.tasks[k].deadline + rng.randint(0, 40)
        width = delta - ts.tasks[k].wcet
        height = ts.processors - ts.tasks[k].width + 1
        _, summary = check_condition(ts, k, delta, STRICT)
        for i in range(ts.n):
            lo, hi = summary.no_carry_in[i], summary.with_carry_in[i]
            clip = min(ts.tasks[i].width, height)
            assert 0 <= lo <= width * clip
            assert lo <= hi
            assert summary.carry_in_extra[i] == hi - lo >= 0


# --- carry-in aggregation ---------------------------------------------------

def random_carry_points(seed: int, count: int = 200):
    """Yield (height, top, full): check_condition's summaries under the
    top-(h-1) and all-tasks strategies at random windows."""
    rng = random.Random(seed)
    all_tasks = AnalysisConfig(carry_in_strategy=CarryInStrategy.ALL_TASKS)
    for _ in range(count):
        ts = random_system(rng, 6, 5, 20)
        k = rng.randrange(ts.n)
        delta = ts.tasks[k].deadline + rng.randint(0, 30)
        height = ts.processors - ts.tasks[k].width + 1
        yield (height, check_condition(ts, k, delta, STRICT)[1],
               check_condition(ts, k, delta, all_tasks)[1])


def test_aggregate_keeps_largest_height_minus_one():
    for height, top, full in random_carry_points(8):
        assert top.carry_in_extra == full.carry_in_extra
        largest = sorted(top.carry_in_extra, reverse=True)[:height - 1]
        assert top.carry_in_bound == sum(largest)
        assert full.carry_in_bound == sum(full.carry_in_extra)
        for summary in (top, full):
            assert summary.lhs == sum(summary.no_carry_in) + summary.carry_in_bound


def test_counterexample_has_no_carry_in():
    for summary in counterexample_summaries():
        assert summary.carry_in_bound == 0


def test_all_tasks_strategy_dominates_top_strategy():
    for _, top, full in random_carry_points(8):
        assert 0 <= top.carry_in_bound <= full.carry_in_bound


def test_aggregate_zero_when_height_one():
    # Task 0 fills the platform (h = 1): no carry-in counts under top,
    # though task 1's carry-in job adds an extra.
    ts = TaskSystem(2, (GangTask(0, 2, 1, 3, 3), GangTask(1, 1, 2, 2, 3)))
    _, top = check_condition(ts, 0, 4, STRICT)
    assert top.carry_in_extra[1] > 0
    assert top.carry_in_bound == 0
    all_tasks = AnalysisConfig(carry_in_strategy=CarryInStrategy.ALL_TASKS)
    assert check_condition(ts, 0, 4, all_tasks)[1].carry_in_bound == sum(
        top.carry_in_extra)


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
        ts = random_system(rng, 6, 5, 20)
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
@example(GUARD_SYSTEM)
@example(two_task_system())
@example(TaskSystem(1, (GangTask(0, 1, 1, 1, 1),)))
# h - 1 > n: every wcet is carried under both strategies.
@example(TaskSystem(2**40, (GangTask(0, 1, 3, 5, 7), GangTask(1, 2**39, 2, 4, 9),
                            GangTask(2, 2**40, 1, 1, 11))))
# All widths distinct: one h per task.
@example(TaskSystem(6, tuple(GangTask(i, i + 1, 1, 2 + i, 3 + 2 * i) for i in range(6))))
def test_integer_scan_bound_matches_fraction_oracle(ts):
    for strategy in CarryInStrategy:
        for k in range(ts.n):
            got = scan_upper_bound(ts, k, strategy)
            want = fraction_scan_upper_bound(ts, k, strategy)
            assert type(got) is type(want)
            value = got.value if isinstance(got, DeltaBound) else got.denominator
            assert isinstance(value, Fraction)
            assert got == want
    # The last window that analyze and system_outcome scan to, from the
    # bound table: ceil(bound), the refutation cap, or None (no scan).
    for config in ALL_CONFIGS:
        want = []
        for k in range(ts.n):
            bound = fraction_scan_upper_bound(ts, k, config.carry_in_strategy)
            if isinstance(bound, DeltaBound):
                want.append(math.ceil(bound.value))
            else:
                want.append(default_delta_cap(ts) if config.variant is Variant.STRICT else None)
        over = [k for k, last in enumerate(want)
                if last is not None and last - ts.tasks[k].deadline + 1 > SCAN_GUARD]
        if over:
            with pytest.raises(ScanGuardError, match=f"^task {over[0]}: "):
                _scan_ranges(ts, config, range(ts.n))
        else:
            assert [last for _, _, last in _scan_ranges(ts, config, range(ts.n))] == want


def bound_table_system(n: int) -> TaskSystem:
    """n tasks of unit wcet on 8 processors, with periods 9 + i."""
    rng = random.Random(n)
    return TaskSystem(8, tuple(GangTask(i, rng.randint(1, 8), 1, rng.randint(2, 9), 9 + i)
                               for i in range(n)))


@pytest.mark.parametrize("n", [7, 40])
def test_one_bound_table_per_system(monkeypatch, n):
    # analyze and system_outcome take every task's scan range from one
    # table: one lcm of the periods per call, not one per task.
    ts = bound_table_system(n)
    builds, lcms = [], []
    build, lcm = analysis._bound_table, math.lcm
    monkeypatch.setattr(analysis, "_bound_table",
                        lambda *args: builds.append(1) or build(*args))
    monkeypatch.setattr(math, "lcm", lambda *args: lcms.append(1) or lcm(*args))
    for config in ALL_CONFIGS:
        for run in (analyze, system_outcome):
            builds.clear()
            lcms.clear()
            run(ts, config)
            assert (len(builds), len(lcms)) == (1, 1), (run.__name__, config)


@pytest.mark.parametrize("n", [7, 14])
def test_one_scan_test_per_system(monkeypatch, n):
    # Every window of one call is evaluated by one scan test of the
    # system, not one per task, and none is built when no window is.
    # Up to 14 tasks every scan interval here is defined.
    ts = bound_table_system(n)
    assert all(isinstance(scan_upper_bound(ts, k, strategy), DeltaBound)
               for k in range(n) for strategy in CarryInStrategy)
    builds = []
    build = analysis._scan_test
    monkeypatch.setattr(analysis, "_scan_test", lambda *args: builds.append(1) or build(*args))
    for config in ALL_CONFIGS:
        for run in (analyze, system_outcome, lambda ts, config: analyze_task(ts, n - 1, config)):
            builds.clear()
            run(ts, config)
            assert len(builds) == 1, (run, config)
    # Under original an undefined interval decides the class unscanned.
    builds.clear()
    assert system_outcome(REFUTED_AND_CERTIFIED, ORIGINAL) == "inapplicable"
    assert isinstance(analyze_task(REFUTED_AND_CERTIFIED, 1, ORIGINAL), Inapplicable)
    assert builds == []


def test_scan_guard_system_bound_is_tiny_positive():
    bound = scan_upper_bound(GUARD_SYSTEM, 0, CarryInStrategy.TOP_H_MINUS_ONE)
    assert isinstance(bound, DeltaBound) and bound.value > SCAN_GUARD
    with pytest.raises(ScanGuardError):
        analyze_task(GUARD_SYSTEM, 0, STRICT)


# The scan bound adds the h_k - 1 largest carry-in wcets C_i, but a
# carry-in extra is an area that reaches C_i * min(v_i, h_k), so a scan can
# end before a violated window.  These two witnesses fail today; the fix
# (the largest C_i * min(v_i, h_k) per distinct h) makes them pass, and
# then the xfail marks go.
@pytest.mark.parametrize("ts, config", [
    # Both tasks certified; window 5 of task 0 fails with lhs = rhs = 8.
    (TaskSystem(2, (GangTask(0, 1, 1, 5, 6), GangTask(1, 2, 4, 30, 30))), STRICT),
    # Task 0 certified up to 8; window 9 fails with lhs 25 > rhs 24.
    (TaskSystem(3, (GangTask(0, 1, 1, 4, 8), GangTask(1, 3, 8, 23, 26))), ORIGINAL),
], ids=["strict", "original"])
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the scan bound undercounts carry-in area")
def test_no_window_of_a_certified_task_fails(ts, config):
    horizon = 4 * max(t.deadline + t.period for t in ts.tasks)
    certified = [o.task_index for o in analyze(ts, config).per_task
                 if isinstance(o, Certified)]
    failed = [(k, delta) for k in certified
              for delta in range(ts.tasks[k].deadline, horizon + 1)
              if not check_condition(ts, k, delta, config)[0]]
    assert failed == []


# --- per-task analysis ------------------------------------------------------

def test_counterexample_original_verdict_is_inapplicable():
    outcome = analyze_task(two_task_system(), 1, ORIGINAL)
    assert outcome == Inapplicable(task_index=1, denominator=Fraction(-1),
                                   scanned_up_to=None)


def test_counterexample_strict_verdict_is_not_proven_at_first_window():
    outcome = analyze_task(two_task_system(), 1, STRICT)
    assert isinstance(outcome, NotProven)
    assert outcome.witness_delta == 2
    assert outcome.lhs == 2 and outcome.rhs == 2


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


def test_original_top_certifies_a_width_one_system_that_misses_sporadically():
    # Global EDF on two processors: the published test certifies every
    # task and the synchronous hyperperiod is clean, yet first releases
    # at 3, 0 and 2 make task 2 miss at time 6.
    ts = TaskSystem(2, (GangTask(0, 1, 1, 3, 4), GangTask(1, 1, 4, 6, 6),
                        GangTask(2, 1, 4, 4, 6)))
    assert all(isinstance(o, Certified) for o in analyze(ts, ORIGINAL).per_task)
    assert reference_trace(ts, 12)[1] is None
    assert reference_trace(ts, 12, offsets=(3, 0, 2))[1] == (2, 6)
    for config in ALL_CONFIGS:
        if config != ORIGINAL:
            assert not any(isinstance(o, Certified) for o in analyze(ts, config).per_task)


def test_full_width_single_task_certified_under_strict():
    ts = TaskSystem(2, (GangTask(0, 2, 1, 2, 2),))
    holds, summary = check_condition(ts, 0, 2, STRICT)
    assert holds and summary.lhs == 0 and summary.rhs == 1
    assert analyze(ts, STRICT).schedulable


def test_system_verdict_is_conjunction_of_task_verdicts():
    rng = random.Random(10)
    for _ in range(60):
        ts = random_system(rng, 6, 5, 20)
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
        ts = random_system(rng, 6, 5, 20)
        strict = analyze(ts, STRICT)
        if strict.schedulable:
            seen += 1
            assert analyze(ts, ORIGINAL).schedulable
    assert seen >= 30  # the sweep must actually exercise certified systems


# --- system outcome class ---------------------------------------------------

# Strict: task 1's undefined interval is refuted and task 0 is certified.
REFUTED_AND_CERTIFIED = TaskSystem(3, (GangTask(0, 1, 1, 4, 4), GangTask(1, 2, 2, 2, 2)))
# Strict, delta_cap 2: task 0 is violated and task 1's undefined interval
# has a clean (empty) scan.
VIOLATED_THEN_CLEAN = TaskSystem(3, (GangTask(0, 1, 2, 2, 2), GangTask(1, 3, 2, 6, 8)))


def outcome_class_of(ts: TaskSystem, config: AnalysisConfig, fast: bool) -> str:
    """system_outcome, or analyze's outcome_class, or the ScanGuardError
    either raises."""
    try:
        return system_outcome(ts, config) if fast else analyze(ts, config).outcome_class
    except ScanGuardError as err:
        return f"ScanGuardError: {err}"


@settings(max_examples=200, deadline=None)
@given(outcome_systems(), st.one_of(st.none(), st.integers(1, 30)))
@example(two_task_system(), None)
@example(two_task_system(), 2**33)  # strict refutation cap over the guard
@example(GUARD_SYSTEM, None)
@example(REFUTED_AND_CERTIFIED, None)
@example(REFUTED_THEN_CLEAN, 4)
@example(VIOLATED_THEN_CLEAN, 2)
# Defined intervals.  Under original with the all-tasks carry-in every
# first window holds and task 0's walk finds the only violation, at 5.
# Task 0's range is empty (last 3 < D_0 = 5) and, under strict, task 1 is
# violated at D_1.  Task 0's range is its first window alone (last ==
# D_0 = 3), violated there under strict.
@example(TaskSystem(2, (GangTask(0, 2, 1, 4, 4), GangTask(1, 1, 4, 6, 6))), None)
@example(TaskSystem(3, (GangTask(0, 1, 1, 5, 7), GangTask(1, 2, 1, 1, 5))), None)
@example(TaskSystem(4, (GangTask(0, 1, 1, 3, 4), GangTask(1, 4, 2, 7, 7))), None)
def test_system_outcome_is_the_outcome_class_of_analyze(ts, delta_cap):
    for config in ALL_CONFIGS:
        config = replace(config, delta_cap=delta_cap)
        assert outcome_class_of(ts, config, True) == outcome_class_of(ts, config, False)


@settings(max_examples=200, deadline=None)
@given(outcome_systems())
def test_all_tasks_certification_implies_top_certification(ts):
    # Per window the all-tasks carry-in bound is at least the top one, and
    # so is its scan bound, so it certifies no task that top refuses.
    for variant in Variant:
        for k in range(ts.n):
            try:
                outcome = analyze_task(ts, k, AnalysisConfig(variant, CarryInStrategy.ALL_TASKS))
            except ScanGuardError:
                continue
            if isinstance(outcome, Certified):
                top = AnalysisConfig(variant, CarryInStrategy.TOP_H_MINUS_ONE)
                assert isinstance(analyze_task(ts, k, top), Certified)


def test_system_outcome_raises_the_scan_guard_error_of_analyze():
    # Under original a naive "an undefined interval makes the system
    # inapplicable" would answer before task 0's guard check.
    assert isinstance(scan_upper_bound(GUARD_SYSTEM, 1, CarryInStrategy.TOP_H_MINUS_ONE),
                      NoDeltaBound)
    for config in ALL_CONFIGS:
        got = outcome_class_of(GUARD_SYSTEM, config, True)
        assert got.startswith("ScanGuardError: task 0: scan over 333335000000 window")
        assert got == outcome_class_of(GUARD_SYSTEM, config, False)


@pytest.mark.parametrize("ts, config, want, points, walks", [
    # Inapplicable under original from the bounds alone.
    (REFUTED_AND_CERTIFIED, ORIGINAL, "inapplicable", [], []),
    # Not proven: task 0's first window D_0 = 5 holds and task 1's D_1 = 2
    # is violated, so nothing is walked.
    (TaskSystem(2, (GangTask(0, 1, 1, 5, 5), GangTask(1, 1, 1, 2, 2),
                    GangTask(2, 1, 1, 1, 1))), STRICT, "not_proven", [5, 2], []),
    # Schedulable: every first window, then one walk per task.
    (TaskSystem(2, (GangTask(0, 2, 3, 9, 10), GangTask(1, 2, 1, 4, 5),
                    GangTask(2, 2, 2, 5, 5))), STRICT, "schedulable", [9, 4, 5], [0, 1, 2]),
    # Strict scans the undefined intervals first, and only them; each is
    # refuted at its first window or its range is empty.
    (REFUTED_AND_CERTIFIED, STRICT, "not_proven", [2], []),
    (REFUTED_THEN_CLEAN, replace(STRICT, delta_cap=4), "inapplicable", [4], []),
    (VIOLATED_THEN_CLEAN, replace(STRICT, delta_cap=2), "inapplicable", [], []),
])
def test_system_outcome_scans_only_the_tasks_that_decide_it(monkeypatch, ts, config,
                                                            want, points, walks):
    # points lists every window evaluated before the first walk.
    recorded, walked = record_points(monkeypatch), record_walks(monkeypatch)
    assert system_outcome(ts, config) == want
    assert recorded[:len(points)] == points
    assert walked == walks
    if not walks:
        assert recorded == points
    assert analyze(ts, config).outcome_class == want


def test_analyze_evaluates_every_first_window_before_any_walk(monkeypatch):
    # The schedulable case above: analyze takes its outcomes from the same
    # stream as system_outcome, first windows first, then walks, and
    # puts them back in task order.
    ts = TaskSystem(2, (GangTask(0, 2, 3, 9, 10), GangTask(1, 2, 1, 4, 5),
                        GangTask(2, 2, 2, 5, 5)))
    recorded, walked = record_points(monkeypatch), record_walks(monkeypatch)
    verdict = analyze(ts, STRICT)
    assert recorded[:3] == [9, 4, 5]
    assert walked == [0, 1, 2]
    assert [o.task_index for o in verdict.per_task] == [0, 1, 2]
    assert verdict.per_task == tuple(analyze_task(ts, k, STRICT) for k in range(3))
    assert verdict.outcome_class == "schedulable"


def test_system_outcome_decides_a_late_first_window_violation_before_any_walk(monkeypatch):
    # Tasks 0 and 1 are certified by scans of about 25.7M windows; task 2
    # (C_2 = D_2) is violated at its first window under strict.
    ts = TaskSystem(4, (GangTask(0, 1, 1, 10**6, 10**6), GangTask(1, 1, 2, 10**6 - 7, 10**6 + 3),
                        GangTask(2, 4, 990000, 990000, 10**6)))
    points = record_points(monkeypatch)
    assert system_outcome(ts, STRICT) == "not_proven"
    assert points == [10**6, 10**6 - 7, 990000]
    points.clear()
    verdict = analyze(ts, STRICT)
    assert len(points) > 100
    assert [type(o) for o in verdict.per_task] == [Certified, Certified, NotProven]
    assert verdict.per_task[2].witness_delta == 990000
    assert verdict.outcome_class == "not_proven"


# --- scan implementation details --------------------------------------------

def assert_check_condition_at_the_witness(ts: TaskSystem, config: AnalysisConfig,
                                          outcome: NotProven) -> None:
    """The scan's lhs and rhs at the witness are ints and check_condition's."""
    summary = check_condition(ts, outcome.task_index, outcome.witness_delta, config)[1]
    assert (outcome.lhs, outcome.rhs) == (summary.lhs, summary.rhs)
    assert type(outcome.lhs) is int and type(outcome.rhs) is int


def first_violation(ts: TaskSystem, k: int, lo: int, hi: int,
                    config: AnalysisConfig) -> Optional[tuple[int, int, int]]:
    """(delta, lhs, rhs) at the first violated window in [lo, hi] under
    the system's scan test for config: lo itself, then _walk from lo."""
    test = analysis._scan_test(ts, config)
    if found := test(k, lo):
        return (lo, *found)
    return _walk(ts, k, test, lo, hi)


def scan_witness(ts: TaskSystem, k: int, lo: int, hi: int,
                 config: AnalysisConfig) -> Optional[int]:
    """first_violation's witness, its lhs and rhs checked against
    check_condition's."""
    found = first_violation(ts, k, lo, hi, config)
    if found is None:
        return None
    assert_check_condition_at_the_witness(ts, config, NotProven(k, *found))
    return found[0]


def test_first_violation_matches_dense_scan_on_random_systems():
    rng = random.Random(13)
    for _ in range(30):
        ts = random_system(rng, 6, 5, 20)
        k = rng.randrange(ts.n)
        lo = ts.tasks[k].deadline
        hi = lo + 300
        for config in ALL_CONFIGS:
            got = scan_witness(ts, k, lo, hi, config)
            assert got == dense_first_violation(ts, k, lo, hi, config)


def late_violation_system(period: int) -> TaskSystem:
    """Under the original variant task 0 first fails at delta = 2 * period.

    On one processor task 1 (C = D = T = 1) fills the rectangle exactly,
    lhs == rhs, and task 0's own term stays 0 until its second job's
    deadline at 2 * period adds one unit.
    """
    return TaskSystem(1, (GangTask(0, 1, 1, period, period), GangTask(1, 1, 1, 1, 1)))


def gap_system() -> TaskSystem:
    """Under the original variant with the all-tasks carry-in, task 0 first
    fails at delta = 11, inside the segment [7, 12] of a scan up to 15."""
    return TaskSystem(4, (GangTask(0, 3, 2, 7, 10), GangTask(1, 2, 22, 25, 30)))


@st.composite
def scan_cases(draw):
    """A system, a task k and a scan range [lo, hi] with lo >= D_k.

    Few tasks and long periods leave long segments between breakpoints,
    where the first violation is found by bisection.
    """
    ts = draw(small_systems(8, st.sampled_from([4, 16, 40, 300])))
    k = draw(st.integers(0, ts.n - 1))
    lo = ts.tasks[k].deadline + draw(st.one_of(st.just(0), st.integers(0, 400)))
    return ts, k, lo, lo + draw(st.integers(0, 400))


@settings(max_examples=150, deadline=None)
@given(scan_cases())
# lo sits 0, 63, 64, 65 and 191 windows before task 0's violation at 2000.
@example((late_violation_system(1000), 0, 2000, 2400))
@example((late_violation_system(1000), 0, 1937, 2337))
@example((late_violation_system(1000), 0, 1936, 2336))
@example((late_violation_system(1000), 0, 1935, 2335))
@example((late_violation_system(1000), 0, 1809, 2209))
@example((two_task_system(), 1, 2, 60))
# Edges of the walk: lo == hi; a violation at hi, 4 past the breakpoint 7;
# a lo that is no breakpoint, with the violation at 11 inside [9, 12].
@example((gap_system(), 0, 11, 11))
@example((gap_system(), 0, 7, 11))
@example((gap_system(), 0, 9, 15))
# Each fails when one breakpoint family is left out: the first two
# without the crossings j*C_i + C_k, the third without the ends
# j*T_i + C_i of the rising pieces of hbf', the fourth without the steps
# D_i + j*T_i of hbf, the last without the crossing at
# j = floor(hi/T_i) + 1 of the task whose period exceeds hi.
@example((TaskSystem(6, (GangTask(0, 3, 2, 3, 6), GangTask(1, 1, 2, 3, 3),
                         GangTask(2, 3, 9, 10, 10))), 1, 3, 103))
@example((TaskSystem(6, (GangTask(0, 1, 22, 29, 39), GangTask(1, 4, 25, 26, 32),
                         GangTask(2, 2, 6, 14, 14))), 0, 29, 129))
@example((TaskSystem(4, (GangTask(0, 2, 8, 12, 15), GangTask(1, 2, 10, 10, 10))),
          0, 12, 112))
@example((TaskSystem(5, (GangTask(0, 5, 6, 8, 14), GangTask(1, 4, 12, 15, 15))),
          0, 8, 108))
@example((TaskSystem(8, (GangTask(0, 3, 11, 15, 15), GangTask(1, 4, 13, 47, 61))),
          0, 15, 40))
def test_first_violation_matches_dense_scan(case):
    ts, k, lo, hi = case
    for config in ALL_CONFIGS:
        assert scan_witness(ts, k, lo, hi, config) == dense_first_violation(
            ts, k, lo, hi, config
        )


def test_first_violation_is_independent_of_the_scan_end():
    rng = random.Random(14)
    for _ in range(10):
        ts = random_system(rng, 6, 5, 20)
        k = rng.randrange(ts.n)
        lo = ts.tasks[k].deadline
        assert first_violation(ts, k, lo, lo + 20, STRICT) == first_violation(
            ts, k, lo, lo + 2000, STRICT
        ) or first_violation(ts, k, lo, lo + 20, STRICT) is None


@pytest.mark.parametrize("whole_system", [True, False], ids=["analyze", "analyze_task"])
def test_not_proven_lhs_rhs_are_check_condition_at_the_witness(whole_system):
    # NotProven's witness is the dense scan's first violation, whether the
    # outcome comes from analyze's per-task tuple or from analyze_task on
    # one task, and its lhs and rhs are check_condition's there.
    rng = random.Random(16)
    seen = 0
    for _ in range(60):
        ts = random_system(rng, 6, 5, 20)
        for config in ALL_CONFIGS:
            if whole_system:
                outcomes = analyze(ts, config).per_task
            else:
                outcomes = tuple(analyze_task(ts, k, config) for k in range(ts.n))
            for k, outcome in enumerate(outcomes):
                if isinstance(outcome, NotProven):
                    seen += 1
                    witness = outcome.witness_delta
                    assert dense_first_violation(
                        ts, k, ts.tasks[k].deadline, witness, config) == witness
                    assert_check_condition_at_the_witness(ts, config, outcome)
    assert seen >= 100


def test_verdicts_never_call_check_condition(monkeypatch):
    # The scan alone decides every verdict and reports lhs and rhs.
    rng = random.Random(18)
    systems = [two_task_system(), late_violation_system(1000)]
    systems += [random_system(rng, 6, 5, 20) for _ in range(40)]
    runs = []

    def refuse(*args):
        raise AssertionError("check_condition called")

    monkeypatch.setattr(analysis, "check_condition", refuse)
    for ts in systems:
        for config in ALL_CONFIGS:
            verdict = analyze(ts, config)
            assert tuple(analyze_task(ts, k, config) for k in range(ts.n)) == verdict.per_task
            assert system_outcome(ts, config) == verdict.outcome_class
            runs.append((ts, config, verdict))
    monkeypatch.undo()
    not_proven = [(ts, config, o) for ts, config, verdict in runs
                  for o in verdict.per_task if isinstance(o, NotProven)]
    for ts, config, outcome in not_proven:
        assert_check_condition_at_the_witness(ts, config, outcome)
    assert len(not_proven) >= 50


@settings(max_examples=150, deadline=None)
@given(outcome_systems())
# C_k = D_k: task k's demand hbf_k = C_k exceeds the width D_k - C_k = 0
# at its first window, so only the own-row form of the module docstring
# (less C_k, never clipped) gives check_condition's term; the second
# system holds two equal rows, of which only task k's is reduced.
@example(two_task_system())
@example(TaskSystem(3, (GangTask(0, 1, 3, 3, 5), GangTask(1, 1, 3, 3, 5),
                        GangTask(2, 2, 1, 4, 4))))
# Some v_i > h_k: the clip min(v_i, h_k) is h_k, not v_i.
@example(TaskSystem(4, (GangTask(0, 4, 1, 3, 4), GangTask(1, 2, 2, 3, 3),
                        GangTask(2, 3, 1, 2, 6))))
@example(TaskSystem(5, (GangTask(0, 5, 2, 2, 7), GangTask(1, 4, 3, 5, 5))))
def test_scan_test_is_check_condition_at_every_window(ts):
    # At every window from D_k through two of the longest periods past
    # it, the system's scan test answers (lhs, rhs) exactly where
    # check_condition fails, with its lhs and rhs, and None elsewhere.
    span = 2 * max(t.period for t in ts.tasks)
    for config in ALL_CONFIGS:
        test = analysis._scan_test(ts, config)
        for k, task in enumerate(ts.tasks):
            for delta in range(task.deadline, task.deadline + span + 1):
                holds, summary = check_condition(ts, k, delta, config)
                assert test(k, delta) == (None if holds else (summary.lhs, summary.rhs)), (
                    k, delta, config)


@st.composite
def permuted_systems(draw):
    """A small system and a permutation of its task indices."""
    ts = draw(outcome_systems())
    return ts, draw(st.permutations(range(ts.n)))


@settings(max_examples=150, deadline=None)
@given(permuted_systems())
@example((TaskSystem(3, (GangTask(0, 1, 3, 3, 5), GangTask(1, 1, 3, 3, 5),
                         GangTask(2, 2, 1, 4, 4))), [2, 0, 1]))
@example((REFUTED_AND_CERTIFIED, [1, 0]))
@example((TaskSystem(4, (GangTask(0, 4, 1, 3, 4), GangTask(1, 2, 2, 3, 3),
                         GangTask(2, 3, 1, 2, 6))), [1, 2, 0]))
def test_permuting_the_tasks_permutes_the_outcomes(case):
    # The analysis is symmetric in task index: task order[j] of ts is
    # task j of the permuted system, with the same outcome.
    ts, order = case
    permuted = TaskSystem(ts.processors, tuple(replace(ts.tasks[i], index=j)
                                               for j, i in enumerate(order)))
    for config in ALL_CONFIGS:
        try:
            verdict = analyze(ts, config)
        except ScanGuardError:
            with pytest.raises(ScanGuardError):
                analyze(permuted, config)
            continue
        assert analyze(permuted, config).per_task == tuple(
            replace(verdict.per_task[i], task_index=j) for j, i in enumerate(order))
        assert system_outcome(permuted, config) == system_outcome(ts, config)


def past_int64(ts: TaskSystem, hi: int) -> bool:
    """Whether a scan up to hi handles values past what int64 holds: some
    period or demand, times the 4 * n * m that sums over n tasks of terms
    clipped at m processors take, reaches 2^63."""
    worst = max(max(t.period, (hi // t.period + 2) * t.wcet) for t in ts.tasks)
    return 4 * ts.n * ts.processors * max(worst, hi) >= 2**63


@pytest.mark.parametrize("period", [10**18, 10**19 + 7, 3 * 10**20])
def test_scan_past_int64_matches_dense_scan(period):
    # Values past int64 stay exact; the violation at 2 * period sits 150
    # windows past lo.
    ts = late_violation_system(period)
    lo, hi = 2 * period - 150, 2 * period + 20
    assert past_int64(ts, hi)
    for config in ALL_CONFIGS:
        assert scan_witness(ts, 0, lo, hi, config) == dense_first_violation(
            ts, 0, lo, hi, config
        )
    assert scan_witness(ts, 0, lo, hi, ORIGINAL) == 2 * period
    # The interval is undefined; strict refutes at the first window.
    config = replace(STRICT, delta_cap=period + 100)
    outcome = analyze_task(ts, 0, config)
    assert outcome.witness_delta == period
    assert_check_condition_at_the_witness(ts, config, outcome)


def test_period_past_int64_in_a_short_scan_matches_dense_scan():
    # Every demand value is small, but the period itself does not fit int64.
    ts = TaskSystem(1, (GangTask(0, 1, 5, 100, 10**19), GangTask(1, 1, 50, 60, 100)))
    assert past_int64(ts, 151)
    assert analyze_task(ts, 1, STRICT) == Certified(task_index=1, scanned_up_to=151)
    for config in ALL_CONFIGS:
        assert scan_witness(ts, 1, 60, 151, config) == dense_first_violation(
            ts, 1, 60, 151, config
        )


def test_scan_with_periods_of_1e15_and_more_matches_dense_scan():
    rng = random.Random(17)
    seen = wide = not_proven = 0
    for _ in range(40):
        m = rng.randint(1, 6)
        tasks = []
        for i in range(rng.randint(1, 4)):
            period = rng.randint(10**15, 10**19)
            wcet = rng.choice([rng.randint(1, 100), rng.randint(1, period)])
            deadline = rng.choice([wcet + rng.randint(0, 50), rng.randint(wcet, period)])
            tasks.append(GangTask(i, rng.randint(1, m), wcet, min(deadline, period), period))
        ts = TaskSystem(m, tuple(tasks))
        k = rng.randrange(ts.n)
        lo = ts.tasks[k].deadline + rng.choice([0, rng.randint(0, 10**6)])
        hi = lo + 100
        wide += past_int64(ts, hi)
        for config in ALL_CONFIGS:
            got = scan_witness(ts, k, lo, hi, config)
            assert got == dense_first_violation(ts, k, lo, hi, config)
            seen += got is not None
            # Each task's own scan; refutation scans stop at D_j + 100.
            for j, task in enumerate(ts.tasks):
                capped = replace(config, delta_cap=task.deadline + 100)
                try:
                    outcome = analyze_task(ts, j, capped)
                except ScanGuardError:
                    continue
                if isinstance(outcome, NotProven):
                    not_proven += 1
                    assert_check_condition_at_the_witness(ts, capped, outcome)
    assert wide >= 20 and seen >= 20 and not_proven >= 10


def breakpoints(ts: TaskSystem, k: int, lo: int, hi: int) -> set:
    """The breakpoints of task k's scan in [lo, hi]: D_i + j*T_i,
    j*T_i + C_i and j*C_i + C_k for j <= floor(hi/T_i) + 1."""
    found = set()
    for t in ts.tasks:
        for first, step in ((t.deadline, t.period), (t.wcet, t.period),
                            (ts.tasks[k].wcet, t.wcet)):
            j0 = max(0, -(-(lo - first) // step))
            stop = min(first + (hi // t.period + 1) * step, hi)
            found.update(range(first + j0 * step, stop + 1, step))
    return found


def test_first_window_witness_evaluates_only_the_first_window(monkeypatch):
    points = record_points(monkeypatch)
    period = 1000
    ts = late_violation_system(period)
    # Under the strict variant lhs == rhs fails at the first window.
    assert first_violation(ts, 0, period, period + 10**5, STRICT)[0] == period
    assert points == [period]


def test_certified_long_period_scan_evaluates_breakpoints_not_windows(monkeypatch):
    # The scan covers 25.7M windows; a dense scan evaluates every one.
    points = record_points(monkeypatch)
    assert analyze_task(DENSE_SYSTEM, 0, STRICT) == Certified(task_index=0, scanned_up_to=25740769)
    assert len(points) <= len(breakpoints(DENSE_SYSTEM, 0, 10**6, 25740769)) + 2


def test_integer_scan_catches_rational_violations():
    # lhs - rhs is convex between consecutive integers, so a violation at a
    # fractional window length must show at an adjacent integer
    rng = random.Random(15)
    for _ in range(25):
        ts = random_system(rng, 6, 5, 10)
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


# --- sustainability ---------------------------------------------------------
#
# A sustainable test keeps certifying a system that becomes easier (Burns
# and Baruah, RTSS 2006; Baker and Baruah, ECRTS 2009).  T_i + 1 is left
# out until the scan bound counts carry-in area (see the xfail witnesses
# above), since a certification it loses rests on a scan that ends early.

def with_task(ts: TaskSystem, i: int, **changes) -> TaskSystem:
    return replace(ts, tasks=tuple(replace(t, **changes) if t.index == i else t
                                   for t in ts.tasks))


def easier_systems(ts: TaskSystem):
    """ts with one task's wcet one less, its deadline one more (up to its
    period), or the task dropped and the rest re-indexed."""
    for t in ts.tasks:
        if t.wcet > 1:
            yield with_task(ts, t.index, wcet=t.wcet - 1)
        if t.deadline < t.period:
            yield with_task(ts, t.index, deadline=t.deadline + 1)
        if ts.n > 1:
            rest = (u for u in ts.tasks if u.index != t.index)
            yield replace(ts, tasks=tuple(replace(u, index=j) for j, u in enumerate(rest)))


def wider_platforms(ts: TaskSystem):
    """ts on one more processor, or with one gang one processor narrower."""
    yield replace(ts, processors=ts.processors + 1)
    for t in ts.tasks:
        if t.width > 1:
            yield with_task(ts, t.index, width=t.width - 1)


def certified(ts: TaskSystem, config: AnalysisConfig) -> bool:
    return system_outcome(ts, config) == SYSTEM_SCHEDULABLE


@settings(max_examples=300, deadline=None)
@given(small_systems(5, st.integers(1, 20)))
def test_an_easier_task_keeps_every_certification(ts):
    for config in ALL_CONFIGS:
        if certified(ts, config):
            for easier in easier_systems(ts):
                assert certified(easier, config), (easier, config)


@settings(max_examples=300, deadline=None)
@given(small_systems(5, st.integers(1, 20)))
def test_a_wider_platform_keeps_an_all_tasks_certification(ts):
    for variant in Variant:
        config = AnalysisConfig(variant, CarryInStrategy.ALL_TASKS)
        if certified(ts, config):
            for wider in wider_platforms(ts):
                assert certified(wider, config), (wider, config)


@pytest.mark.parametrize("ts, wider, outcomes", [
    # Full-width task 0 has h_0 = 1 on m 3, so top admits no carry-in
    # against it; on m 4, h_0 = 2 admits task 1's.
    (TaskSystem(3, (GangTask(0, 3, 2, 3, 25), GangTask(1, 2, 5, 11, 28))),
     TaskSystem(4, (GangTask(0, 3, 2, 3, 25), GangTask(1, 2, 5, 11, 28))),
     (NotProven(0, 3, 2, 2), Certified(1, 14))),
    # Task 1 narrowed from the full 4 processors to 3: h_1 goes from 1 to 2.
    (TaskSystem(4, (GangTask(0, 4, 5, 8, 11), GangTask(1, 4, 1, 5, 10))),
     TaskSystem(4, (GangTask(0, 4, 5, 8, 11), GangTask(1, 3, 1, 5, 10))),
     (Certified(0, 16), NotProven(1, 5, 8, 8))),
], ids=["m+1", "v-1"])
def test_top_can_lose_a_certification_on_a_wider_platform(ts, wider, outcomes):
    assert analyze(ts, STRICT).schedulable
    assert analyze(wider, STRICT).per_task == outcomes
