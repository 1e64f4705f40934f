import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gangsched import cli
from gangsched.model import GangTask, TaskSystem, print_task_system
from gangsched.simulator import (
    HorizonOverflowError,
    check_no_miss,
    hyperperiod,
    simulate_synchronous,
)

from oracles import reference_trace


def two_task_system() -> TaskSystem:
    return TaskSystem(3, (GangTask(0, 2, 2, 2, 2), GangTask(1, 2, 1, 2, 2)))


def random_system(rng: random.Random, n_max: int = 5, m_max: int = 4,
                  t_max: int = 8) -> TaskSystem:
    m = rng.randint(1, m_max)
    tasks = []
    for i in range(rng.randint(1, n_max)):
        period = rng.randint(1, t_max)
        wcet = rng.randint(1, period)
        deadline = rng.randint(wcet, period)
        tasks.append(GangTask(i, rng.randint(1, m), wcet, deadline, period))
    return TaskSystem(m, tuple(tasks))


# --- hyperperiod -------------------------------------------------------------

def test_hyperperiod_counterexample():
    assert hyperperiod(two_task_system()) == 2


def test_hyperperiod_coprime():
    ts = TaskSystem(3, tuple(GangTask(i, 1, 1, p, p) for i, p in enumerate((2, 3, 5))))
    assert hyperperiod(ts) == 30


def test_hyperperiod_single_task():
    assert hyperperiod(TaskSystem(1, (GangTask(0, 1, 1, 7, 7),))) == 7


def test_hyperperiod_guard():
    ts = TaskSystem(3, tuple(GangTask(i, 1, 1, p, p) for i, p in enumerate((2, 3, 5))))
    with pytest.raises(HorizonOverflowError):
        hyperperiod(ts, limit=10)


def test_hyperperiod_default_guard_trips_on_huge_lcm():
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    ts = TaskSystem(1, tuple(GangTask(i, 1, 1, p, p) for i, p in enumerate(primes)))
    assert math.lcm(*primes) > 2**48
    with pytest.raises(HorizonOverflowError):
        hyperperiod(ts)


# --- counterexample schedule --------------------------------------------------

def test_counterexample_schedule_and_miss():
    trace = simulate_synchronous(two_task_system())
    assert trace.slots == (((0, (0, 1)),), ((0, (0, 1)),))
    assert trace.first_miss == (1, 2)
    # the blocked task is never allocated before the miss
    assert all(task != 1 for slot in trace.slots for task, _ in slot)


def test_counterexample_runs_late_when_continuing():
    trace = simulate_synchronous(two_task_system(), horizon=3, stop_on_miss=False)
    assert trace.slots[2] == ((1, (0, 1)),)
    assert trace.first_miss == (1, 2)


def test_counterexample_not_schedulable():
    assert check_no_miss(two_task_system()) is False


# --- simple schedules ---------------------------------------------------------

def test_full_width_task_alone():
    ts = TaskSystem(3, (GangTask(0, 3, 1, 2, 2),))
    trace = simulate_synchronous(ts)
    assert trace.first_miss is None
    assert trace.slots == (((0, (0, 1, 2)),), ())


def test_two_unit_tasks_share_first_slot():
    ts = TaskSystem(2, (GangTask(0, 1, 1, 2, 2), GangTask(1, 1, 1, 2, 2)))
    trace = simulate_synchronous(ts)
    assert trace.first_miss is None
    assert trace.slots[0] == ((0, (0,)), (1, (1,)))
    assert trace.slots[1] == ()


def test_saturating_unit_tasks_stay_pinned():
    m = 3
    ts = TaskSystem(m, tuple(GangTask(i, 1, 4, 4, 4) for i in range(m)))
    trace = simulate_synchronous(ts)
    assert trace.first_miss is None
    for slot in trace.slots:
        assert slot == tuple((i, (i,)) for i in range(m))
    assert check_no_miss(ts) is True


def test_idle_task_has_no_miss():
    ts = TaskSystem(1, (GangTask(0, 1, 1, 10, 10),))
    assert check_no_miss(ts) is True


def test_zero_horizon_trace_is_empty():
    trace = simulate_synchronous(two_task_system(), horizon=0)
    assert trace.slots == ()
    assert trace.first_miss is None


def test_auto_horizon_is_hyperperiod():
    ts = TaskSystem(3, tuple(GangTask(i, 1, 1, p, p) for i, p in enumerate((2, 3))))
    assert simulate_synchronous(ts).horizon == 6


def test_explicit_horizon_guard():
    with pytest.raises(HorizonOverflowError):
        simulate_synchronous(two_task_system(), horizon=2**48 + 1)


# --- behavioral properties ----------------------------------------------------

def test_matches_independent_reference_simulation():
    rng = random.Random(31)
    for _ in range(150):
        ts = random_system(rng)
        horizon = min(math.lcm(*(t.period for t in ts.tasks)) * 2, 100)
        trace = simulate_synchronous(ts, horizon=horizon, stop_on_miss=False)
        ref_slots, ref_miss = reference_trace(ts, horizon)
        assert trace.slots == ref_slots
        assert trace.first_miss == ref_miss


def test_allocations_are_legal_every_slot():
    rng = random.Random(32)
    for _ in range(150):
        ts = random_system(rng)
        horizon = min(math.lcm(*(t.period for t in ts.tasks)), 80)
        trace = simulate_synchronous(ts, horizon=horizon, stop_on_miss=False)
        for slot in trace.slots:
            used = [p for _, procs in slot for p in procs]
            assert len(used) == len(set(used)) <= ts.processors
            for task, procs in slot:
                assert len(procs) == ts.tasks[task].width  # gang rigidity
                assert procs == tuple(sorted(procs))


def test_executed_work_matches_wcet_on_clean_hyperperiod():
    # no early/late execution: over a miss-free hyperperiod every task runs
    # exactly (H / T) * C slots
    rng = random.Random(33)
    checked = 0
    while checked < 40:
        ts = random_system(rng)
        h = math.lcm(*(t.period for t in ts.tasks))
        if h > 200:
            continue
        trace = simulate_synchronous(ts)
        if trace.first_miss is not None:
            continue
        checked += 1
        for t in ts.tasks:
            ran = sum(1 for slot in trace.slots for task, _ in slot if task == t.index)
            assert ran == (h // t.period) * t.wcet


def test_first_fit_work_conservation_replay():
    # for every waiting job: either allocated, or its width exceeded the
    # processors left when the priority walk reached it
    rng = random.Random(34)
    checked = 0
    while checked < 40:
        ts = random_system(rng)
        h = math.lcm(*(t.period for t in ts.tasks))
        if h > 150:
            continue
        trace = simulate_synchronous(ts)
        if trace.first_miss is not None:
            continue
        checked += 1
        release = {}
        remaining = {}
        for now, slot in enumerate(trace.slots):
            for t in ts.tasks:
                if now % t.period == 0:
                    assert remaining.get(t.index, 0) == 0  # miss-free: done
                    release[t.index] = now
                    remaining[t.index] = t.wcet
            live = [t for t in ts.tasks if remaining.get(t.index, 0) > 0]
            order = sorted(live, key=lambda t: (release[t.index] + t.deadline, t.index))
            allocated = dict(slot)
            free = ts.processors
            for t in order:
                if t.index in allocated:
                    assert t.width <= free
                    free -= t.width
                    remaining[t.index] -= 1
                else:
                    assert t.width > free
            # priority order is (deadline, index) lexicographic
            ranks = {t.index: pos for pos, t in enumerate(order)}
            slot_ranks = [ranks[task] for task, _ in slot]
            assert slot_ranks == sorted(slot_ranks)


def test_determinism():
    rng = random.Random(35)
    for _ in range(30):
        ts = random_system(rng)
        horizon = min(math.lcm(*(t.period for t in ts.tasks)), 60)
        first = simulate_synchronous(ts, horizon=horizon, stop_on_miss=False)
        second = simulate_synchronous(ts, horizon=horizon, stop_on_miss=False)
        assert first == second


# --- event-driven runs against the slot-by-slot reference --------------------

def assert_canonical_runs(trace, length: int) -> None:
    """runs tile [0, length) from 0, none empty, adjacent allocations differ."""
    reached = 0
    for start, end, _ in trace.runs:
        assert start == reached < end
        reached = end
    assert reached == length
    assert all(a[2] != b[2] for a, b in zip(trace.runs, trace.runs[1:]))


@st.composite
def simulated_systems(draw):
    m = draw(st.integers(1, 8))
    tasks = []
    for i in range(draw(st.integers(1, 5))):
        period = draw(st.integers(1, 10**4))
        wcet = draw(st.integers(1, period))
        deadline = draw(st.integers(wcet, period))
        tasks.append(GangTask(i, draw(st.integers(1, m)), wcet, deadline, period))
    # The reference costs O(horizon * unfinished jobs), and an overloaded
    # system run past its miss piles up jobs without bound, so the horizon
    # is capped at about 2,000 released jobs; with long periods it still
    # reaches 2e4 slots.
    jobs_cap = int(2000 / sum(1 / t.period for t in tasks))
    return TaskSystem(m, tuple(tasks)), draw(st.integers(0, min(2 * 10**4, jobs_cap)))


@settings(max_examples=100, deadline=None)
@given(simulated_systems())
@example((two_task_system(), 5))
@example((TaskSystem(3, tuple(GangTask(i, 1, 4, 4, 4) for i in range(3))), 12))
def test_event_driven_simulation_matches_slot_reference(case):
    ts, horizon = case
    ref_slots, ref_miss = reference_trace(ts, horizon)

    trace = simulate_synchronous(ts, horizon=horizon, stop_on_miss=False)
    assert trace.slots == ref_slots
    assert trace.first_miss == ref_miss
    assert_canonical_runs(trace, len(trace.slots))

    stopped = simulate_synchronous(ts, horizon=horizon)
    cut = horizon if ref_miss is None else ref_miss[1]
    assert stopped.slots == ref_slots[:cut]
    assert stopped.first_miss == ref_miss
    assert_canonical_runs(stopped, len(stopped.slots))


def long_period_system() -> TaskSystem:
    """Misses at 6e7: tasks 0 and 1 fill the platform until task 0
    completes at 4e7, and task 2 then runs only 2e7 of its 6e7 units
    before its deadline."""
    return TaskSystem(4, (
        GangTask(0, 2, 4 * 10**7, 4 * 10**7, 10**8),
        GangTask(1, 2, 5 * 10**7, 5 * 10**7, 10**8 + 7),
        GangTask(2, 2, 6 * 10**7, 6 * 10**7, 10**8 - 3),
    ))


def test_runs_grow_with_events_not_with_the_horizon():
    ts = long_period_system()
    horizon = 10**9
    trace = simulate_synchronous(ts, horizon=horizon, stop_on_miss=False)
    assert trace.first_miss == (2, 6 * 10**7)
    releases = sum(-(-horizon // t.period) for t in ts.tasks)
    assert len(trace.runs) <= 3 * releases + 1
    assert trace.runs[0][0] == 0 and trace.runs[-1][1] == horizon
    assert all(a[1] == b[0] for a, b in zip(trace.runs, trace.runs[1:]))


def reference_csv(ts: TaskSystem, horizon: int, no_trace: bool, stop_on_miss: bool) -> str:
    slots, miss = reference_trace(ts, horizon)
    if stop_on_miss and miss is not None:
        slots = slots[: miss[1]]
    lines = ["slot,task,processor"]
    if not no_trace:
        lines += [f"{slot},{task},{proc}"
                  for slot, allocation in enumerate(slots)
                  for task, procs in allocation for proc in procs]
    if miss is not None:
        lines.append(f"MISS,{miss[0]},{miss[1]}")
    return "\n".join(lines) + "\n"


def test_simulate_csv_bytes_match_reference_rows(tmp_path):
    rng = random.Random(36)
    source = tmp_path / "ts.txt"
    out = tmp_path / "out.csv"
    for _ in range(40):
        ts = random_system(rng, m_max=6, t_max=30)
        source.write_text(print_task_system(ts))
        horizon = rng.randint(0, 120)
        for no_trace in (False, True):
            for stop_on_miss in (True, False):
                argv = ["simulate", "--input", str(source), "--horizon", str(horizon),
                        "--out", str(out)]
                argv += ["--no-trace"] * no_trace + ["--continue-after-miss"] * (not stop_on_miss)
                code = cli.main(argv)
                expected = reference_csv(ts, horizon, no_trace, stop_on_miss)
                assert out.read_bytes() == expected.encode()
                assert code == (2 if "MISS," in expected else 0)


def test_simulate_no_trace_over_a_billion_slots(tmp_path):
    source = tmp_path / "ts.txt"
    source.write_text(print_task_system(long_period_system()))
    out = tmp_path / "out.csv"
    code = cli.main(["simulate", "--input", str(source), "--horizon", str(10**9),
                     "--continue-after-miss", "--no-trace", "--out", str(out)])
    assert code == 2
    assert out.read_text() == f"slot,task,processor\nMISS,2,{6 * 10**7}\n"
