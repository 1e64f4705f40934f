import math
import random
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gangsched import cli, simulator
from gangsched.model import GangTask, TaskSystem, print_task_system
from gangsched.simulator import (
    HorizonOverflowError,
    first_miss,
    hyperperiod,
    simulate_synchronous,
)

from oracles import (csv_rows, random_system, reference_trace, run_python, small_systems,
                     two_task_system)


# --- hyperperiod -------------------------------------------------------------

def test_hyperperiod_counterexample():
    assert hyperperiod(two_task_system()) == 2


def test_hyperperiod_coprime():
    ts = TaskSystem(3, tuple(GangTask(i, 1, 1, p, p) for i, p in enumerate((2, 3, 5))))
    assert hyperperiod(ts) == 30


def test_hyperperiod_single_task():
    assert hyperperiod(TaskSystem(1, (GangTask(0, 1, 1, 7, 7),))) == 7


def test_hyperperiod_default_guard_trips_on_huge_lcm():
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    ts = TaskSystem(1, tuple(GangTask(i, 1, 1, p, p) for i, p in enumerate(primes)))
    assert math.lcm(*primes) > 2**48
    with pytest.raises(HorizonOverflowError) as refused:
        hyperperiod(ts)
    for simulate in (simulate_synchronous, first_miss):
        with pytest.raises(HorizonOverflowError, match=f"^{refused.value}$"):
            simulate(ts)


# --- counterexample schedule --------------------------------------------------

def test_counterexample_schedule_and_miss():
    trace = simulate_synchronous(two_task_system())
    assert trace.slots == (((0, 0, 2),), ((0, 0, 2),))
    assert trace.first_miss == (1, 2)
    # the blocked task is never allocated before the miss
    assert all(task != 1 for slot in trace.slots for task, _, _ in slot)


def test_counterexample_runs_late_when_continuing():
    trace = simulate_synchronous(two_task_system(), horizon=3, stop_on_miss=False)
    assert trace.slots[2] == ((1, 0, 2),)
    assert trace.first_miss == (1, 2)


def test_counterexample_not_schedulable():
    assert first_miss(two_task_system()) is not None


# --- simple schedules ---------------------------------------------------------

def test_full_width_task_alone():
    ts = TaskSystem(3, (GangTask(0, 3, 1, 2, 2),))
    trace = simulate_synchronous(ts)
    assert trace.first_miss is None
    assert trace.slots == (((0, 0, 3),), ())


def test_two_unit_tasks_share_first_slot():
    ts = TaskSystem(2, (GangTask(0, 1, 1, 2, 2), GangTask(1, 1, 1, 2, 2)))
    trace = simulate_synchronous(ts)
    assert trace.first_miss is None
    assert trace.slots[0] == ((0, 0, 1), (1, 1, 1))
    assert trace.slots[1] == ()


def test_saturating_unit_tasks_stay_pinned():
    m = 3
    ts = TaskSystem(m, tuple(GangTask(i, 1, 4, 4, 4) for i in range(m)))
    trace = simulate_synchronous(ts)
    assert trace.first_miss is None
    for slot in trace.slots:
        assert slot == tuple((i, i, 1) for i in range(m))
    assert first_miss(ts) is None


def test_idle_task_has_no_miss():
    ts = TaskSystem(1, (GangTask(0, 1, 1, 10, 10),))
    assert first_miss(ts) is None


def test_zero_horizon_trace_is_empty():
    trace = simulate_synchronous(two_task_system(), horizon=0)
    assert trace.slots == ()
    assert trace.first_miss is None


def test_empty_system_idles_to_the_horizon():
    # An unvalidated system with no tasks has no release at all.
    ts = TaskSystem(2, ())
    assert simulate_synchronous(ts, 5).runs == ((0, 5, ()),)
    assert first_miss(ts, 5) is None
    assert first_miss(ts) is None


def test_auto_horizon_is_hyperperiod():
    ts = TaskSystem(3, tuple(GangTask(i, 1, 1, p, p) for i, p in enumerate((2, 3))))
    assert simulate_synchronous(ts).horizon == 6


def test_explicit_horizon_guard():
    with pytest.raises(HorizonOverflowError) as refused:
        simulate_synchronous(two_task_system(), horizon=2**48 + 1)
    with pytest.raises(HorizonOverflowError, match=f"^{refused.value}$"):
        first_miss(two_task_system(), horizon=2**48 + 1)
    assert first_miss(two_task_system(), horizon=0) is None
    for simulate in (simulate_synchronous, first_miss):
        with pytest.raises(ValueError, match=r"^horizon must be >= 0$"):
            simulate(two_task_system(), -1)


# --- behavioral properties ----------------------------------------------------

def test_matches_independent_reference_simulation():
    rng = random.Random(31)
    for _ in range(150):
        ts = random_system(rng, 5, 4, 8)
        horizon = min(math.lcm(*(t.period for t in ts.tasks)) * 2, 100)
        trace = simulate_synchronous(ts, horizon=horizon, stop_on_miss=False)
        ref_slots, ref_miss = reference_trace(ts, horizon)
        assert trace.slots == ref_slots
        assert trace.first_miss == ref_miss


def test_allocations_are_legal_every_slot():
    rng = random.Random(32)
    for _ in range(150):
        ts = random_system(rng, 5, 4, 8)
        horizon = min(math.lcm(*(t.period for t in ts.tasks)), 80)
        trace = simulate_synchronous(ts, horizon=horizon, stop_on_miss=False)
        for slot in trace.slots:
            free = 0  # blocks are disjoint and ascend in allocation order
            for task, first, width in slot:
                assert width == ts.tasks[task].width  # gang rigidity
                assert free <= first
                free = first + width
            assert free <= ts.processors


def test_executed_work_matches_wcet_on_clean_hyperperiod():
    # no early/late execution: over a miss-free hyperperiod every task runs
    # exactly (H / T) * C slots
    rng = random.Random(33)
    checked = 0
    while checked < 40:
        ts = random_system(rng, 5, 4, 8)
        h = math.lcm(*(t.period for t in ts.tasks))
        if h > 200:
            continue
        trace = simulate_synchronous(ts)
        if trace.first_miss is not None:
            continue
        checked += 1
        for t in ts.tasks:
            ran = sum(1 for slot in trace.slots for task, _, _ in slot if task == t.index)
            assert ran == (h // t.period) * t.wcet


def test_first_fit_work_conservation_replay():
    # for every waiting job: either allocated, or its width exceeded the
    # processors left when the priority walk reached it
    rng = random.Random(34)
    checked = 0
    while checked < 40:
        ts = random_system(rng, 5, 4, 8)
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
            allocated = {task for task, _, _ in slot}
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
            slot_ranks = [ranks[task] for task, _, _ in slot]
            assert slot_ranks == sorted(slot_ranks)


def test_determinism():
    rng = random.Random(35)
    for _ in range(30):
        ts = random_system(rng, 5, 4, 8)
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
    ts = draw(small_systems(8, st.just(10**4)))
    # The reference costs O(horizon * unfinished jobs), and an overloaded
    # system run past its miss piles up jobs without bound, so the horizon
    # is capped at about 2,000 released jobs; with long periods it still
    # reaches 2e4 slots.
    jobs_cap = int(2000 / sum(1 / t.period for t in ts.tasks))
    return ts, draw(st.integers(0, min(2 * 10**4, jobs_cap)))


@settings(max_examples=100, deadline=None)
@given(simulated_systems())
@example((two_task_system(), 5))
@example((TaskSystem(3, tuple(GangTask(i, 1, 4, 4, 4) for i in range(3))), 12))
@example((TaskSystem(3, tuple(GangTask(i, 1, 4, 4, 4) for i in range(3))), 400))
# Four tasks release together with equal deadlines: the task index breaks
# the tie, and task 2 misses at 3.
@example((TaskSystem(2, tuple(GangTask(i, 1, 2, 3, 3) for i in range(4))), 12))
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

    # first_miss simulates at most one hyperperiod of the reference's horizon.
    assert first_miss(ts, horizon) == ref_miss
    if math.lcm(*(t.period for t in ts.tasks)) <= 2 * 10**4:
        assert first_miss(ts) == simulate_synchronous(ts).first_miss


@pytest.mark.parametrize("horizon", [0, 1, 104, 105, 106, 200, None])
def test_first_miss_folds_the_lcm_only_up_to_the_horizon(monkeypatch, horizon):
    # The full lcm of these periods has about 1,600 bits; the fold stops
    # once the lcm reaches the horizon, at 105 = lcm(3, 5, 7) or at the
    # first long period past it.  With no horizon hyperperiod folds up to
    # HORIZON_GUARD + 1, and the second long period takes it past.
    periods = (3, 5, 7) + tuple(2**40 + 2 * i + 1 for i in range(40))
    ts = TaskSystem(2, tuple(GangTask(i, 1, 1, p, p) for i, p in enumerate(periods)))
    assert math.lcm(*periods).bit_length() > 1000
    want = None if horizon is None else simulate_synchronous(ts, horizon).first_miss
    sizes = []
    lcm = math.lcm

    def recording(*args):
        result = lcm(*args)
        sizes.append(result.bit_length())
        return result

    monkeypatch.setattr(math, "lcm", recording)
    if horizon is None:
        with pytest.raises(HorizonOverflowError,
                           match=f"^hyperperiod exceeds guard {simulator.HORIZON_GUARD}$"):
            first_miss(ts)
        assert max(sizes) < 90
    else:
        assert first_miss(ts, horizon) == want
        assert max(sizes, default=0) <= 48


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
    rows = "slot,task,processor\n" + ("" if no_trace else csv_rows(slots))
    return rows if miss is None else rows + f"MISS,{miss[0]},{miss[1]}\n"


def test_simulate_csv_bytes_match_reference_rows(tmp_path):
    rng = random.Random(36)
    source = tmp_path / "ts.txt"
    out = tmp_path / "out.csv"
    for _ in range(40):
        ts = random_system(rng, 5, 6, 30)
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


def test_miss_only_callers_build_no_trace(monkeypatch, tmp_path):
    built = []
    trace_type = simulator.ScheduleTrace

    def counted(*args):
        built.append(args)
        return trace_type(*args)

    monkeypatch.setattr(simulator, "ScheduleTrace", counted)
    source = tmp_path / "ts.txt"
    source.write_text(print_task_system(two_task_system()))
    out = tmp_path / "out.csv"
    assert cli.main(["experiment", "--n", "3", "--m", "2", "--points", "2", "--trials", "3",
                     "--t-min", "2", "--t-max", "20", "--out", str(out)]) == 0
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert [row[6] for row in rows] == ["0", "0"]  # every trial was simulated
    assert cli.main(["simulate", "--input", str(source), "--no-trace", "--out", str(out)]) == 2
    assert first_miss(two_task_system()) is not None
    assert built == []
    assert cli.main(["simulate", "--input", str(source), "--out", str(out)]) == 2
    assert len(built) == 1


def test_simulate_no_trace_over_a_billion_slots(tmp_path):
    source = tmp_path / "ts.txt"
    source.write_text(print_task_system(long_period_system()))
    out = tmp_path / "out.csv"
    code = cli.main(["simulate", "--input", str(source), "--horizon", str(10**9),
                     "--continue-after-miss", "--no-trace", "--out", str(out)])
    assert code == 2
    assert out.read_text() == f"slot,task,processor\nMISS,2,{6 * 10**7}\n"


def test_releases_of_many_distinct_periods_cost_log_n_each(tmp_path):
    # 40,000 tasks with distinct periods release at 40,000 distinct
    # instants after 0.  Scanning every task at each release instant is
    # O(n^2): one such first_miss took 90 s on a 2-core Xeon, where this
    # whole script takes 1.2 s with a heap of next release times.  The
    # timeout sits 9x below the one and 8x above the other.
    n = 40_000
    source = tmp_path / "many.txt"
    source.write_text(f"m {n}\n" + "".join(f"task 1 1 {10**6 + i} {10**6 + i}\n"
                                           for i in range(n)))
    script = textwrap.dedent(f"""
        from gangsched import cli
        from gangsched.model import parse_task_system
        from gangsched.simulator import first_miss

        with open({str(source)!r}) as f:
            print(first_miss(parse_task_system(f.read()), 2 * 10**6))
        print(cli.main(["simulate", "--input", {str(source)!r}, "--horizon", "2000000",
                        "--no-trace"]))
    """)
    done = run_python("-c", script, memory=2**30, timeout=10)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "None\nslot,task,processor\n0\n", "")
