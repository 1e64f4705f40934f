"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline.
"""

import csv
import json
import math
import time
from fractions import Fraction

from gangsched.analysis import (
    CarryInStrategy,
    Certified,
    Inapplicable,
    NoDeltaBound,
    NotProven,
    analyze,
    analyze_task,
    check_condition,
    scan_upper_bound,
)
from gangsched.cli import counterexample_system
from gangsched.cli import main as cli_main
from gangsched.demand import hbf, hbf_prime
from gangsched.generator import DeadlineMode, GenParams, generate_task_system
from gangsched.model import GangTask, TaskSystem, parse_task_system, print_task_system
from gangsched.simulator import first_miss, simulate_synchronous

from oracles import (COUNTEREXAMPLE_TEXT, ORIGINAL, STRICT, brute_hbf, brute_hbf_prime,
                     main_in_process, run_python, scalar_carry_bound, scalar_no_carry_bound,
                     spearman)


def test_counterexample_system_matches_its_text():
    assert counterexample_system() == parse_task_system(COUNTEREXAMPLE_TEXT)


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_1_counterexample_exactness():
    ts = counterexample_system()
    _, summary = check_condition(ts, 1, 2, ORIGINAL)
    bound = scan_upper_bound(ts, 1, CarryInStrategy.TOP_H_MINUS_ONE)
    verdict_orig = analyze_task(ts, 1, ORIGINAL)
    verdict_strict = analyze_task(ts, 1, STRICT)

    start = time.perf_counter()
    code, _, _ = main_in_process("counterexample")
    elapsed = time.perf_counter() - start
    facts = json.loads(main_in_process("counterexample", "--json")[1])
    rectangle = facts["interference"]["width"], facts["interference"]["height"]

    ok = (
        rectangle == (1, 2)
        and facts["ok"] is True
        and summary.no_carry_in == (2, 0)
        and summary.with_carry_in == (2, 0)
        and summary.carry_in_extra == (0, 0)
        and summary.carry_in_bound == 0
        and summary.lhs == 2 == sum(summary.no_carry_in)
        and summary.rhs == rectangle[0] * rectangle[1] == 2
        and bound == NoDeltaBound(Fraction(-1))
        and verdict_orig
        == Inapplicable(task_index=1, denominator=Fraction(-1), scanned_up_to=None)
        and isinstance(verdict_strict, NotProven)
        and verdict_strict.witness_delta == 2
        and code == 0
        and elapsed < 1.0
    )
    report(1, "counterexample reproduces every published value exactly", ok)


def test_criterion_2_counterexample_schedule():
    trace = simulate_synchronous(counterexample_system())
    blocked_never_runs = all(task != 1 for slot in trace.slots for task, _, _ in slot)
    ok = (
        trace.slots == (((0, 0, 2),), ((0, 0, 2),))
        and blocked_never_runs
        and trace.first_miss == (1, 2)
    )
    report(2, "simulator reproduces the two-slot schedule and the miss at t=2", ok)


def test_criterion_3_applicability_experiment(tmp_path):
    out = tmp_path / "experiment.csv"
    code = cli_main([
        "experiment", "--n", "10", "--m", "6", "--points", "20",
        "--load-max", "0.4", "--trials", "300", "--seed", "7",
        "--variant", "original", "--carry-in", "top", "--horizon", "200",
        "--out", str(out),
    ])
    assert code == 0
    with open(out) as handle:
        rows = list(csv.DictReader(handle))
    loads = [float(Fraction(r["utilization"])) for r in rows]
    fracs = [int(r["inapplicable"]) / int(r["trials"]) for r in rows]
    rho = spearman(loads, fracs)
    ok = (
        len(rows) == 20
        and all(int(r["trials"]) == 300 for r in rows)
        and all(f == 0.0 for f in fracs[:3])
        and all(f > 0.0 for f in fracs[-3:])
        and rho > 0.8
    )
    report(3, f"inapplicable fraction grows with utilization (spearman {rho:.3f})", ok)


def test_criterion_4_soundness_sweep():
    certified = checked = misses = 0
    unsound = []
    trial = 0
    loads = (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2), Fraction(7, 10))
    for load in loads:
        for mode in (DeadlineMode.IMPLICIT, DeadlineMode.CONSTRAINED):
            for m in (2, 3, 4):
                for _ in range(42):
                    n = max(2 + trial % 4, math.ceil(load * m))
                    params = GenParams(
                        n=n, m=m, target_load=load, t_min=2, t_max=12,
                        deadline_mode=mode, seed=1234,
                    )
                    ts = generate_task_system(params, trial)
                    trial += 1
                    checked += 1
                    clean = first_miss(ts) is None
                    misses += not clean
                    if analyze(ts, STRICT).schedulable:
                        certified += 1
                        if not clean:
                            unsound.append(ts)

    cx = counterexample_system()
    cx_verdict = analyze(cx, ORIGINAL)
    cx_discrepancy = (
        cx_verdict.outcome_class == "inapplicable"
        and not any(isinstance(o, Certified) for o in cx_verdict.per_task)
        and first_miss(cx) is not None
        # the miss happens although the non-strict necessary condition is
        # satisfied at the first window: the witness the strict fix repairs
        and check_condition(cx, 1, 2, ORIGINAL)[0] is True
    )
    ok = (
        checked >= 1000
        and certified >= 30  # the sweep must exercise certified systems
        and misses >= 30  # and systems that actually miss
        and not unsound
        and cx_discrepancy
    )
    report(
        4,
        f"no unsound strict certifications over {checked} systems "
        f"({certified} certified, {misses} missing); counterexample bookkeeping correct",
        ok,
    )


def test_criterion_5_width_one_reduction():
    import random

    rng = random.Random(555)
    systems = mismatches = 0
    while systems < 500:
        m = rng.randint(1, 4)
        tasks = []
        for i in range(rng.randint(1, 5)):
            period = rng.randint(1, 20)
            wcet = rng.randint(1, period)
            deadline = rng.randint(wcet, period)
            tasks.append(GangTask(i, 1, wcet, deadline, period))
        ts = TaskSystem(m, tuple(tasks))
        systems += 1
        for k in range(ts.n):
            first = ts.tasks[k].deadline
            for delta in range(first, first + 2 * max(t.period for t in ts.tasks) + 1):
                _, summary = check_condition(ts, k, delta, STRICT)
                if summary.rhs != (delta - ts.tasks[k].wcet) * m:
                    mismatches += 1
                for i in range(ts.n):
                    if summary.no_carry_in[i] != scalar_no_carry_bound(
                        ts.tasks, i, k, delta, m
                    ):
                        mismatches += 1
                    if summary.with_carry_in[i] != scalar_carry_bound(
                        ts.tasks, i, k, delta, m
                    ):
                        mismatches += 1
    ok = systems >= 500 and mismatches == 0
    report(5, f"width-1 interference equals the scalar bounds on {systems} systems", ok)


def test_criterion_6_demand_oracle_equivalence():
    import random

    rng = random.Random(666)
    pairs = mismatches = 0
    while pairs < 10_000:
        period = rng.randint(1, 20)
        wcet = rng.randint(1, period)
        deadline = rng.randint(wcet, period)
        task = GangTask(0, rng.randint(1, 4), wcet, deadline, period)
        length = rng.randint(0, 100)
        pairs += 1
        a, b = hbf(task, length), hbf_prime(task, length)
        if a != brute_hbf(task, length) or b != brute_hbf_prime(task, length):
            mismatches += 1
        if b < a:
            mismatches += 1
    ok = pairs >= 10_000 and mismatches == 0
    report(6, f"hbf/hbf' match brute-force window oracles on {pairs} pairs", ok)


def test_criterion_7_determinism_and_round_trip(tmp_path):
    cx_file = tmp_path / "cx.txt"
    cx_file.write_text(COUNTEREXAMPLE_TEXT)
    gen_dir_a, gen_dir_b = tmp_path / "gena", tmp_path / "genb"
    commands = [
        ("counterexample",),
        ("counterexample", "--json"),
        ("analyze", "--input", str(cx_file), "--variant", "original"),
        ("analyze", "--input", str(cx_file), "--variant", "strict", "--json"),
        ("simulate", "--input", str(cx_file)),
        ("experiment", "--n", "4", "--m", "3", "--points", "4", "--trials", "5",
         "--seed", "3", "--t-min", "4", "--t-max", "12", "--horizon", "40"),
    ]
    # Each run is a fresh `python -m gangsched` process: the bytes must not
    # depend on anything a process sets up.
    stable = True
    for command in commands:
        first = run_python("-m", "gangsched", *command)
        second = run_python("-m", "gangsched", *command)
        stable = stable and first.stdout == second.stdout
        stable = stable and first.returncode == second.returncode
    for out_dir in (gen_dir_a, gen_dir_b):
        run_python("-m", "gangsched", "gen", "--n", "3", "--m", "3", "--load", "0.5",
                   "--seed", "5", "--count", "3", "--t-min", "4", "--t-max", "12",
                   "--out", str(out_dir))
    for name in ("ts_5_0.txt", "ts_5_1.txt", "ts_5_2.txt"):
        stable = stable and (
            (gen_dir_a / name).read_bytes() == (gen_dir_b / name).read_bytes()
        )

    round_trips = 0
    for trial in range(1000):
        params = GenParams(
            n=4 + trial % 6, m=2 + trial % 3, target_load=Fraction(1 + trial % 7, 10),
            t_min=3, t_max=40, seed=31,
        )
        ts = generate_task_system(params, trial)
        if parse_task_system(print_task_system(ts)) == ts:
            round_trips += 1
    ok = stable and round_trips == 1000
    report(7, "all commands byte-stable; parse/print round-trips 1000 systems", ok)
