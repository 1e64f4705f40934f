"""The benchmark's seeded workloads and the checks on their outputs.

Every operation is one in-process call of `gangsched.cli.main` with an
argument list, made by a single caller in a closed loop.  A workload's
set-up writes its input files and returns the operations of one pass;
the inputs depend only on the seed and the size.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from gangsched import cli
from gangsched.analysis import (AnalysisConfig, CarryInStrategy, DeltaBound, Variant,
                                check_condition, scan_upper_bound)
from gangsched.model import GangTask, TaskSystem, parse_task_system

# Problem sizes; "tiny" is for the smoke test.
# A sweep is split into several `experiment` commands (commands, trials
# each), each with its own seed, so that a burst of machine noise
# touches one short command and not the whole sweep.
SIZES = {
    "full": {"sweep_original": (10, 5), "sims": 2, "horizon": 100_000, "period": 1_000_000},
    "tiny": {"sweep_original": (1, 1), "sims": 1, "horizon": 2_000, "period": 1_000},
}

EXIT_INPUT_ERROR = 1
EXIT_FOR_OUTCOME = {"schedulable": 0, "not_proven": 2, "inapplicable": 3}
EXPERIMENT_HEADER = ("utilization,trials,certified,not_proven,inapplicable,"
                     "sim_miss,gen_errors,variant,carry_in")
SIMULATE_HEADER = "slot,task,processor"

# Checks an operation's exit code and stdout; returns the number of task
# systems it carried to a verdict or simulation, and any problems found.
Check = Callable[[int, str], "tuple[int, list[str]]"]


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: Check
    seeded: bool = True  # False: the same input and output at every seed


@dataclass(frozen=True)
class Result:
    code: Optional[int]  # None when the command raised
    out: str
    error: Optional[str]  # why the operation failed, None if it did not
    seconds: float


def call(argv: Sequence[str], command: Optional[Callable] = None) -> Result:
    """Run one CLI command in-process with its output captured.

    `command(fn, argv)` lets a tracer put a span around the call.  An
    exception, a usage error or exit code 1 is a failed operation.
    """
    out, err = io.StringIO(), io.StringIO()
    code: Optional[int] = None
    error: Optional[str] = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = command(cli.main, list(argv)) if command else cli.main(list(argv))
    except SystemExit as exc:
        error = f"SystemExit({exc.code}): {err.getvalue().strip()[-200:]}"
    except Exception as exc:  # the operation fails; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if error is None and code == EXIT_INPUT_ERROR:
        error = f"exit 1: {err.getvalue().strip()[:200]}"
    return Result(code, out.getvalue(), error, seconds)


def output_digest(result: Result) -> str:
    """Short sha256 of an operation's exit code and output."""
    return hashlib.sha256(f"{result.code}\n{result.out}".encode()).hexdigest()[:16]


# --- checks -----------------------------------------------------------------

def check_experiment(points: int, trials: int, variant: str) -> Check:
    def check(code: int, out: str) -> tuple[int, list[str]]:
        problems = [] if code == 0 else [f"exit code {code}"]
        lines = out.splitlines()
        if not lines or lines[0] != EXPERIMENT_HEADER:
            return 0, problems + ["missing CSV header"]
        rows = lines[1:]
        if len(rows) != points:
            problems.append(f"{len(rows)} rows for {points} points")
        systems = 0
        for row in rows:
            f = row.split(",")
            analyzed, cert, not_proven, inapplicable, miss, gen_errors = map(int, f[1:7])
            if analyzed + gen_errors != trials or cert + not_proven + inapplicable != analyzed:
                problems.append(f"counts do not add up to {trials} trials: {row}")
            if not 0 <= miss <= analyzed or f[7:] != [variant, "top"]:
                problems.append(f"bad row: {row}")
            systems += analyzed
        return systems, problems
    return check


def check_analyze(code: int, out: str) -> tuple[int, list[str]]:
    """Re-evaluate the window condition at every reported witness and end."""
    payload = json.loads(out)
    ts = TaskSystem(
        processors=payload["system"]["m"],
        tasks=tuple(GangTask(**t) for t in payload["system"]["tasks"]),
    )
    config = AnalysisConfig(
        variant=Variant(payload["variant"]),
        carry_in_strategy=CarryInStrategy(payload["carry_in"]),
    )
    problems = []
    kinds = set()
    for o in payload["tasks"]:
        k, kind = o["task"], o["kind"]
        kinds.add(kind)
        first = ts.tasks[k].deadline
        if kind == "not_proven":
            delta = o["witness_delta"]
            holds, summary = check_condition(ts, k, max(delta, first), config)
            if delta < first or holds or (summary.lhs, summary.rhs) != (o["lhs"], o["rhs"]):
                problems.append(f"task {k}: witness {delta} does not violate the condition")
        elif o["scanned_up_to"] is not None and o["scanned_up_to"] >= first:
            if not check_condition(ts, k, o["scanned_up_to"], config)[0]:
                problems.append(f"task {k}: condition fails at {o['scanned_up_to']}")
        if kind == "certified":
            # A certified scan must run to the end of the scan interval.
            bound = scan_upper_bound(ts, k, config.carry_in_strategy)
            if not isinstance(bound, DeltaBound) or o["scanned_up_to"] != math.ceil(bound.value):
                problems.append(f"task {k}: certified scan ends at {o['scanned_up_to']}, "
                                "not at the scan bound")
    outcome = ("inapplicable" if "inapplicable" in kinds
               else "not_proven" if "not_proven" in kinds else "schedulable")
    if payload["outcome"] != outcome or payload["schedulable"] != (outcome == "schedulable"):
        problems.append(f"system outcome {payload['outcome']} for task kinds {sorted(kinds)}")
    if code != EXIT_FOR_OUTCOME[outcome]:
        problems.append(f"exit code {code} for outcome {outcome}")
    return 1, problems


def check_simulate(ts: TaskSystem, horizon: int, traced: bool, misses: dict, key: object,
                   must_miss: bool = False) -> Check:
    """Check a simulate CSV: every slot a valid gang allocation, a miss
    line when `must_miss`, and the same miss with and without the
    per-slot rows (`misses` is shared by both runs of one system)."""
    def check(code: int, out: str) -> tuple[int, list[str]]:
        lines = (line.rstrip("\n") for line in io.StringIO(out))
        if next(lines, None) != SIMULATE_HEADER:
            return 0, ["missing CSV header"]
        miss: list[str] = []

        def rows():
            for line in lines:
                if miss:
                    raise ValueError(f"row {line!r} after the miss line")
                if line.startswith("MISS,"):
                    miss.append(line)
                else:
                    yield tuple(map(int, line.split(",")))

        problems = []
        previous = -1
        for slot, group in itertools.groupby(rows(), key=lambda row: row[0]):
            processors = []
            held: dict[int, int] = {}
            for _, task, proc in group:
                processors.append(proc)
                held[task] = held.get(task, 0) + 1
            if not traced or not previous < slot < horizon:
                problems.append(f"unexpected rows for slot {slot}")
            if len(set(processors)) != len(processors) or not all(
                    0 <= p < ts.processors for p in processors):
                problems.append(f"slot {slot}: processors {processors}")
            # Two jobs of one task can share a slot once a job is tardy.
            if any(held[t] % ts.tasks[t].width for t in held):
                problems.append(f"slot {slot}: a job does not hold its width")
            if problems:
                break
            previous = slot
        found = miss[0] if miss else None
        if must_miss and not found:
            problems.append("no miss line for a system that must miss")
        if code != (2 if found else 0):
            problems.append(f"exit code {code} with miss line {found}")
        if misses.setdefault(key, found) != found:
            problems.append(f"miss {found} differs from {misses[key]} of the other run")
        return 1, problems
    return check


# --- workloads --------------------------------------------------------------

def setup_sweep_original(work: Path, seed: int, size: dict) -> list[Op]:
    commands, trials = size["sweep_original"]
    flags = ("--n", "10", "--m", "6", "--points", "20", "--load-max", "0.4",
             "--variant", "original", "--carry-in", "top", "--horizon", "200")
    return [Op(f"experiment-{i}",
               ("experiment", *flags, "--trials", str(trials), "--seed", str(seed * 16 + i)),
               check_experiment(20, trials, "original"))
            for i in range(commands)]


# Simulated large-period systems: periods come from the seed, log-uniform
# between size["period"] / 100 and size["period"].  Every task is two
# processors wide and together they ask for more than the platform, so
# each slot of the horizon runs two jobs and the trace holds the same
# number of entries whatever the seed.  Deadlines equal the wcets, and
# SIM_EARLY tasks have periods short enough that their first deadline
# falls inside the horizon: at slot 0 only two of them can run, so the
# third misses its first deadline whatever the seed.
SIM_WIDTHS = (2, 2, 2, 2, 2)
SIM_PROCESSORS = 4
SIM_LOAD = 1.2  # processor time asked for, as a share of the platform
SIM_EARLY = 3


def large_period_system(seed: int, i: int, size: dict) -> str:
    rng = random.Random(f"large-period {seed} {i}")
    lines = [f"m {SIM_PROCESSORS}"]
    lo, hi = size["period"] // 100, size["period"]
    for j, width in enumerate(SIM_WIDTHS):
        share = SIM_LOAD * SIM_PROCESSORS / len(SIM_WIDTHS) / width
        top = min(hi, int(size["horizon"] / share)) if j < SIM_EARLY else hi
        period = round(math.exp(rng.uniform(math.log(lo), math.log(top))))
        wcet = round(share * period)
        lines.append(f"task {width} {wcet} {wcet} {period}")
    return "\n".join(lines) + "\n"


def setup_large_period(work: Path, seed: int, size: dict) -> list[Op]:
    period = size["period"]
    certified = work / "dense.txt"
    certified.write_text(f"m 4\ntask 1 1 {period} {period}\n"
                         f"task 4 {period * 99 // 100} {period * 99 // 100} {period}\n")
    # Near-zero scan-bound denominator: the scan trips SCAN_GUARD.  This is
    # a known defect, counted as a failed operation on purpose.
    guard = work / "guard.txt"
    guard.write_text("m 4\ntask 1 1 1000000 1000000\ntask 4 999999 999999 1000000\n")
    ops = [Op("analyze-dense", ("analyze", "--input", str(certified), "--json"), check_analyze,
              seeded=False),
           Op("analyze-guard", ("analyze", "--input", str(guard), "--json"), check_analyze,
              seeded=False)]
    misses: dict = {}
    horizon = size["horizon"]
    for i in range(size["sims"]):
        path = work / f"sim-{i}.txt"
        text = large_period_system(seed, i, size)
        path.write_text(text)
        ts = parse_task_system(text)
        argv = ("simulate", "--input", str(path), "--horizon", str(horizon),
                "--continue-after-miss")
        ops.append(Op(f"simulate-{i}", argv, check_simulate(ts, horizon, True, misses, i, True)))
        ops.append(Op(f"simulate-{i}-no-trace", argv + ("--no-trace",),
                      check_simulate(ts, horizon, False, misses, i, True)))
    return ops


# Workload name -> set-up; why each exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "sweep-original": setup_sweep_original,
    "large-period": setup_large_period,
}
