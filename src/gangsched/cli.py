"""Command-line front end.

Subcommands: counterexample, analyze, simulate, experiment, gen.  Every
command is deterministic given its flags and seed; reports that carry
exact rationals print them as fractions, never as rounded decimals.

Exit codes: 0 success / schedulable / no miss; 1 input or usage error,
or a scan longer than SCAN_GUARD windows; 2 not proven / deadline miss;
3 inapplicable verdict present.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .analysis import (
    AnalysisConfig,
    CarryInStrategy,
    Certified,
    DeltaBound,
    Inapplicable,
    NoDeltaBound,
    NotProven,
    SYSTEM_INAPPLICABLE,
    SYSTEM_NOT_PROVEN,
    ScanGuardError,
    Variant,
    analyze,
    analyze_task,
    check_condition,
    interference_rectangle,
    scan_upper_bound,
)
from .generator import DeadlineMode, GenParams, GenerationError, generate_task_system
from .model import (
    GangTask,
    TaskSystem,
    parse_task_system,
    print_task_system,
)
from .simulator import (
    HorizonOverflowError,
    ScheduleTrace,
    simulate_synchronous,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_PROVEN = 2
EXIT_INAPPLICABLE = 3

EXPERIMENT_HEADER = (
    "utilization,trials,certified,not_proven,inapplicable,"
    "sim_miss,gen_errors,variant,carry_in"
)

# Default per-trial simulation cap inside `experiment`; full hyperperiods
# of log-uniform period draws are astronomically long, and the sim_miss
# column only counts misses actually observed.
EXPERIMENT_SIM_CAP = 2000


def counterexample_system() -> TaskSystem:
    """Two-task system that is infeasible on three processors.

    Both tasks need two of the three processors at once, so they can
    never run together; the second task misses at time 2 although the
    non-strict window condition holds there with lhs == rhs.
    """
    return TaskSystem(
        processors=3,
        tasks=(
            GangTask(index=0, width=2, wcet=2, deadline=2, period=2),
            GangTask(index=1, width=2, wcet=1, deadline=2, period=2),
        ),
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        HorizonOverflowError, ScanGuardError, GenerationError, OSError, ValueError
    ) as err:  # ValueError covers ParseError and ValidationError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gangsched",
        description="Gang EDF schedulability analysis, simulation and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("counterexample", help="reproduce the built-in counterexample")
    p.add_argument("--json", action="store_true", help="emit the facts as JSON")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("analyze", help="run the schedulability test on a task-set file")
    p.add_argument("--input", required=True, help="task-set file")
    _add_analysis_flags(p)
    p.add_argument("--json", action="store_true", help="emit the verdict as JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="simulate the synchronous scenario, emit a CSV trace")
    p.add_argument("--input", required=True, help="task-set file")
    p.add_argument("--horizon", default="auto", help="slots to simulate, or 'auto' (one hyperperiod)")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.add_argument("--no-trace", action="store_true", help="suppress per-slot rows, keep the miss trailer")
    p.add_argument("--continue-after-miss", action="store_true", help="keep scheduling after the first miss")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="utilization sweep: analysis verdict counts per point")
    p.add_argument("--n", type=int, default=10, help="tasks per system")
    p.add_argument("--m", type=int, default=6, help="processors")
    p.add_argument("--points", type=int, default=20,
                   help="utilization points: j*load-max/points for j=1..points")
    p.add_argument("--load-max", default="1", dest="load_max",
                   help="top of the utilization sweep as a fraction of capacity")
    p.add_argument("--trials", type=int, default=100, help="systems per point")
    p.add_argument("--seed", type=int, default=0)
    _add_analysis_flags(p)
    _add_generation_flags(p)
    p.add_argument("--horizon", default="auto",
                   help=f"per-trial sim slots, or 'auto' (hyperperiod capped at {EXPERIMENT_SIM_CAP})")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("gen", help="write random task-set files")
    p.add_argument("--n", type=int, required=True, help="tasks per system")
    p.add_argument("--m", type=int, required=True, help="processors")
    p.add_argument("--load", default="0.5", help="fraction of platform capacity, e.g. 0.5 or 3/5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1, help="number of files")
    p.add_argument("--out", required=True, help="output directory")
    _add_generation_flags(p)
    p.set_defaults(func=cmd_gen)

    return parser


def _add_analysis_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=["original", "strict"], default="strict",
                   help="non-strict published comparison or strict fix (default strict)")
    p.add_argument("--carry-in", choices=["top", "all"], default="top", dest="carry_in",
                   help="carry-in aggregation: h-1 largest contributions or all tasks")
    p.add_argument("--delta-cap", type=int, default=None, dest="delta_cap",
                   help="refutation-scan limit when the scan interval is undefined")


def _add_generation_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-min", type=int, default=10, dest="t_min")
    p.add_argument("--t-max", type=int, default=1000, dest="t_max")
    p.add_argument("--deadline-mode", choices=["implicit", "constrained"],
                   default="constrained", dest="deadline_mode")


def _config_from(args: argparse.Namespace) -> AnalysisConfig:
    return AnalysisConfig(
        variant=Variant(args.variant),
        carry_in_strategy=CarryInStrategy(args.carry_in),
        delta_cap=args.delta_cap,
    )


def _gen_params(args: argparse.Namespace, load: Fraction) -> GenParams:
    return GenParams(
        n=args.n,
        m=args.m,
        target_load=load,
        t_min=args.t_min,
        t_max=args.t_max,
        deadline_mode=DeadlineMode(args.deadline_mode),
        seed=args.seed,
    )


# --- counterexample -------------------------------------------------------

def cmd_counterexample(args: argparse.Namespace) -> int:
    ts = counterexample_system()
    trace = simulate_synchronous(ts, horizon=3, stop_on_miss=False)
    point = interference_rectangle(ts, 1, 2)
    original = AnalysisConfig(variant=Variant.ORIGINAL)
    strict = AnalysisConfig(variant=Variant.STRICT)
    holds_orig, summary = check_condition(ts, 1, 2, original)
    holds_strict, _ = check_condition(ts, 1, 2, strict)
    bound = scan_upper_bound(ts, 1, CarryInStrategy.TOP_H_MINUS_ONE)
    verdict_orig = analyze_task(ts, 1, original)
    verdict_strict = analyze_task(ts, 1, strict)

    problems: list[str] = []

    def expect(fact: str, got, want) -> None:
        if got != want:
            problems.append(f"{fact}: expected {want!r}, got {got!r}")

    expect("slot 0 allocation", trace.slots[0], ((0, (0, 1)),))
    expect("slot 1 allocation", trace.slots[1], ((0, (0, 1)),))
    expect("late execution in slot 2", trace.slots[2], ((1, (0, 1)),))
    expect("first miss", trace.first_miss, (1, 2))
    expect("rectangle width", point.width, 1)
    expect("rectangle height", point.height, 2)
    expect("no-carry interference", summary.no_carry_in, (2, 0))
    expect("with-carry interference", summary.with_carry_in, (2, 0))
    expect("carry-in extras", summary.carry_in_extra, (0, 0))
    expect("carry-in bound", summary.carry_in_bound, 0)
    expect("lhs", summary.lhs, 2)
    expect("rhs", summary.rhs, 2)
    expect("non-strict condition holds", holds_orig, True)
    expect("strict condition holds", holds_strict, False)
    expect("scan-interval denominator", bound, NoDeltaBound(Fraction(-1)))
    expect("original verdict", verdict_orig,
           Inapplicable(task_index=1, denominator=Fraction(-1), scanned_up_to=None))
    expect("strict verdict kind", type(verdict_strict).__name__, "NotProven")
    if isinstance(verdict_strict, NotProven):
        expect("strict witness delta", verdict_strict.witness_delta, 2)

    if args.json:
        payload = {
            "system": _system_json(ts),
            "simulation": _trace_json(trace),
            "interference": {
                "task": 1,
                "delta": 2,
                "width": point.width,
                "height": point.height,
                "no_carry_in": list(summary.no_carry_in),
                "with_carry_in": list(summary.with_carry_in),
                "carry_in_extra": list(summary.carry_in_extra),
                "carry_in_bound": summary.carry_in_bound,
                "lhs": summary.lhs,
                "rhs": summary.rhs,
            },
            "scan_bound": {
                "task": 1,
                "strategy": "top",
                "applicable": isinstance(bound, DeltaBound),
                "denominator": str(bound.denominator)
                if isinstance(bound, NoDeltaBound) else None,
            },
            "verdicts": {
                "original": _outcome_json(verdict_orig),
                "strict": _outcome_json(verdict_strict),
            },
            "ok": not problems,
            "problems": problems,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK if not problems else EXIT_INPUT_ERROR

    print("counterexample task system (3 processors):")
    for t in ts.tasks:
        print(f"  task {t.index}: width={t.width} wcet={t.wcet} "
              f"deadline={t.deadline} period={t.period}")
    print()
    print("gang EDF simulation (synchronous releases, horizon 3, continuing after miss):")
    for slot, allocation in enumerate(trace.slots):
        if allocation:
            runs = "  ".join(
                f"task {task} on processors {','.join(map(str, procs))}"
                for task, procs in allocation
            )
        else:
            runs = "idle"
        print(f"  slot {slot}: {runs}")
    miss_task, miss_deadline = trace.first_miss
    print(f"  first deadline miss: task {miss_task} at time {miss_deadline}")
    print()
    print("interference against task 1 at window length delta=2:")
    print(f"  rectangle: width={point.width} height={point.height}")
    for i in range(ts.n):
        print(f"  task {i}: no-carry={summary.no_carry_in[i]} "
              f"with-carry={summary.with_carry_in[i]} extra={summary.carry_in_extra[i]}")
    print(f"  carry-in bound (top strategy): {summary.carry_in_bound}")
    print(f"  lhs = {summary.lhs}  rhs = width*height = {summary.rhs}")
    print(f"  non-strict comparison: {summary.lhs} <= {summary.rhs} holds; "
          f"strict comparison: {summary.lhs} < {summary.rhs} fails")
    print()
    assert isinstance(bound, NoDeltaBound)
    print(f"scan interval for task 1 (top strategy): denominator = {bound.denominator}")
    print(f"  original variant verdict: {_outcome_text(verdict_orig)}")
    print(f"  strict variant verdict:   {_outcome_text(verdict_strict)}")
    print()
    if problems:
        print("FACT MISMATCH:")
        for p in problems:
            print(f"  {p}")
        return EXIT_INPUT_ERROR
    print("all facts reproduced exactly: OK")
    return EXIT_OK


# --- analyze --------------------------------------------------------------

def cmd_analyze(args: argparse.Namespace) -> int:
    ts = _load_system(args.input)
    config = _config_from(args)
    verdict = analyze(ts, config)
    if args.json:
        payload = {
            "system": _system_json(ts),
            "variant": config.variant.value,
            "carry_in": config.carry_in_strategy.value,
            "tasks": [_outcome_json(o) for o in verdict.per_task],
            "outcome": verdict.outcome_class,
            "schedulable": verdict.schedulable,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"variant={config.variant.value} carry-in={config.carry_in_strategy.value}")
        for outcome in verdict.per_task:
            print(f"  task {outcome.task_index}: {_outcome_text(outcome)}")
        print(f"system: {verdict.outcome_class.upper()}")
    if verdict.outcome_class == SYSTEM_INAPPLICABLE:
        return EXIT_INAPPLICABLE
    if verdict.outcome_class == SYSTEM_NOT_PROVEN:
        return EXIT_NOT_PROVEN
    return EXIT_OK


# --- simulate -------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    ts = _load_system(args.input)
    horizon = None if args.horizon == "auto" else _parse_horizon(args.horizon)
    trace = simulate_synchronous(
        ts, horizon=horizon, stop_on_miss=not args.continue_after_miss
    )
    parts = ["slot,task,processor\n"]
    if not args.no_trace:
        for start, end, allocation in trace.runs:
            # One row per (task, processor), the slot number filled in per slot.
            rows = "".join(
                f"{{0}},{task},{proc}\n" for task, procs in allocation for proc in procs
            )
            if rows:
                parts.extend(map(rows.format, range(start, end)))
    if trace.first_miss is not None:
        task, deadline = trace.first_miss
        parts.append(f"MISS,{task},{deadline}\n")
    _write_text("".join(parts), args.out)
    return EXIT_NOT_PROVEN if trace.first_miss is not None else EXIT_OK


# --- experiment -----------------------------------------------------------

def cmd_experiment(args: argparse.Namespace) -> int:
    if args.points < 0 or args.trials < 0:
        raise ValueError("points and trials must be >= 0")
    config = _config_from(args)
    load_max = Fraction(args.load_max)
    if not (0 < load_max <= 1):
        raise ValueError("load-max must be in (0, 1]")
    lines = [EXPERIMENT_HEADER]
    for j in range(1, args.points + 1):
        load = load_max * Fraction(j, args.points)
        params = _gen_params(args, load)
        certified = not_proven = inapplicable = sim_miss = gen_errors = 0
        for offset in range(args.trials):
            trial = (j - 1) * args.trials + offset
            try:
                ts = generate_task_system(params, trial)
            except GenerationError:
                gen_errors += 1
                continue
            outcome = analyze(ts, config).outcome_class
            if outcome == SYSTEM_INAPPLICABLE:
                inapplicable += 1
            elif outcome == SYSTEM_NOT_PROVEN:
                not_proven += 1
            else:
                certified += 1
            if _experiment_miss(ts, args.horizon):
                sim_miss += 1
        analyzed = args.trials - gen_errors
        lines.append(
            f"{_format_load(load)},{analyzed},{certified},{not_proven},"
            f"{inapplicable},{sim_miss},{gen_errors},"
            f"{config.variant.value},{config.carry_in_strategy.value}"
        )
    _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _experiment_miss(ts: TaskSystem, horizon_flag: str) -> bool:
    if horizon_flag == "auto":
        horizon = min(math.lcm(*(t.period for t in ts.tasks)), EXPERIMENT_SIM_CAP)
    else:
        horizon = _parse_horizon(horizon_flag)
    return simulate_synchronous(ts, horizon=horizon).first_miss is not None


def _format_load(load: Fraction) -> str:
    """Utilization point as a decimal string, exact when it terminates."""
    cents = load * 100
    if cents.denominator == 1:
        return f"{cents.numerator // 100}.{cents.numerator % 100:02d}"
    return str(load)


# --- gen ------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    params = _gen_params(args, Fraction(args.load))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for trial in range(args.count):
        try:
            ts = generate_task_system(params, trial)
        except GenerationError as err:
            failures += 1
            print(f"trial {trial}: generation failed: {err}", file=sys.stderr)
            continue
        path = out_dir / f"ts_{params.seed}_{trial}.txt"
        path.write_text(print_task_system(ts), encoding="utf-8")
        print(path)
    return EXIT_OK if failures < max(args.count, 1) else EXIT_INPUT_ERROR


# --- shared helpers -------------------------------------------------------

def _load_system(path: str) -> TaskSystem:
    text = Path(path).read_text(encoding="utf-8")
    return parse_task_system(text)


def _parse_horizon(value: str) -> int:
    horizon = int(value)
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    return horizon


def _write_text(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _outcome_text(outcome) -> str:
    if isinstance(outcome, Certified):
        return f"Certified (windows scanned up to {outcome.scanned_up_to})"
    if isinstance(outcome, NotProven):
        s = outcome.summary
        return (f"NotProven (witness delta={outcome.witness_delta}: "
                f"lhs {s.lhs} vs rhs {s.rhs})")
    if isinstance(outcome, Inapplicable):
        if outcome.scanned_up_to is None:
            return (f"Inapplicable (scan-interval denominator {outcome.denominator}; "
                    f"published test undefined here)")
        return (f"Inapplicable (scan-interval denominator {outcome.denominator}; "
                f"no violation scanning windows up to {outcome.scanned_up_to})")
    raise TypeError(f"unknown outcome {outcome!r}")


def _outcome_json(outcome) -> dict:
    if isinstance(outcome, Certified):
        return {
            "task": outcome.task_index,
            "kind": "certified",
            "scanned_up_to": outcome.scanned_up_to,
        }
    if isinstance(outcome, NotProven):
        return {
            "task": outcome.task_index,
            "kind": "not_proven",
            "witness_delta": outcome.witness_delta,
            "lhs": outcome.summary.lhs,
            "rhs": outcome.summary.rhs,
        }
    if isinstance(outcome, Inapplicable):
        return {
            "task": outcome.task_index,
            "kind": "inapplicable",
            "denominator": str(outcome.denominator),
            "scanned_up_to": outcome.scanned_up_to,
        }
    raise TypeError(f"unknown outcome {outcome!r}")


def _system_json(ts: TaskSystem) -> dict:
    return {
        "m": ts.processors,
        "tasks": [
            {
                "index": t.index,
                "width": t.width,
                "wcet": t.wcet,
                "deadline": t.deadline,
                "period": t.period,
            }
            for t in ts.tasks
        ],
    }


def _trace_json(trace: ScheduleTrace) -> dict:
    return {
        "horizon": trace.horizon,
        "slots": [
            [[task, list(procs)] for task, procs in allocation]
            for allocation in trace.slots
        ],
        "first_miss": None
        if trace.first_miss is None
        else {"task": trace.first_miss[0], "deadline": trace.first_miss[1]},
    }


if __name__ == "__main__":
    sys.exit(main())
