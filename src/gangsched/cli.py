"""Command-line front end.

Subcommands: counterexample, analyze, simulate, experiment, gen.  Every
command is deterministic given its flags and seed; reports that carry
exact rationals print them as fractions, never as rounded decimals.

Exit codes: 0 success / schedulable / no miss; 1 input error (a file,
a flag value or generation parameters), a scan longer than SCAN_GUARD
windows, or a stdout closed by its reader (with no error line); 2 not
proven / deadline miss, and argparse's own usage errors (an unknown
command or flag, a value of the wrong type); 3 inapplicable verdict
present.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Optional

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
    SYSTEM_SCHEDULABLE,
    ScanGuardError,
    TaskOutcome,
    Variant,
    analyze,
    analyze_task,
    check_condition,
    scan_upper_bound,
    system_outcome,
)
from .generator import DeadlineMode, GenParams, GenerationError, generate_task_system
from .model import TaskSystem, parse_task_system, print_task_system
from .simulator import (HorizonOverflowError, Run, ScheduleTrace, SlotAllocation, first_miss,
                        simulate_synchronous)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_PROVEN = 2
EXIT_INAPPLICABLE = 3

# Exit code of `analyze` per system outcome class; the key order is the
# order of the class columns in the `experiment` CSV.
_OUTCOME_EXIT = {
    SYSTEM_SCHEDULABLE: EXIT_OK,
    SYSTEM_NOT_PROVEN: EXIT_NOT_PROVEN,
    SYSTEM_INAPPLICABLE: EXIT_INAPPLICABLE,
}

# The "kind" of a task outcome in JSON.
_OUTCOME_KIND = {Certified: "certified", NotProven: "not_proven", Inapplicable: "inapplicable"}

EXPERIMENT_HEADER = (
    "utilization,trials,certified,not_proven,inapplicable,"
    "sim_miss,gen_errors,variant,carry_in"
)

# Default per-trial simulation cap inside `experiment`; full hyperperiods
# of log-uniform period draws are astronomically long, and the sim_miss
# column only counts misses actually observed.
EXPERIMENT_SIM_CAP = 2000

# Most rows in one piece of the `simulate` CSV: a traced `simulate` holds
# one piece of text, whatever its horizon or m.
CSV_CHUNK_ROWS = 2**18

# The heads of the CSV rows of one decade, after the slot number's tens.
_DIGITS = "0123456789"

COUNTEREXAMPLE_TEXT = "m 3\ntask 2 2 2 2\ntask 2 1 2 2\n"


def counterexample_system() -> TaskSystem:
    """Two-task system that is infeasible on three processors.

    Both tasks need two of the three processors at once, so they can
    never run together; the second task misses at time 2 although the
    non-strict window condition holds there with lhs == rhs.
    """
    return parse_task_system(COUNTEREXAMPLE_TEXT)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`... | head`): no error line, and
        # stdout on devnull so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT_ERROR
    except (
        HorizonOverflowError, ScanGuardError, GenerationError, OSError, ValueError
    ) as err:  # ValueError covers ParseError and ValidationError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR


# Built on the first `main` call, not at import, and reused for every later
# call in the process.  parse_args keeps no state between calls; the
# `func` defaults bind the cmd_* functions once, here, so replacing a
# cmd_* attribute of this module after the first call does not reach
# `main` (no test does).
@functools.cache
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
    # Task 1's interference rectangle at delta = 2.
    width, height = 2 - ts.tasks[1].wcet, ts.processors - ts.tasks[1].width + 1
    original = AnalysisConfig(variant=Variant.ORIGINAL)
    strict = AnalysisConfig(variant=Variant.STRICT)
    holds_orig, summary = check_condition(ts, 1, 2, original)
    holds_strict, _ = check_condition(ts, 1, 2, strict)
    bound = scan_upper_bound(ts, 1, CarryInStrategy.TOP_H_MINUS_ONE)
    verdict_orig = analyze_task(ts, 1, original)
    verdict_strict = analyze_task(ts, 1, strict)

    # The text report prints only values that these facts verified.
    facts = (
        ("schedule", trace.runs, ((0, 2, ((0, 0, 2),)), (2, 3, ((1, 0, 2),)))),
        ("first miss", trace.first_miss, (1, 2)),
        ("rectangle width", width, 1),
        ("rectangle height", height, 2),
        ("no-carry interference", summary.no_carry_in, (2, 0)),
        ("with-carry interference", summary.with_carry_in, (2, 0)),
        ("carry-in extras", summary.carry_in_extra, (0, 0)),
        ("carry-in bound", summary.carry_in_bound, 0),
        ("lhs", summary.lhs, 2),
        ("rhs", summary.rhs, 2),
        ("non-strict condition holds", holds_orig, True),
        ("strict condition holds", holds_strict, False),
        ("scan-interval denominator", bound, NoDeltaBound(Fraction(-1))),
        ("original verdict", verdict_orig,
         Inapplicable(task_index=1, denominator=Fraction(-1), scanned_up_to=None)),
        ("strict verdict", verdict_strict, NotProven(1, 2, 2, 2)),
    )
    problems = [f"{fact}: expected {want!r}, got {got!r}"
                for fact, got, want in facts if got != want]

    if args.json:
        payload = {
            "system": _system_json(ts),
            "simulation": _trace_json(trace),
            "interference": {
                "task": 1, "delta": 2, "width": width, "height": height, **asdict(summary),
            },
            "scan_bound": {
                "task": 1,
                "strategy": "top",
                "applicable": isinstance(bound, DeltaBound),
                "denominator": bound.denominator if isinstance(bound, NoDeltaBound) else None,
            },
            "verdicts": {
                "original": _outcome_json(verdict_orig),
                "strict": _outcome_json(verdict_strict),
            },
            "ok": not problems,
            "problems": problems,
        }
        print(json.dumps(payload, indent=2, default=str))
        return EXIT_OK if not problems else EXIT_INPUT_ERROR
    if problems:
        print("FACT MISMATCH:")
        for p in problems:
            print(f"  {p}")
        return EXIT_INPUT_ERROR

    print("counterexample task system (3 processors):")
    for t in ts.tasks:
        print(f"  task {t.index}: width={t.width} wcet={t.wcet} "
              f"deadline={t.deadline} period={t.period}")
    print()
    print("gang EDF simulation (synchronous releases, horizon 3, continuing after miss):")
    for start, end, allocation in trace.runs:
        gangs = "  ".join(f"task {task} on processors "
                          f"{','.join(map(str, range(first, first + width)))}"
                          for task, first, width in allocation)
        for slot in range(start, end):
            print(f"  slot {slot}: {gangs}")
    print(f"  first deadline miss: task {trace.first_miss[0]} at time {trace.first_miss[1]}")
    print()
    print("interference against task 1 at window length delta=2:")
    print(f"  rectangle: width={width} height={height}")
    for i in range(ts.n):
        print(f"  task {i}: no-carry={summary.no_carry_in[i]} "
              f"with-carry={summary.with_carry_in[i]} extra={summary.carry_in_extra[i]}")
    print(f"  carry-in bound (top strategy): {summary.carry_in_bound}")
    print(f"  lhs = {summary.lhs}  rhs = width*height = {summary.rhs}")
    print(f"  non-strict comparison: {summary.lhs} <= {summary.rhs} holds; "
          f"strict comparison: {summary.lhs} < {summary.rhs} fails")
    print()
    print(f"scan interval for task 1 (top strategy): denominator = {bound.denominator}")
    print(f"  original variant verdict: {_outcome_text(verdict_orig)}")
    print(f"  strict variant verdict:   {_outcome_text(verdict_strict)}")
    print()
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
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(f"variant={config.variant.value} carry-in={config.carry_in_strategy.value}")
        for outcome in verdict.per_task:
            print(f"  task {outcome.task_index}: {_outcome_text(outcome)}")
        print(f"system: {verdict.outcome_class.upper()}")
    return _OUTCOME_EXIT[verdict.outcome_class]


# --- simulate -------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    ts = _load_system(args.input)
    horizon = None if args.horizon == "auto" else _parse_horizon(args.horizon)
    if args.no_trace:
        # Only the first miss is printed.
        miss = first_miss(ts, horizon)
        chunks: Iterable[str] = ()
    else:
        trace = simulate_synchronous(ts, horizon=horizon,
                                     stop_on_miss=not args.continue_after_miss)
        miss = trace.first_miss
        chunks = _csv_chunks(trace.runs)
    trailer = () if miss is None else (f"MISS,{miss[0]},{miss[1]}\n",)
    # Written only now that the simulation has returned: an error leaves
    # --out untouched.
    _write(itertools.chain(("slot,task,processor\n",), chunks, trailer), args.out)
    return EXIT_NOT_PROVEN if miss is not None else EXIT_OK


def _csv_chunks(runs: Iterable[Run]) -> Iterator[str]:
    """The CSV rows of `runs`, in pieces of at most CSV_CHUNK_ROWS rows,
    one or more per run: whole slots where a slot has no more rows than
    that, and parts of one slot where it has.

    Every slot of a run prints the same rows after its slot number, so a
    slot is one `str(slot).join` over them.  Slots 10q..10q+9 all begin
    with `str(q)` (nothing for q = 0) and one digit, so a whole decade is
    one join over ten rows per allocated processor.  Likewise slots
    100q..100q+99 for q >= 1 begin with `str(q)` and two digits, so where
    a piece holds at least 5 * (rows + 1) such whole centuries, rows being
    the rows of one of its slots, each is one join over a table of 100
    rows per processor.  The table is built once per piece; with fewer
    centuries it costs more than the joins it saves, and the threshold
    keeps it under 2,300 items.
    """
    for start, end, allocation in runs:
        rows = sum(width for _, _, width in allocation)
        if rows:
            step = max(1, CSV_CHUNK_ROWS // rows)
            for first in range(start, end, step):
                for lo in range(0, rows, CSV_CHUNK_ROWS):
                    yield "".join(_slot_rows(first, min(end, first + step),
                                             _suffixes(allocation, lo, lo + CSV_CHUNK_ROWS)))


def _suffixes(allocation: SlotAllocation, lo: int, hi: int) -> list[str]:
    """Rows lo..hi-1 of a slot holding `allocation`, after its slot number:
    one `,task,processor` row per processor, block by block."""
    suffixes = []
    for task, first, width in allocation:
        suffixes += [f",{task},{proc}\n"
                     for proc in range(first + max(lo, 0), first + min(hi, width))]
        lo, hi = lo - width, hi - width
    return suffixes


def _slot_rows(start: int, stop: int, suffixes: list[str]) -> list[str]:
    """Rows of slots start..stop-1, each printing `suffixes` after its
    number: per slot in the partial decades at the ends, per decade between,
    and per century over the whole centuries past century 0 when there are
    at least 5 * (len(suffixes) + 1) of them."""
    slot = ["", *suffixes]
    first, last = -(-start // 10), stop // 10
    if first >= last:
        return [str(s).join(slot) for s in range(start, stop)]
    tails = [digit + suffix for digit in _DIGITS for suffix in suffixes]
    decade = ["", *tails]
    rows = [str(s).join(slot) for s in range(start, 10 * first)]
    # Century 0 prints no zero padding, so it keeps the decade join.  The
    # century table costs 100 concatenations per row of a slot, and one
    # century join replaces ten decade joins: timed, the table pays for
    # itself from about 5 * (rows + 1) centuries on.
    low, high = max(1, -(-first // 10)), last // 10
    if high - low >= 5 * len(slot):
        century = ["", *(digit + tail for digit in _DIGITS for tail in tails)]
        rows += [(str(q) if q else "").join(decade) for q in range(first, 10 * low)]
        rows += [str(c).join(century) for c in range(low, high)]
        first = 10 * high
    rows += [(str(q) if q else "").join(decade) for q in range(first, last)]
    rows += [str(s).join(slot) for s in range(10 * last, stop)]
    return rows


# --- experiment -----------------------------------------------------------

def cmd_experiment(args: argparse.Namespace) -> int:
    if args.points < 0 or args.trials < 0:
        raise ValueError("points and trials must be >= 0")
    config = _config_from(args)
    load_max = _parse_fraction("--load-max", args.load_max)
    if not (0 < load_max <= 1):
        raise ValueError("load-max must be in (0, 1]")
    # Checked once so that invalid flags fail even with no points or trials.
    params = _gen_params(args, load_max)
    horizon = EXPERIMENT_SIM_CAP if args.horizon == "auto" else _parse_horizon(args.horizon)
    lines = [EXPERIMENT_HEADER]
    for j in range(1, args.points + 1):
        load = load_max * Fraction(j, args.points)
        params = replace(params, target_load=load)
        counts = dict.fromkeys(_OUTCOME_EXIT, 0)
        sim_miss = gen_errors = 0
        for offset in range(args.trials):
            trial = (j - 1) * args.trials + offset
            try:
                ts = generate_task_system(params, trial)
            except GenerationError:
                gen_errors += 1
                continue
            counts[system_outcome(ts, config)] += 1
            if first_miss(ts, horizon) is not None:
                sim_miss += 1
        row = (_format_load(load), args.trials - gen_errors, *counts.values(), sim_miss,
               gen_errors, config.variant.value, config.carry_in_strategy.value)
        lines.append(",".join(map(str, row)))
    _write(("\n".join(lines) + "\n",), args.out)
    return EXIT_OK


def _format_load(load: Fraction) -> str:
    """Utilization point as a decimal string, exact when it terminates."""
    cents = load * 100
    if cents.denominator == 1:
        return f"{cents.numerator // 100}.{cents.numerator % 100:02d}"
    return str(load)


# --- gen ------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise ValueError("count must be >= 0")
    params = _gen_params(args, _parse_fraction("--load", args.load))
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


def _parse_fraction(flag: str, value: str) -> Fraction:
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
    except ValueError:
        raise ValueError(f"{flag} must be a fraction such as 0.5 or 3/5, got {value!r}") from None


def _parse_horizon(value: str) -> int:
    try:
        horizon = int(value)
    except ValueError:
        raise ValueError(f"--horizon must be 'auto' or an integer, got {value!r}") from None
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    return horizon


def _write(chunks: Iterable[str], out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _outcome_text(outcome: TaskOutcome) -> str:
    if isinstance(outcome, Certified):
        return f"Certified (windows scanned up to {outcome.scanned_up_to})"
    if isinstance(outcome, NotProven):
        return (f"NotProven (witness delta={outcome.witness_delta}: "
                f"lhs {outcome.lhs} vs rhs {outcome.rhs})")
    scan = ("published test undefined here" if outcome.scanned_up_to is None
            else f"no violation scanning windows up to {outcome.scanned_up_to}")
    return f"Inapplicable (scan-interval denominator {outcome.denominator}; {scan})"


def _outcome_json(outcome: TaskOutcome) -> dict:
    """The outcome's fields after its task and kind; a Fraction is left to
    json.dumps(default=str)."""
    fields = asdict(outcome)
    return {"task": fields.pop("task_index"), "kind": _OUTCOME_KIND[type(outcome)], **fields}


def _system_json(ts: TaskSystem) -> dict:
    return {"m": ts.processors, "tasks": [asdict(t) for t in ts.tasks]}


def _trace_json(trace: ScheduleTrace) -> dict:
    return {
        "horizon": trace.horizon,
        "slots": [
            [[task, list(range(first, first + width))] for task, first, width in allocation]
            for start, end, allocation in trace.runs for _ in range(start, end)
        ],
        "first_miss": None
        if trace.first_miss is None
        else {"task": trace.first_miss[0], "deadline": trace.first_miss[1]},
    }


if __name__ == "__main__":
    sys.exit(main())
