import collections
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gangsched import cli, simulator
from gangsched.analysis import Certified, DeltaBound, Inapplicable, NotProven, analyze
from gangsched.model import parse_task_system, print_task_system
from gangsched.simulator import simulate_synchronous

from oracles import (ALL_CONFIGS, COUNTEREXAMPLE_TEXT, DENSE_TEXT, GUARD_TEXT, REFUTED_THEN_CLEAN,
                     csv_rows, main_in_process, outcome_systems, record_points, record_walks,
                     run_python)

SINGLE_OK_TEXT = "m 2\ntask 1 1 2 4\n"


@pytest.fixture
def cx_file(tmp_path):
    path = tmp_path / "cx.txt"
    path.write_text(COUNTEREXAMPLE_TEXT)
    return str(path)


@pytest.fixture
def ok_file(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text(SINGLE_OK_TEXT)
    return str(path)


# --- counterexample ---------------------------------------------------------

def test_counterexample_reproduces_and_exits_zero():
    code, out, _ = main_in_process("counterexample")
    assert code == 0
    assert "all facts reproduced exactly: OK" in out
    assert "first deadline miss: task 1 at time 2" in out
    assert "denominator = -1" in out


def test_counterexample_json_facts():
    code, out, _ = main_in_process("counterexample", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["simulation"]["first_miss"] == {"task": 1, "deadline": 2}
    assert payload["interference"]["no_carry_in"] == [2, 0]
    assert payload["interference"]["lhs"] == 2
    assert payload["interference"]["rhs"] == 2
    assert payload["scan_bound"]["denominator"] == "-1"
    assert payload["verdicts"]["original"]["kind"] == "inapplicable"
    assert payload["verdicts"]["strict"] == {
        "task": 1, "kind": "not_proven", "witness_delta": 2, "lhs": 2, "rhs": 2,
    }


def _no_miss(ts, horizon, stop_on_miss):
    return replace(simulate_synchronous(ts, horizon, stop_on_miss), first_miss=None)


def _two_slots(ts, horizon, stop_on_miss):
    return simulate_synchronous(ts, 2, stop_on_miss)


@pytest.mark.parametrize("name, fake, facts", [
    ("simulate_synchronous", _no_miss, ["first miss"]),
    ("simulate_synchronous", _two_slots, ["schedule"]),
    ("scan_upper_bound", lambda ts, k, strategy: DeltaBound(Fraction(5)),
     ["scan-interval denominator"]),
    ("analyze_task", lambda ts, k, config: Certified(k, 2),
     ["original verdict", "strict verdict"]),
], ids=["no-miss", "two-slots", "delta-bound", "certified"])
def test_counterexample_reports_each_deviation_before_any_report(monkeypatch, name, fake,
                                                                 facts):
    monkeypatch.setattr(cli, name, fake)
    code, out, err = main_in_process("counterexample", "--json")
    payload = json.loads(out)
    assert (code, err, payload["ok"]) == (1, "", False)
    assert [p.split(":")[0] for p in payload["problems"]] == facts
    # Text mode prints the same problems and no part of the report.
    assert main_in_process("counterexample") == (
        1, "".join(["FACT MISMATCH:\n", *(f"  {p}\n" for p in payload["problems"])]), "")


# --- analyze ----------------------------------------------------------------

def test_analyze_original_reports_inapplicable(cx_file):
    code, out, _ = main_in_process("analyze", "--input", cx_file, "--variant", "original")
    assert code == 3
    assert "denominator -1" in out
    assert "INAPPLICABLE" in out


def test_analyze_strict_reports_witness(cx_file):
    code, out, _ = main_in_process("analyze", "--input", cx_file, "--variant", "strict")
    assert code == 2
    assert "witness delta=2" in out


def test_analyze_certifies_light_task(ok_file):
    code, out, _ = main_in_process("analyze", "--input", ok_file, "--variant", "strict")
    assert code == 0
    assert "SCHEDULABLE" in out


def test_analyze_json(cx_file):
    _, out, _ = main_in_process("analyze", "--input", cx_file, "--variant", "original", "--json")
    payload = json.loads(out)
    assert payload["outcome"] == "inapplicable"
    assert payload["tasks"][1]["denominator"] == "-1"


def test_analyze_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("m 3\ntask 2 9 2 2\n")  # wcet > deadline
    code, _, err = main_in_process("analyze", "--input", str(bad))
    assert code == 1
    assert err.strip()


def test_analyze_missing_file():
    code, _, _ = main_in_process("analyze", "--input", "/nonexistent/x.txt")
    assert code == 1


def test_analyze_scan_over_guard_is_a_one_line_error(tmp_path):
    # Near-zero positive denominator: task 0's scan runs to about 3.3e11.
    path = tmp_path / "guard.txt"
    path.write_text(GUARD_TEXT)
    for flags in ((), ("--json",)):
        code, out, err = main_in_process("analyze", "--input", str(path), *flags)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "exceeds guard" in lines[0]


OUTCOME_TYPES = {"certified": Certified, "not_proven": NotProven, "inapplicable": Inapplicable}


def outcome_from_json(record: dict):
    """The task outcome an `analyze --json` record describes."""
    fields = dict(record)
    kind, fields["task_index"] = fields.pop("kind"), fields.pop("task")
    if "denominator" in fields:
        fields["denominator"] = Fraction(fields["denominator"])
    return OUTCOME_TYPES[kind](**fields)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(outcome_systems(), st.one_of(st.none(), st.integers(1, 30)))
@example(REFUTED_THEN_CLEAN, 4)  # denominator -13/14
def test_analyze_json_rebuilds_the_outcomes_of_analyze(tmp_path, ts, delta_cap):
    path = tmp_path / "ts.txt"
    path.write_text(print_task_system(ts))
    for config in ALL_CONFIGS:
        config = replace(config, delta_cap=delta_cap)
        cap = () if delta_cap is None else ("--delta-cap", str(delta_cap))
        code, out, err = main_in_process(
            "analyze", "--input", str(path), "--variant", config.variant.value,
            "--carry-in", config.carry_in_strategy.value, *cap, "--json")
        verdict = analyze(ts, config)
        payload = json.loads(out)
        assert [outcome_from_json(r) for r in payload["tasks"]] == list(verdict.per_task)
        assert (code, err) == (cli._OUTCOME_EXIT[verdict.outcome_class], "")


# --- simulate ---------------------------------------------------------------

def test_simulate_emits_trace_and_miss_trailer(cx_file):
    code, out, _ = main_in_process("simulate", "--input", cx_file)
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "slot,task,processor"
    assert lines[1:5] == ["0,0,0", "0,0,1", "1,0,0", "1,0,1"]
    assert lines[-1] == "MISS,1,2"


def test_simulate_clean_system_exits_zero(ok_file):
    code, out, _ = main_in_process("simulate", "--input", ok_file)
    assert code == 0
    assert "MISS" not in out
    assert "0,0,0" in out.splitlines()


def test_simulate_zero_horizon(cx_file):
    code, out, _ = main_in_process("simulate", "--input", cx_file, "--horizon", "0")
    assert code == 0
    assert out == "slot,task,processor\n"


def test_simulate_no_trace_keeps_trailer(cx_file):
    _, out, _ = main_in_process("simulate", "--input", cx_file, "--no-trace")
    assert out == "slot,task,processor\nMISS,1,2\n"


def test_simulate_continue_after_miss(cx_file):
    _, out, _ = main_in_process("simulate", "--input", cx_file, "--horizon", "3",
                                "--continue-after-miss")
    lines = out.splitlines()
    assert "2,1,0" in lines and "2,1,1" in lines  # late run of task 1
    assert lines[-1] == "MISS,1,2"


def simulate_at_most(monkeypatch, slots: int) -> None:
    """Make every simulation of more than `slots` slots fail before its
    first slot."""
    simulate = simulator._simulate

    def bounded(ts, horizon, stop_on_miss, runs):
        assert horizon <= slots, f"asked to simulate {horizon} slots"
        return simulate(ts, horizon, stop_on_miss, runs)

    monkeypatch.setattr(simulator, "_simulate", bounded)


@pytest.mark.parametrize("text, code, stdout", [
    ("m 3\ntask 1 1 2 2\ntask 2 1 3 3\n", 0, "slot,task,processor\n"),
    ("m 1\ntask 1 1 1 1\ntask 1 1 2 2\n", 2, "slot,task,processor\nMISS,1,2\n"),
])
def test_simulate_no_trace_costs_at_most_one_hyperperiod(tmp_path, monkeypatch, text, code,
                                                          stdout):
    # A horizon of 10^11 slots over an lcm of 6 (or 2): only the first
    # hyperperiod is simulated, also when asked to continue after a miss.
    path = tmp_path / "ts.txt"
    path.write_text(text)
    simulate_at_most(monkeypatch, math.lcm(*(t.period for t in parse_task_system(text).tasks)))
    assert main_in_process("simulate", "--input", str(path), "--horizon", "100000000000",
                           "--no-trace", "--continue-after-miss") == (code, stdout, "")


def test_simulate_no_trace_over_the_horizon_guard_is_still_an_error(cx_file):
    from gangsched.simulator import HORIZON_GUARD

    horizon = str(HORIZON_GUARD + 1)
    assert main_in_process("simulate", "--input", cx_file, "--horizon", horizon,
                           "--no-trace") == (
        1, "", f"error: horizon {horizon} exceeds guard {HORIZON_GUARD}\n")


@pytest.mark.parametrize("flags", [("--no-trace",), ()])
def test_simulate_refuses_a_hyperperiod_too_long_to_print(tmp_path, flags):
    # 3,000 periods just under 2^53: their lcm has far more than the
    # 4,300 digits Python will print, and is folded only up to the guard.
    from gangsched.simulator import HORIZON_GUARD

    path = tmp_path / "long.txt"
    path.write_text("m 1\n" + "".join(f"task 1 1 {p} {p}\n"
                                      for p in range(2**53 - 3000, 2**53)))
    assert main_in_process("simulate", "--input", str(path), *flags) == (
        1, "", f"error: hyperperiod exceeds guard {HORIZON_GUARD}\n")


def test_simulate_over_the_horizon_guard_leaves_out_untouched(cx_file, tmp_path):
    from gangsched.simulator import HORIZON_GUARD

    out = tmp_path / "existing.csv"
    out.write_bytes(b"kept\n")
    horizon = str(HORIZON_GUARD + 1)
    assert main_in_process("simulate", "--input", cx_file, "--horizon", horizon,
                           "--out", str(out)) == (
        1, "", f"error: horizon {horizon} exceeds guard {HORIZON_GUARD}\n")
    assert out.read_bytes() == b"kept\n"


@pytest.mark.parametrize("text, flags", [
    (DENSE_TEXT, ()),
    ("m 5\ntask 4 1 1 3\ntask 2 1 1 2\n", ("--continue-after-miss",)),
    ("m 1500\ntask 700 1 1 1000\ntask 800 1 1 1000\n", ()),
])
def test_simulate_out_and_stdout_bytes_are_identical(tmp_path, monkeypatch, text, flags):
    # Over 3,000 rows in pieces of at most 1,000 rows: runs cross piece,
    # decade and digit-width boundaries, and a slot of 1,500 rows is split
    # inside task 1's block.
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 1000)
    path, out = tmp_path / "ts.txt", tmp_path / "out.csv"
    path.write_text(text)
    argv = ("simulate", "--input", str(path), "--horizon", "3210", *flags)
    code, stdout, stderr = main_in_process(*argv)
    assert stdout.count("\n") > 3000 and stderr == ""
    assert main_in_process(*argv, "--out", str(out)) == (code, "", "")
    assert out.read_bytes() == stdout.encode()


def reference_rows(runs) -> str:
    """csv_rows of runs that tile the slots from 0, expanded into slots."""
    return csv_rows(allocation for start, end, allocation in runs for _ in range(start, end))


def random_runs(rng: random.Random) -> list:
    """Contiguous runs from slot 0 of 1-30 slots, some idle, with gangs as
    disjoint ascending blocks, not always adjacent, on up to 8 processors;
    long idle runs jump to just before 10^4 and 10^5.  In a third of the
    calls one run of 1,000-3,000 slots, in place of the short runs it
    overlaps, starts at slot 0 or inside century 0 or crosses 10^3, 10^4 or
    10^5, so that it holds up to 30 whole centuries past century 0,
    sometimes fewer than the century join needs."""
    start, length = math.inf, 0
    if rng.random() < 1 / 3:
        length = rng.randint(1_000, 3_000)
        edge = rng.choice((1, 100, 10**3, 10**4, 10**5))
        start = edge - rng.randint(1, min(edge, length - 1))
    stretches = [(start, start + length, True)]
    for lo, hi in ((0, 130), (rng.randint(9_995, 10_005), 10_010),
                   (rng.randint(99_990, 100_010), 100_015)):
        stretches += [(lo, min(hi, start), False), (max(lo, start + length), hi, False)]
    runs, now = [], 0
    for lo, hi, long in sorted(s for s in stretches if s[0] < s[1]):
        if now < lo:
            runs.append((now, lo, ()))
            now = lo
        while now < hi:
            m, free, allocation = rng.randint(1, 8), 0, []
            while free < m and rng.random() < 0.9:
                first = rng.randint(free, m - 1)
                width = rng.randint(1, m - first)
                allocation.append((rng.randint(0, 20), first, width))
                free = first + width
            end = hi if long else min(hi, now + rng.randint(1, 30))
            runs.append((now, end, tuple(allocation)))
            now = end
    return runs


# Row limits per piece: below, among and above the rows of one slot
# (1-8), a quarter of the default, and the default.
@pytest.mark.parametrize("chunk", [1, 7, 13, 64, 65536, cli.CSV_CHUNK_ROWS])
def test_csv_chunks_match_per_slot_rows(monkeypatch, chunk):
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
    rng = random.Random(13 + chunk)
    for _ in range(60):
        runs = random_runs(rng)
        chunks = list(cli._csv_chunks(runs))
        expected = reference_rows(runs)
        assert "".join(chunks) == expected
        per_slot = collections.Counter(row.split(",")[0] for row in expected.splitlines())
        for piece in chunks:
            rows = collections.Counter(row.split(",")[0] for row in piece.splitlines())
            assert 0 < sum(rows.values()) <= chunk
            # Whole slots where a slot fits the limit, else part of one slot.
            if max(per_slot[slot] for slot in rows) <= chunk:
                assert all(rows[slot] == per_slot[slot] for slot in rows)
            else:
                assert len(rows) == 1


def test_csv_chunks_of_a_huge_run_are_bounded():
    # One busy run of 10^12 slots: the first chunks come at once.  Run
    # under a 1 GiB address-space limit, so that rendering the whole run
    # at once fails fast instead of taking the machine's memory.
    script = textwrap.dedent("""
        import itertools
        from gangsched import cli
        from gangsched.simulator import ScheduleTrace

        trace = ScheduleTrace(10**12, ((0, 10**12, ((0, 0, 2), (1, 2, 1))),), None)
        bound = cli.CSV_CHUNK_ROWS // 3  # slots of 3 rows each
        slots = 0
        for chunk in itertools.islice(cli._csv_chunks(trace.runs), 3):
            rows = chunk.splitlines()
            assert rows[0] == f"{slots},0,0" and rows[-1] == f"{slots + bound - 1},1,2"
            assert len(rows) == 3 * bound
            slots += bound
        print(slots)
    """)
    done = run_python("-c", script, memory=2**30, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, f"{3 * (cli.CSV_CHUNK_ROWS // 3)}\n", "")


def test_simulate_of_a_wide_gang_stays_in_256_mb(tmp_path):
    # 1,024 rows per slot: pieces bounded by slots alone held 16.7M rows.
    # 4M rows in one slot: a tuple of processors per job, or a piece per
    # slot, held them all.
    path = tmp_path / "wide.txt"
    for m, horizon in ((1024, 16384), (4_000_000, 1)):
        path.write_text(f"m {m}\ntask {m} 1 1 1\n")
        done = run_python("-m", "gangsched", "simulate", "--input", str(path),
                          "--horizon", str(horizon), "--out", os.devnull,
                          memory=2**28, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_simulate_into_a_closed_pipe_exits_1_with_no_error_line(tmp_path, unbuffered):
    # `simulate ... | head -1`: the reader closes the pipe after one line,
    # long before the megabytes of rows are written.
    path = tmp_path / "dense.txt"
    path.write_text("m 4\ntask 1 1 10 10\ntask 2 3 17 20\ntask 1 2 30 31\ntask 3 5 70 100\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    with subprocess.Popen(
        [sys.executable, "-m", "gangsched", "simulate", "--input", str(path),
         "--horizon", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    ) as proc:
        assert proc.stdout.readline() == "slot,task,processor\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert (proc.wait(timeout=60), stderr) == (1, "")


# --- experiment -------------------------------------------------------------

def test_experiment_csv_shape_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["experiment", "--n", "4", "--m", "3", "--points", "4", "--trials", "5",
            "--seed", "11", "--t-min", "4", "--t-max", "12", "--horizon", "40"]
    assert main_in_process(*args, "--out", str(out1))[0] == 0
    assert main_in_process(*args, "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == ("utilization,trials,certified,not_proven,inapplicable,"
                       "sim_miss,gen_errors,variant,carry_in")
    assert len(lines) == 5
    assert [row.split(",")[0] for row in lines[1:]] == ["0.25", "0.50", "0.75", "1.00"]
    for row in lines[1:]:
        fields = row.split(",")
        trials, certified, not_proven, inapplicable = map(int, fields[1:5])
        assert certified + not_proven + inapplicable == trials == 5
        assert fields[7] == "strict" and fields[8] == "top"


def test_experiment_zero_trials_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    code, _, _ = main_in_process("experiment", "--points", "3", "--trials", "0",
                                 "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + 3 all-zero rows
    assert all(row.split(",")[1] == "0" for row in lines[1:])


def test_experiment_rejects_invalid_flags_whatever_the_points(tmp_path):
    out = tmp_path / "never.csv"
    for bad in (("--n", "0", "--m", "0", "--t-min", "0"), ("--horizon", "-5"),
                ("--trials", "0", "--horizon", "abc")):
        for points in ("0", "2"):
            code, _, err = main_in_process("experiment", "--points", points, *bad,
                                           "--out", str(out))
            assert code == 1
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert not out.exists()
    code, out, _ = main_in_process("experiment", "--points", "0")
    assert code == 0
    assert out == ("utilization,trials,certified,not_proven,inapplicable,"
                   "sim_miss,gen_errors,variant,carry_in\n")

def test_negative_points_or_trials_is_a_one_line_error():
    for flag in ("--points", "--trials"):
        assert main_in_process("experiment", flag, "-1") == (
            1, "", "error: points and trials must be >= 0\n")


def test_negative_horizon_is_a_one_line_error(cx_file):
    for argv in (("experiment", "--points", "0"), ("simulate", "--input", cx_file)):
        assert main_in_process(*argv, "--horizon", "-1") == (
            1, "", "error: horizon must be >= 0\n")


def test_experiment_long_horizon_costs_at_most_one_hyperperiod(monkeypatch):
    # Periods 2-3, so an lcm of at most 6: a horizon of 10^11 slots gives
    # the CSV of a horizon of 1000, without simulating 10^11 slots.
    simulate_at_most(monkeypatch, 6)
    args = ("experiment", "--n", "2", "--m", "2", "--points", "1", "--trials", "1",
            "--t-min", "2", "--t-max", "3", "--load-max", "0.2", "--horizon")
    long_code, long_out, long_err = main_in_process(*args, "100000000000")
    _, short_out, _ = main_in_process(*args, "1000")
    assert (long_code, long_err) == (0, "")
    assert long_out == short_out


def test_experiment_horizon_over_the_guard_is_still_an_error():
    from gangsched.simulator import HORIZON_GUARD

    horizon = str(HORIZON_GUARD + 1)
    assert main_in_process("experiment", "--n", "2", "--m", "2", "--points", "1",
                           "--trials", "1", "--horizon", horizon) == (
        1, "", f"error: horizon {horizon} exceeds guard {HORIZON_GUARD}\n")


def test_experiment_auto_horizon_caps_systems_over_the_horizon_guard(tmp_path):
    # --horizon auto simulates min(lcm, EXPERIMENT_SIM_CAP) slots; it must
    # not ask for the full hyperperiod, which the guard refuses here.
    import math
    from fractions import Fraction

    from gangsched.generator import GenParams, generate_task_system
    from gangsched.simulator import HORIZON_GUARD

    out = tmp_path / "auto.csv"
    code, _, err = main_in_process("experiment", "--points", "1", "--trials", "5", "--seed", "1",
                                   "--out", str(out))
    assert code == 0, err
    fields = out.read_text().splitlines()[1].split(",")
    trials, certified, not_proven, inapplicable, sim_miss, gen_errors = map(int, fields[1:7])
    assert certified + not_proven + inapplicable == trials
    assert trials + gen_errors == 5 and sim_miss <= trials
    params = GenParams(n=10, m=6, target_load=Fraction(1), seed=1)
    lcms = [math.lcm(*(t.period for t in generate_task_system(params, trial).tasks))
            for trial in range(5)]
    assert max(lcms) > HORIZON_GUARD


# Flag sets that between them reach every outcome class and the strict
# refutation scan with a small --delta-cap.
EXPERIMENT_FLAG_SETS = (
    ("--variant", "original", "--load-max", "0.4", "--points", "5", "--trials", "6",
     "--horizon", "200"),
    ("--n", "4", "--m", "3", "--points", "4", "--trials", "8", "--t-min", "4",
     "--t-max", "12", "--horizon", "40"),
    ("--n", "4", "--m", "3", "--points", "4", "--trials", "8", "--t-min", "4",
     "--t-max", "12", "--carry-in", "all", "--delta-cap", "7", "--horizon", "40"),
    ("--n", "3", "--m", "2", "--points", "4", "--trials", "8", "--t-min", "2",
     "--t-max", "9", "--variant", "original", "--carry-in", "all",
     "--deadline-mode", "implicit", "--horizon", "40"),
)


def test_experiment_bytes_match_a_run_on_analyze(monkeypatch):
    def runs():
        return [main_in_process("experiment", "--seed", "5", *flags)
                for flags in EXPERIMENT_FLAG_SETS]

    fast = runs()
    monkeypatch.setattr(cli, "system_outcome", lambda ts, c: analyze(ts, c).outcome_class)
    assert fast == runs()
    rows = [row.split(",") for _, out, _ in fast for row in out.splitlines()[1:]]
    for column in (2, 3, 4):  # certified, not_proven, inapplicable
        assert sum(int(row[column]) for row in rows) > 0


def test_experiment_sweep_evaluates_the_first_windows_before_any_walk(monkeypatch):
    # One command of the criterion-3 sweep shape.  Every system is decided
    # by first windows alone; scanning each task's whole range before the
    # next task's first window evaluated 351 points here.
    points, walks = record_points(monkeypatch), record_walks(monkeypatch)
    code, _, _ = main_in_process(
        "experiment", "--n", "10", "--m", "6", "--points", "20", "--load-max", "0.4",
        "--variant", "original", "--carry-in", "top", "--horizon", "200",
        "--trials", "5", "--seed", "48")
    assert code == 0
    assert (len(points), walks) == (59, [])


def test_strict_experiment_work_is_pinned(monkeypatch):
    # A default strict sweep, two trials per point: systems with an
    # undefined interval are refuted or found Inapplicable by refutation
    # scans, the others by first windows and walks.
    points, walks = record_points(monkeypatch), record_walks(monkeypatch)
    code, _, _ = main_in_process("experiment", "--trials", "2", "--seed", "0")
    assert code == 0
    assert (len(points), walks) == (504, [0, 6, 0, 8, 2, 9, 6, 0, 3, 4, 0, 1, 5])


@settings(max_examples=200, deadline=5000)
@given(st.fixed_dictionaries({
    "--n": st.integers(0, 6),
    "--m": st.integers(0, 6),
    "--points": st.integers(0, 3),
    "--trials": st.integers(0, 3),
    "--load-max": st.sampled_from(["1/0", "0", "-1/2", "2", "0.3", "3/5", "1/7", "1"]),
    "--t-min": st.integers(0, 12),
    "--t-max": st.integers(1, 40),
    "--variant": st.sampled_from(["original", "strict"]),
    "--carry-in": st.sampled_from(["top", "all"]),
    "--delta-cap": st.one_of(st.none(), st.integers(-1, 40)),
}))
def test_experiment_fuzz_exits_0_or_1_with_at_most_one_error_line(flags):
    # flag=value, so that argparse takes "-1/2" for a value, not a flag.
    argv = [f"{flag}={value}" for flag, value in flags.items() if value is not None]
    code, out, err = main_in_process("experiment", *argv)
    lines = err.splitlines()
    assert code in (0, 1)
    if code == 0:
        assert not lines and out.startswith(cli.EXPERIMENT_HEADER + "\n")
    else:
        assert out == "" and len(lines) == 1 and lines[0].startswith("error: ")


def test_experiment_rejects_a_zero_denominator_load_max(tmp_path):
    out = tmp_path / "never.csv"
    for points in ("0", "2"):
        code, stdout, err = main_in_process("experiment", "--load-max", "1/0",
                                            "--points", points, "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert err.splitlines() == ["error: zero denominator in '1/0'"]
        assert not out.exists()


# --- gen --------------------------------------------------------------------

def test_gen_pipeline_hundred_files_all_analyzable(tmp_path):
    out = tmp_path / "bulk"
    code, _, _ = main_in_process("gen", "--n", "4", "--m", "3", "--load", "0.5", "--seed", "21",
                                 "--count", "100", "--t-min", "5", "--t-max", "50",
                                 "--out", str(out))
    assert code == 0
    from gangsched.analysis import analyze
    from gangsched.model import parse_task_system

    files = sorted(out.iterdir())
    assert len(files) == 100
    for path in files:
        ts = parse_task_system(path.read_text())  # no parse errors
        analyze(ts)  # and analysis runs through


def test_gen_writes_parseable_reproducible_files(tmp_path):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    args = ["gen", "--n", "3", "--m", "3", "--load", "0.6", "--seed", "9",
            "--count", "3", "--t-min", "5", "--t-max", "20"]
    assert main_in_process(*args, "--out", str(out1))[0] == 0
    assert main_in_process(*args, "--out", str(out2))[0] == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["ts_9_0.txt", "ts_9_1.txt", "ts_9_2.txt"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        code, _, _ = main_in_process("analyze", "--input", str(out1 / name))
        assert code in (0, 2, 3)  # parsed and analyzed fine


def test_gen_rejects_a_negative_count(tmp_path):
    out = tmp_path / "never"
    code, stdout, err = main_in_process("gen", "--n", "3", "--m", "3", "--count", "-2",
                                        "--out", str(out))
    assert code == 1
    assert stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0] == "error: count must be >= 0"
    assert not out.exists()


def test_gen_rejects_a_zero_denominator_load(tmp_path):
    out = tmp_path / "never"
    code, stdout, err = main_in_process("gen", "--n", "3", "--m", "3", "--load", "1/0",
                                        "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err.splitlines() == ["error: zero denominator in '1/0'"]
    assert not out.exists()


def test_a_malformed_flag_value_is_a_one_line_error_naming_the_flag(cx_file, tmp_path):
    out = tmp_path / "never"
    fraction = "must be a fraction such as 0.5 or 3/5, got"
    for argv, message in (
        (("simulate", "--input", cx_file, "--horizon", "abc"),
         "--horizon must be 'auto' or an integer, got 'abc'"),
        (("experiment", "--points", "0", "--horizon", "1.5"),
         "--horizon must be 'auto' or an integer, got '1.5'"),
        (("experiment", "--load-max", "nan"), f"--load-max {fraction} 'nan'"),
        (("gen", "--n", "3", "--m", "3", "--load", "x", "--out", str(out)),
         f"--load {fraction} 'x'"),
    ):
        assert main_in_process(*argv) == (1, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("m, periods, message", [
    (2**63, (), "m must be < 2**63"),
    (10**4299, (), "m must be < 2**63"),
    (3, ("--t-max", str(10**20)), "t_max must be <= 2**53"),
    (3, ("--t-min", str(10**400), "--t-max", str(10**400)), "t_max must be <= 2**53"),
], ids=["m-2^63", "m-10^4299", "t_max-10^20", "t_min-t_max-10^400"])
def test_generation_flags_out_of_range_end_in_one_error_line(tmp_path, m, periods, message):
    # The width draw is an int64 draw, and periods must be exact floats:
    # m >= 2^63 or t_max > 2^53 ends the command before any trial is drawn.
    # A load of 1/m keeps the target sum load * m feasible for n = 2.
    flags = ("--n", "2", "--m", str(m), *periods)
    out = tmp_path / "never"
    assert main_in_process("gen", *flags, "--load", f"1/{m}", "--count", "2",
                           "--out", str(out)) == (1, "", f"error: {message}\n")
    assert not out.exists()
    assert main_in_process("experiment", *flags, "--load-max", f"1/{m}", "--points", "1",
                           "--trials", "2") == (1, "", f"error: {message}\n")


def test_gen_of_many_tasks_on_few_processors_runs_in_bounded_memory(tmp_path):
    # 20,000 tasks at a total utilization of 0.2: the Stafford table needs
    # one column per level, where an n-wide table would hold 4 * 10^8
    # entries.  Run under a 1 GiB address-space limit, so that such a table
    # fails fast instead of taking the machine's memory.
    done = run_python("-m", "gangsched", "gen", "--n", "20000", "--m", "2",
                      "--load", "0.1", "--out", str(tmp_path), memory=2**30, timeout=120)
    path = tmp_path / "ts_0_0.txt"
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{path}\n", "")
    text = path.read_text()
    ts = parse_task_system(text)
    assert (ts.processors, ts.n) == (2, 20000)
    assert print_task_system(ts) == text


# --- per-process cost -------------------------------------------------------

def test_only_the_drawing_commands_import_numpy(cx_file):
    # Only gen and experiment draw random numbers; the other commands run
    # in a process that never loads numpy.
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        import gangsched
        from gangsched import cli

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(list(argv))

        codes = [run("analyze", "--input", {cx_file!r}),
                 run("simulate", "--input", {cx_file!r}, "--no-trace"),
                 run("simulate", "--input", {cx_file!r}),
                 run("counterexample")]
        print(codes, "numpy" in sys.modules)
        print(run("experiment", "--points", "1", "--trials", "1"), "numpy" in sys.modules)
    """)
    done = run_python("-c", script, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "[2, 2, 2, 0] False\n0 True\n", "")


def test_the_cached_parser_gives_the_bytes_of_a_fresh_process(cx_file, capsys, monkeypatch):
    # main builds its parser once per process: a usage error, an input
    # error, verdicts and an experiment whose flags a previous call set
    # otherwise must each print what a fresh `python -m gangsched` prints,
    # with its exit code, so that each of 0, 1, 2 and 3 comes from a process.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
    cli._build_parser.cache_clear()
    commands = [
        ["analyze"],  # usage error: --input is required
        ["analyze", "--input", str(Path(cx_file).with_name("missing.txt"))],
        ["analyze", "--input", cx_file, "--json"],
        ["analyze", "--input", cx_file, "--variant", "original"],
        ["experiment", "--points", "2", "--trials", "3", "--variant", "original",
         "--carry-in", "all", "--delta-cap", "9", "--seed", "4", "--deadline-mode", "implicit"],
        ["experiment", "--points", "3", "--trials", "2"],
    ]
    codes = set()
    for argv in commands:
        try:
            code = cli.main(argv)
        except SystemExit as usage_error:
            code = usage_error.code
        fresh = run_python("-m", "gangsched", *argv)
        assert (code, *capsys.readouterr()) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.add(code)
    assert codes == {0, 1, 2, 3}
    assert cli._build_parser.cache_info().misses == 1


# --- golden bytes -----------------------------------------------------------

GOLDEN_FILES = {
    "cx.txt": COUNTEREXAMPLE_TEXT,
    "dense.txt": DENSE_TEXT,
    "guard.txt": GUARD_TEXT,
    "m5.txt": "m 5\ntask 4 1 1 3\ntask 2 1 1 2\n",
    "clean.txt": "m 3\ntask 1 1 2 2\ntask 2 1 3 3\n",
    "late.txt": "m 1\ntask 1 1 1 1\ntask 1 1 2 2\n",
    # oracles.REFUTED_THEN_CLEAN: both scan intervals are undefined, with
    # denominator -13/14.
    "refuted.txt": "m 4\ntask 3 3 4 4\ntask 3 5 6 7\n",
}


def golden_commands():
    yield ("counterexample",)
    yield ("counterexample", "--json")
    for name in ("cx.txt", "dense.txt", "guard.txt", "m5.txt"):
        for variant in ("original", "strict"):
            for carry_in in ("top", "all"):
                for json_flag in ((), ("--json",)):
                    yield ("analyze", "--input", name, "--variant", variant,
                           "--carry-in", carry_in, *json_flag)
    # Under strict with cap 4 task 0 is refuted at 4 and task 1's scan is
    # clean; under original neither is scanned.
    for flags in (("--delta-cap", "4"), ("--variant", "original")):
        for json_flag in ((), ("--json",)):
            yield ("analyze", "--input", "refuted.txt", *flags, *json_flag)
    for name in ("cx.txt", "m5.txt", "clean.txt", "late.txt"):
        yield ("simulate", "--input", name)
        for flags in ((), ("--no-trace",), ("--continue-after-miss",),
                      ("--no-trace", "--continue-after-miss")):
            yield ("simulate", "--input", name, "--horizon", "50", *flags)
    # Traces thousands of slots long, across decade and digit-width
    # boundaries; dense.txt is one 4-processor run of 12,344 slots.
    yield ("simulate", "--input", "m5.txt", "--horizon", "12345", "--continue-after-miss")
    yield ("simulate", "--input", "late.txt", "--horizon", "1005", "--continue-after-miss")
    yield ("simulate", "--input", "dense.txt", "--horizon", "12345")
    for flags in EXPERIMENT_FLAG_SETS[:3:2]:
        yield ("experiment", "--seed", "5", *flags)
    yield ("gen", "--n", "4", "--m", "3", "--load", "0.7", "--seed", "3", "--count", "4",
           "--t-min", "4", "--t-max", "30", "--out", "gen")
    # An infeasible target: a sum of 3 over two tasks fails every trial.
    yield ("gen", "--n", "2", "--m", "6", "--load", "0.5", "--count", "2",
           "--out", "gen-infeasible")
    yield ("experiment", "--n", "2", "--m", "6", "--points", "4", "--trials", "3",
           "--seed", "5", "--horizon", "50")
    yield ("analyze", "--input", "missing.txt")
    yield ("simulate", "--input", "cx.txt", "--horizon", "-1")


def golden_digests() -> dict[str, str]:
    """sha256 prefix of (exit code, stdout, stderr) per command, plus the
    bytes of the files `gen` writes; run in the current directory."""
    for name, text in GOLDEN_FILES.items():
        Path(name).write_text(text)
    digests = {}
    for argv in golden_commands():
        code, out, err = main_in_process(*argv)
        blob = json.dumps([code, out, err])
        if argv[0] == "gen":
            blob += "".join(Path(line).read_text() for line in out.splitlines())
        digests[" ".join(argv)] = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return digests


GOLDEN = {
    "counterexample": "7d642dcb4285c74d",
    "counterexample --json": "b1089d76c38d68c3",
    "analyze --input cx.txt --variant original --carry-in top": "d87165fc329c8b84",
    "analyze --input cx.txt --variant original --carry-in top --json": "2fe21c4c0e7df241",
    "analyze --input cx.txt --variant original --carry-in all": "bead45f3eaa9b936",
    "analyze --input cx.txt --variant original --carry-in all --json": "5333f9f879602960",
    "analyze --input cx.txt --variant strict --carry-in top": "cbf681246280ab12",
    "analyze --input cx.txt --variant strict --carry-in top --json": "e109f74fc18d96ca",
    "analyze --input cx.txt --variant strict --carry-in all": "4427575eee6e7e22",
    "analyze --input cx.txt --variant strict --carry-in all --json": "7312254533b7faeb",
    "analyze --input dense.txt --variant original --carry-in top": "aba852a7b72cef8c",
    "analyze --input dense.txt --variant original --carry-in top --json": "bbbfb8eb5b2faa6a",
    "analyze --input dense.txt --variant original --carry-in all": "aefa979527313f94",
    "analyze --input dense.txt --variant original --carry-in all --json": "5280245a09d05d77",
    "analyze --input dense.txt --variant strict --carry-in top": "b9016a7089542cba",
    "analyze --input dense.txt --variant strict --carry-in top --json": "4a5e0b9690b3bac0",
    "analyze --input dense.txt --variant strict --carry-in all": "ff62ddd3eb9e8b90",
    "analyze --input dense.txt --variant strict --carry-in all --json": "01303987a980f60b",
    "analyze --input guard.txt --variant original --carry-in top": "825e7667c76d6c7f",
    "analyze --input guard.txt --variant original --carry-in top --json": "825e7667c76d6c7f",
    "analyze --input guard.txt --variant original --carry-in all": "825e7667c76d6c7f",
    "analyze --input guard.txt --variant original --carry-in all --json": "825e7667c76d6c7f",
    "analyze --input guard.txt --variant strict --carry-in top": "825e7667c76d6c7f",
    "analyze --input guard.txt --variant strict --carry-in top --json": "825e7667c76d6c7f",
    "analyze --input guard.txt --variant strict --carry-in all": "825e7667c76d6c7f",
    "analyze --input guard.txt --variant strict --carry-in all --json": "825e7667c76d6c7f",
    "analyze --input m5.txt --variant original --carry-in top": "0b9c5146ca703424",
    "analyze --input m5.txt --variant original --carry-in top --json": "d53c6517cb6a2bab",
    "analyze --input m5.txt --variant original --carry-in all": "ea81b24a5b6e88fb",
    "analyze --input m5.txt --variant original --carry-in all --json": "d06e7823777e9b71",
    "analyze --input m5.txt --variant strict --carry-in top": "0eab992174a5bf71",
    "analyze --input m5.txt --variant strict --carry-in top --json": "061680d5a3cf0f1b",
    "analyze --input m5.txt --variant strict --carry-in all": "8f95f41ad4387efd",
    "analyze --input m5.txt --variant strict --carry-in all --json": "f50afe7ee9da0d22",
    "analyze --input refuted.txt --delta-cap 4": "1821ae8b531b1aee",
    "analyze --input refuted.txt --delta-cap 4 --json": "153cb1db38437a43",
    "analyze --input refuted.txt --variant original": "7b1c98fbea480107",
    "analyze --input refuted.txt --variant original --json": "f4197a2c5ff6f944",
    "simulate --input cx.txt": "a842d8535828dbd7",
    "simulate --input cx.txt --horizon 50": "a842d8535828dbd7",
    "simulate --input cx.txt --horizon 50 --no-trace": "022a3a45d70d04bb",
    "simulate --input cx.txt --horizon 50 --continue-after-miss": "71b7f668a11c40ed",
    "simulate --input cx.txt --horizon 50 --no-trace --continue-after-miss": "022a3a45d70d04bb",
    "simulate --input m5.txt": "5283ead103b47e32",
    "simulate --input m5.txt --horizon 50": "5283ead103b47e32",
    "simulate --input m5.txt --horizon 50 --no-trace": "4e09b59fe4b58bdb",
    "simulate --input m5.txt --horizon 50 --continue-after-miss": "279d9ed95986c7c8",
    "simulate --input m5.txt --horizon 50 --no-trace --continue-after-miss": "4e09b59fe4b58bdb",
    "simulate --input clean.txt": "4fdc7c0c3df99261",
    "simulate --input clean.txt --horizon 50": "aa3090039876c7b1",
    "simulate --input clean.txt --horizon 50 --no-trace": "875e51db264ecb19",
    "simulate --input clean.txt --horizon 50 --continue-after-miss": "aa3090039876c7b1",
    ("simulate --input clean.txt --horizon 50 --no-trace "
     "--continue-after-miss"): "875e51db264ecb19",
    "simulate --input late.txt": "c5751763ffbca3e5",
    "simulate --input late.txt --horizon 50": "c5751763ffbca3e5",
    "simulate --input late.txt --horizon 50 --no-trace": "022a3a45d70d04bb",
    "simulate --input late.txt --horizon 50 --continue-after-miss": "91adf7d866201c82",
    ("simulate --input late.txt --horizon 50 --no-trace "
     "--continue-after-miss"): "022a3a45d70d04bb",
    "simulate --input m5.txt --horizon 12345 --continue-after-miss": "bd8685310d3d4b3d",
    "simulate --input late.txt --horizon 1005 --continue-after-miss": "d1db45f803cddf2d",
    "simulate --input dense.txt --horizon 12345": "3a26de4db2e2737e",
    ("experiment --seed 5 --variant original --load-max 0.4 --points 5 "
     "--trials 6 --horizon 200"): "cd9606d1130a8a28",
    ("experiment --seed 5 --n 4 --m 3 --points 4 --trials 8 --t-min 4 --t-max "
     "12 --carry-in all --delta-cap 7 --horizon 40"): "8871d402ef13526a",
    ("gen --n 4 --m 3 --load 0.7 --seed 3 --count 4 --t-min 4 --t-max 30 "
     "--out gen"): "8325983524d5b87d",
    "gen --n 2 --m 6 --load 0.5 --count 2 --out gen-infeasible": "9fadd76745ecaf3d",
    "experiment --n 2 --m 6 --points 4 --trials 3 --seed 5 --horizon 50": "764f976caf863552",
    "analyze --input missing.txt": "9ccb554ffa08fed5",
    "simulate --input cx.txt --horizon -1": "ef16d9c54082461f",
}


def test_cli_bytes_match_the_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert golden_digests() == GOLDEN
