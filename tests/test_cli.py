import json
import subprocess
import sys

import pytest

COUNTEREXAMPLE_TEXT = "m 3\ntask 2 2 2 2\ntask 2 1 2 2\n"
SINGLE_OK_TEXT = "m 2\ntask 1 1 2 4\n"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "gangsched", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


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
    result = run_cli("counterexample")
    assert result.returncode == 0
    assert "all facts reproduced exactly: OK" in result.stdout
    assert "first deadline miss: task 1 at time 2" in result.stdout
    assert "denominator = -1" in result.stdout


def test_counterexample_is_byte_stable():
    first = run_cli("counterexample")
    second = run_cli("counterexample")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_counterexample_json_facts():
    result = run_cli("counterexample", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
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


# --- analyze ----------------------------------------------------------------

def test_analyze_original_reports_inapplicable(cx_file):
    result = run_cli("analyze", "--input", cx_file, "--variant", "original")
    assert result.returncode == 3
    assert "denominator -1" in result.stdout
    assert "INAPPLICABLE" in result.stdout


def test_analyze_strict_reports_witness(cx_file):
    result = run_cli("analyze", "--input", cx_file, "--variant", "strict")
    assert result.returncode == 2
    assert "witness delta=2" in result.stdout


def test_analyze_certifies_light_task(ok_file):
    result = run_cli("analyze", "--input", ok_file, "--variant", "strict")
    assert result.returncode == 0
    assert "SCHEDULABLE" in result.stdout


def test_analyze_json(cx_file):
    result = run_cli("analyze", "--input", cx_file, "--variant", "original", "--json")
    payload = json.loads(result.stdout)
    assert payload["outcome"] == "inapplicable"
    assert payload["tasks"][1]["denominator"] == "-1"


def test_analyze_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("m 3\ntask 2 9 2 2\n")  # wcet > deadline
    result = run_cli("analyze", "--input", str(bad))
    assert result.returncode == 1
    assert result.stderr.strip()


def test_analyze_missing_file():
    result = run_cli("analyze", "--input", "/nonexistent/x.txt")
    assert result.returncode == 1


def test_analyze_scan_over_guard_is_a_one_line_error(tmp_path):
    # Near-zero positive denominator: task 0's scan runs to about 3.3e11.
    path = tmp_path / "guard.txt"
    path.write_text("m 4\ntask 1 1 1000000 1000000\ntask 4 999999 999999 1000000\n")
    for flags in ((), ("--json",)):
        result = run_cli("analyze", "--input", str(path), *flags)
        assert result.returncode == 1
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "exceeds guard" in lines[0]


# --- simulate ---------------------------------------------------------------

def test_simulate_emits_trace_and_miss_trailer(cx_file):
    result = run_cli("simulate", "--input", cx_file)
    assert result.returncode == 2
    lines = result.stdout.splitlines()
    assert lines[0] == "slot,task,processor"
    assert lines[1:5] == ["0,0,0", "0,0,1", "1,0,0", "1,0,1"]
    assert lines[-1] == "MISS,1,2"


def test_simulate_clean_system_exits_zero(ok_file):
    result = run_cli("simulate", "--input", ok_file)
    assert result.returncode == 0
    assert "MISS" not in result.stdout
    assert "0,0,0" in result.stdout.splitlines()


def test_simulate_zero_horizon(cx_file):
    result = run_cli("simulate", "--input", cx_file, "--horizon", "0")
    assert result.returncode == 0
    assert result.stdout == "slot,task,processor\n"


def test_simulate_no_trace_keeps_trailer(cx_file):
    result = run_cli("simulate", "--input", cx_file, "--no-trace")
    assert result.stdout == "slot,task,processor\nMISS,1,2\n"


def test_simulate_continue_after_miss(cx_file):
    result = run_cli("simulate", "--input", cx_file, "--horizon", "3",
                     "--continue-after-miss")
    lines = result.stdout.splitlines()
    assert "2,1,0" in lines and "2,1,1" in lines  # late run of task 1
    assert lines[-1] == "MISS,1,2"


# --- experiment -------------------------------------------------------------

def test_experiment_csv_shape_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["experiment", "--n", "4", "--m", "3", "--points", "4", "--trials", "5",
            "--seed", "11", "--t-min", "4", "--t-max", "12", "--horizon", "40"]
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
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
    result = run_cli("experiment", "--points", "3", "--trials", "0", "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + 3 all-zero rows
    assert all(row.split(",")[1] == "0" for row in lines[1:])


def test_experiment_auto_horizon_caps_systems_over_the_horizon_guard(tmp_path):
    # --horizon auto simulates min(lcm, EXPERIMENT_SIM_CAP) slots; it must
    # not ask for the full hyperperiod, which the guard refuses here.
    import math
    from fractions import Fraction

    from gangsched.generator import GenParams, generate_task_system
    from gangsched.simulator import HORIZON_GUARD

    out = tmp_path / "auto.csv"
    result = run_cli("experiment", "--points", "1", "--trials", "5", "--seed", "1",
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    fields = out.read_text().splitlines()[1].split(",")
    trials, certified, not_proven, inapplicable, sim_miss, gen_errors = map(int, fields[1:7])
    assert certified + not_proven + inapplicable == trials
    assert trials + gen_errors == 5 and sim_miss <= trials
    params = GenParams(n=10, m=6, target_load=Fraction(1), seed=1)
    lcms = [math.lcm(*(t.period for t in generate_task_system(params, trial).tasks))
            for trial in range(5)]
    assert max(lcms) > HORIZON_GUARD


# --- gen --------------------------------------------------------------------

def test_gen_pipeline_hundred_files_all_analyzable(tmp_path):
    out = tmp_path / "bulk"
    result = run_cli("gen", "--n", "4", "--m", "3", "--load", "0.5", "--seed", "21",
                     "--count", "100", "--t-min", "5", "--t-max", "50",
                     "--out", str(out))
    assert result.returncode == 0
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
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["ts_9_0.txt", "ts_9_1.txt", "ts_9_2.txt"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        analyzed = run_cli("analyze", "--input", str(out1 / name))
        assert analyzed.returncode in (0, 2, 3)  # parsed and analyzed fine
