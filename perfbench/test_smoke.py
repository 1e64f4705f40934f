"""Smoke test of the benchmark: a tiny-size run of every workload, and the
output checks fed wrong outputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from run import RECORDED_SEEDS, Verifier, expected_digests  # noqa: E402
from workloads import Op, call, check_analyze, check_experiment, check_simulate  # noqa: E402

from gangsched.model import parse_task_system  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
COUNTEREXAMPLE = "m 3\ntask 2 2 2 2\ntask 2 1 2 2\n"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1
    # The SCAN_GUARD system fails on purpose; nothing else may.
    assert (result["failed"] > 0) == (workload == "large-period")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    assert all(NAME.fullmatch(n) and UNIT.fullmatch(u) for n, u in got.items())
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-original", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and not done.stdout


def test_experiment_check_rejects_counts_that_do_not_add_up():
    check = check_experiment(1, 2, "strict")
    header = ("utilization,trials,certified,not_proven,inapplicable,"
              "sim_miss,gen_errors,variant,carry_in\n")
    assert check(0, header + "0.05,2,1,1,0,0,0,strict,top\n") == (2, [])
    assert check(0, header + "0.05,2,1,0,0,0,0,strict,top\n")[1]
    assert check(0, header + "0.05,1,1,0,0,0,0,strict,top\n")[1]


def test_analyze_check_rejects_a_wrong_witness(tmp_path):
    path = tmp_path / "ts.txt"
    path.write_text(COUNTEREXAMPLE)
    result = call(["analyze", "--input", str(path), "--json"])
    assert check_analyze(result.code, result.out) == (1, [])
    payload = json.loads(result.out)
    payload["tasks"][1]["lhs"] += 1
    assert check_analyze(result.code, json.dumps(payload))[1]
    payload = json.loads(result.out)
    payload["tasks"][1]["witness_delta"] = 1
    assert check_analyze(result.code, json.dumps(payload))[1]
    assert check_analyze(0, result.out)[1]


def test_analyze_check_rejects_a_certified_scan_that_stops_early(tmp_path):
    path = tmp_path / "ts.txt"
    path.write_text("m 4\ntask 1 1 1000 1000\ntask 4 990 990 1000\n")
    result = call(["analyze", "--input", str(path), "--json"])
    assert check_analyze(result.code, result.out) == (1, [])
    payload = json.loads(result.out)
    assert payload["tasks"][0]["kind"] == "certified"
    payload["tasks"][0]["scanned_up_to"] -= 1
    assert check_analyze(result.code, json.dumps(payload))[1]


def test_simulate_check_rejects_an_invalid_schedule(tmp_path):
    path = tmp_path / "ts.txt"
    path.write_text(COUNTEREXAMPLE)
    ts = parse_task_system(COUNTEREXAMPLE)
    result = call(["simulate", "--input", str(path), "--horizon", "3", "--continue-after-miss"])
    assert check_simulate(ts, 3, True, {}, "k")(result.code, result.out) == (1, [])
    lines = result.out.splitlines()
    doubled = "\n".join(lines[:2] + [lines[1]] + lines[2:]) + "\n"
    assert check_simulate(ts, 3, True, {}, "k")(result.code, doubled)[1]
    narrow = "\n".join(lines[:1] + lines[2:]) + "\n"
    assert check_simulate(ts, 3, True, {}, "k")(result.code, narrow)[1]
    misses = {"k": "MISS,0,2"}
    assert check_simulate(ts, 3, True, misses, "k")(result.code, result.out)[1]


def test_simulate_check_requires_a_miss_when_one_must_happen(tmp_path):
    path = tmp_path / "ts.txt"
    path.write_text("m 2\ntask 1 1 2 2\n")
    ts = parse_task_system("m 2\ntask 1 1 2 2\n")
    result = call(["simulate", "--input", str(path), "--horizon", "4", "--continue-after-miss"])
    assert check_simulate(ts, 4, True, {}, "k")(result.code, result.out) == (1, [])
    assert check_simulate(ts, 4, True, {}, "k", must_miss=True)(result.code, result.out)[1]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_digests_are_recorded_for_every_recorded_seed(workload):
    # analyze-guard trips SCAN_GUARD and so has no digest.
    want = {"analyze-dense"} if workload == "large-period" else set()
    for size in ("tiny", "full"):
        seed_free = expected_digests(size, workload, RECORDED_SEEDS[-1] + 1)
        assert set(seed_free) == want
        for seed in RECORDED_SEEDS:
            assert set(expected_digests(size, workload, seed)) > set(seed_free)


def test_verifier_flags_a_digest_mismatch_and_a_changed_output(tmp_path):
    path = tmp_path / "ts.txt"
    path.write_text(COUNTEREXAMPLE)
    op = Op("analyze", ("analyze", "--input", str(path), "--json"), check_analyze)
    result = call(op.argv)
    verifier = Verifier({"analyze": "0" * 16})
    assert verifier.verify(op, result)[1]
    verifier = Verifier({})
    assert verifier.verify(op, result) == (1, [])
    changed = type(result)(result.code, result.out.replace('"m": 3', '"m": 3 '), None, 0.0)
    assert verifier.verify(op, changed)[1]
