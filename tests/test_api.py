"""The public names of gangsched, and the ones the benchmark harness uses."""

from dataclasses import fields

import gangsched
from gangsched import analysis, cli, demand, generator, model, simulator

# Removed: the scalar helpers folded into check_condition, three names
# that only tests used, the numpy block scan's evaluator and sizes, the
# generator's redraw limit (every draw is valid), the per-task scan
# range (every range now comes from one bound table per system), the
# horizon cut of miss-only simulations (first_miss makes it itself),
# check_no_miss, which only asked whether first_miss(ts) is None,
# trial_rng (the generator draws from raw PCG64 words; numpy's Generator
# per trial is the reference in tests/oracles.py), and rand_fixed_sum and
# its [lo, hi] wrapper _fixed_sum, which only tests called (the numpy
# reference_fixed_sum in tests/oracles.py keeps the general bounds), the
# per-task scan test and outcome step (one scan test per system now
# evaluates every window), the hyperperiod guard helper (folded into
# hyperperiod, its only caller), the per-task window scan (_outcomes
# checks every first window, then walks), experiment's miss helper
# (--horizon auto is EXPERIMENT_SIM_CAP from the flag on), the horizon
# check (_horizon also resolves None) and the slot limit of a CSV piece
# (CSV_CHUNK_ROWS limits its rows).
DELETED = (
    "AnalysisPoint",
    "interference_rectangle",
    "interference_no_carry_in",
    "interference_with_carry_in",
    "carry_in_extra",
    "carry_in_bound",
    "_aggregate_carry",
    "dbf",
    "Rational",
    "is_valid",
    "_evaluate",
    "_fits_int64",
    "_FIRST_BLOCK",
    "_SCAN_CHUNK",
    "_MAX_REDRAWS",
    "_scan_range",
    "miss_horizon",
    "check_no_miss",
    "trial_rng",
    "rand_fixed_sum",
    "_fixed_sum",
    "_violation_test",
    "_task_outcome",
    "_guard_hyperperiod",
    "_first_violation",
    "_experiment_miss",
    "_check_horizon",
    "CSV_CHUNK_SLOTS",
)


def test_every_exported_name_resolves_and_is_listed_once():
    assert len(gangsched.__all__) == len(set(gangsched.__all__))
    for name in gangsched.__all__:
        assert hasattr(gangsched, name), name


def test_deleted_names_are_gone():
    for module in (gangsched, analysis, cli, demand, generator, model, simulator):
        for name in DELETED:
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(analysis, "np")  # the window scan runs on Python ints


def test_names_the_benchmark_harness_uses_resolve():
    for name in ("AnalysisConfig", "CarryInStrategy", "DeltaBound", "Variant",
                 "check_condition", "scan_upper_bound", "analyze_task",
                 "Certified", "Inapplicable", "NoDeltaBound", "NotProven"):
        assert callable(getattr(analysis, name)), name
    for name in ("main", "analyze", "generate_task_system", "simulate_synchronous",
                 "parse_task_system"):
        assert callable(getattr(cli, name)), name
    for name in ("GangTask", "TaskSystem", "parse_task_system"):
        assert callable(getattr(model, name)), name
    # perfbench/spans.py reads the slots of every traced simulation.
    assert hasattr(simulator.ScheduleTrace(0, (), None), "slots")


def test_not_proven_holds_what_the_scan_found():
    # The per-task breakdown at the witness is check_condition's, on demand.
    assert [f.name for f in fields(analysis.NotProven)] == [
        "task_index", "witness_delta", "lhs", "rhs"]
