"""gangsched benchmark: one workload, one run, the result on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It imports gangsched from the
checkout's `src/` and drives `gangsched.cli.main` in-process: one caller,
a closed loop, no threads.  A run repeats passes over the same inputs
for about S seconds, and sets the workload up (import in a fresh
interpreter plus input generation) three times before the first pass
and once after each untraced pass; `setup_s` is the median.
With `--trace 0` it prints the end-to-end metrics; with
`--trace 1` it alternates untraced and traced passes and prints the
per-layer metrics and the tracing overhead.  Spans go to
`.bench_out/spans-<workload>.jsonl`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

DEFAULT_SEED = 0
RECORDED_SEEDS = range(32)  # the seeds whose outputs digests.json records
SETUP_REPEATS = 3  # before the first pass; one more follows each untraced pass
RUN_SECONDS = 55  # run_seconds in BENCHMARK.json
MIN_PASSES = 3  # per run with --trace 0; 2 untraced and 2 traced with --trace 1

# Metric name -> unit; names, units and bounds are listed in BENCHMARK.json.
END_TO_END = {
    "wall_s": "s",
    "systems_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}
OVERHEAD = ("trace.overhead_pct", "%")

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import gangsched.cli; print(time.perf_counter() - t)")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class PassStats:
    latencies: list[float] = field(default_factory=list)  # one per operation
    completed: list[bool] = field(default_factory=list)
    systems: int = 0

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


class Verifier:
    """Checks each operation's output once, then holds later passes to the
    same bytes, and to the committed digest where digests.json has one."""

    def __init__(self, expected: dict[str, str]):
        self.expected = expected
        self.seen: dict[str, tuple[str, int, list[str]]] = {}
        self.problems: list[str] = []
        self.errors: set[str] = set()

    def verify(self, op, result) -> tuple[int, list[str]]:
        from workloads import output_digest

        digest = output_digest(result)
        if op.name not in self.seen:
            try:
                systems, problems = op.check(result.code, result.out)
            except (ValueError, KeyError, IndexError, TypeError) as err:
                systems, problems = 0, [f"unreadable output: {type(err).__name__}: {err}"]
            want = self.expected.get(op.name)
            if want is not None and want != digest:
                problems.append(f"output digest {digest} != committed {want}")
            self.seen[op.name] = (digest, systems, problems)
        first, systems, problems = self.seen[op.name]
        if digest != first:
            problems = problems + ["output differs from the first pass"]
        self.problems += [f"{op.name}: {p}" for p in problems]
        return systems, problems


def run_pass(ops, verifier: Verifier, tracer=None) -> PassStats:
    from workloads import call

    stats = PassStats()
    with tracer.installed() if tracer else contextlib.nullcontext():
        for op in ops:
            result = call(op.argv, tracer.command if tracer else None)
            stats.latencies.append(result.seconds)
            if result.error is not None:
                verifier.errors.add(f"{op.name}: {result.error}")
                stats.completed.append(False)
                continue
            systems, problems = verifier.verify(op, result)
            stats.completed.append(not problems)
            stats.systems += 0 if problems else systems
    return stats


def per_op_latency(passes: list[PassStats]) -> list[float]:
    """Each operation's fastest latency over the passes.  Other tenants of
    the machine slow down whole stretches of a run, by up to 2x for
    seconds to a minute at a time; the fastest repeat is the one they
    touched least."""
    return [min(p.latencies[i] for p in passes) for i in range(len(passes[0].latencies))]


def time_import() -> float:
    """Import time of gangsched.cli in a fresh interpreter.

    numpy's BLAS starts a thread per core when it is imported; with two
    cores the import then takes 0.13 or 0.21 s depending on whether the
    other core is free, which other tenants of the machine decide.  The
    probe runs with one BLAS thread, so that it measures the import and
    not the neighbours.
    """
    env = {**os.environ, **{v: "1" for v in BLAS_THREAD_VARS}}
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def expected_digests(size: str, workload: str, seed: int) -> dict[str, str]:
    """Committed digests for a run: those of the seed-independent
    operations ("any") at every seed, the others for RECORDED_SEEDS."""
    recorded = json.loads(DIGESTS.read_text()).get(size, {}).get(workload, {})
    return {**recorded.get("any", {}), **recorded.get(str(seed), {})}


def measure(args, setup, size: dict, work: Path) -> tuple[dict, dict, dict]:
    import numpy
    from spans import LAYER_METRICS, Tracer, layer_metrics

    tracer = Tracer() if args.trace else None
    setups: list[float] = []

    def set_up(where: Path) -> list:
        # Set-ups are spread over the run, so that their median is not
        # the machine's state in one moment.
        import_s = 0.0 if tracer else time_import()
        shutil.rmtree(where, ignore_errors=True)
        where.mkdir(parents=True)
        start = time.perf_counter()
        ops = setup(where, args.seed, size)
        setups.append(import_s + time.perf_counter() - start)
        return ops

    for _ in range(1 if tracer else SETUP_REPEATS):
        ops = set_up(work)

    verifier = Verifier(expected_digests(args.size, args.workload, args.seed))
    plain: list[PassStats] = []
    traced: list[PassStats] = []
    start = time.perf_counter()
    while True:
        if tracer and len(traced) < len(plain):
            traced.append(run_pass(ops, verifier, tracer))
        else:
            plain.append(run_pass(ops, verifier))
            if not tracer:
                set_up(work / "again")
        elapsed = time.perf_counter() - start
        passes = len(plain) + len(traced)
        enough = min(len(plain), len(traced)) >= 2 if tracer else passes >= MIN_PASSES
        # Stop before a pass that would end after the deadline.
        if enough and elapsed * (passes + 1) / passes > args.seconds:
            break

    everything = plain + traced
    latencies = per_op_latency(plain)
    if not any(all(p.completed[i] for p in everything) for i in range(len(ops))):
        raise RuntimeError("no operation completed: " + "; ".join(sorted(verifier.errors)))
    meta = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "ops_per_pass": len(ops), "passes_untraced": len(plain), "passes_traced": len(traced),
        "pass_seconds_untraced": [p.seconds for p in plain],
        "digests_checked": len(verifier.expected),
        "setup_seconds": setups,
        "errors": sorted(verifier.errors), "problems": verifier.problems[:20],
    }
    result = {
        "correct": not verifier.problems,
        "attempted": sum(len(p.completed) for p in everything),
        "failed": sum(p.completed.count(False) for p in everything),
    }
    if not tracer:
        wall = sum(latencies)
        metrics = {
            "wall_s": wall,
            "systems_per_s": statistics.median(p.systems for p in plain) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
            "ok_frac": 1 - result["failed"] / result["attempted"],
        }
        return result, meta, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}

    per_pass = [layer_metrics(spans) for spans in tracer.passes]
    metrics = {name: {"value": statistics.median(m[name] for m in per_pass), "unit": unit}
               for name, unit in LAYER_METRICS.items()}
    overhead = sum(per_op_latency(traced)) / sum(latencies) - 1
    metrics[OVERHEAD[0]] = {"value": overhead * 100, "unit": OVERHEAD[1]}
    meta["pass_seconds_traced"] = [p.seconds for p in traced]
    meta["spans"] = sum(len(spans) for spans in tracer.passes)
    spans_file = OUT / f"spans-{args.workload}.jsonl"
    tracer.write_jsonl(spans_file)
    meta["spans_file"] = str(spans_file.relative_to(ROOT))
    return result, meta, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="problem size; tiny is for the smoke test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**60:  # sweep-original derives seed * 16 + i < 2**64
        parser.error("--seed must be in [0, 2**60)")

    if not (SRC / "gangsched" / "cli.py").is_file():
        print(f"error: no gangsched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gangsched

    if Path(gangsched.__file__).resolve().parent != SRC / "gangsched":
        print(f"error: gangsched imported from {gangsched.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        result, meta, metrics = measure(args, WORKLOADS[args.workload], SIZES[args.size], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:.6g} {m['unit']}")
    print(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    print("meta " + json.dumps(meta))
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
