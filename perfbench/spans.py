"""Spans around gangsched's public functions, recorded from outside.

`Tracer.installed()` replaces module attributes of gangsched with
wrappers for as long as the block runs.  The program looks these names
up in its module globals at call time, so its own calls (for example
`analysis.analyze` calling `analyze_task`) pass through the wrappers;
nothing inside gangsched is edited.

Each span records its name, start, end, parent span and the id of the
task system it works on.  Spans stay in memory, one list per traced
pass; `write_jsonl` writes them out when the run ends, and
`layer_metrics` turns one pass into the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from gangsched import analysis, cli
from gangsched.analysis import Certified, Inapplicable, NoDeltaBound, NotProven
from gangsched.model import TaskSystem

# Span name of each wrapped function: the module attribute it replaces.
WRAPPED = (
    (cli, "analyze"),
    (cli, "generate_task_system"),
    (cli, "simulate_synchronous"),
    (cli, "parse_task_system"),
    (analysis, "analyze_task"),
    (analysis, "scan_upper_bound"),
    (analysis, "check_condition"),
)

# Span the benchmark records around each `cli.main` call it makes.
COMMAND = "cli.main"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    system: Optional[int]
    info: Any = None  # outcome facts the layer metrics need


class Tracer:
    def __init__(self) -> None:
        self.passes: list[list[Span]] = []
        self._stack: list[tuple[int, Optional[int]]] = []  # (span id, system id)
        # id(system) -> (system id, system); holding the system keeps its
        # id() from being reused within a pass.
        self._systems: dict[int, tuple[int, TaskSystem]] = {}
        self._next_id = 0
        self._next_system = 0

    @contextlib.contextmanager
    def installed(self):
        """Trace one pass: wrappers are in place only inside the block."""
        self.passes.append([])
        self._systems.clear()
        originals = [(module, attr, getattr(module, attr)) for module, attr in WRAPPED]
        for module, attr, fn in originals:
            setattr(module, attr, self._wrap(f"{module.__name__.split('.')[-1]}.{attr}", fn))
        try:
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def command(self, fn: Callable, *args):
        """Run one CLI command under a root span."""
        return self._call(COMMAND, fn, args, {})

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        span_id = self._next_id
        self._next_id += 1
        parent, system = self._stack[-1] if self._stack else (None, None)
        if args and isinstance(args[0], TaskSystem):
            system = self._systems.get(id(args[0]), (system,))[0]
        self._stack.append((span_id, system))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            self._record(Span(span_id, name, start, time.perf_counter(), parent, system,
                              f"error:{type(err).__name__}"))
            raise
        end = time.perf_counter()
        if isinstance(result, TaskSystem):
            system = self._next_system
            self._next_system += 1
            self._systems[id(result)] = (system, result)
        self._record(Span(span_id, name, start, end, parent, system,
                          _outcome_info(name, args, result)))
        return result

    def _record(self, span: Span) -> None:
        self._stack.pop()
        self.passes[-1].append(span)

    def write_jsonl(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for number, spans in enumerate(self.passes):
                for span in spans:
                    out.write(json.dumps({"pass": number, **asdict(span)}) + "\n")


def _outcome_info(name: str, args: tuple, result: Any) -> Any:
    if name == "analysis.analyze_task":
        ts, k = args[0], args[1]
        first = ts.tasks[k].deadline
        if isinstance(result, NotProven):
            return ("not_proven", result.witness_delta - first + 1,
                    result.witness_delta == first)
        if isinstance(result, Certified):
            return ("certified", max(0, result.scanned_up_to - first + 1), False)
        if isinstance(result, Inapplicable):
            scanned = 0 if result.scanned_up_to is None else result.scanned_up_to - first + 1
            return ("inapplicable", max(0, scanned), False)
    if name == "analysis.scan_upper_bound":
        return "undefined" if isinstance(result, NoDeltaBound) else "defined"
    if name == "cli.simulate_synchronous":
        return (len(result.slots), sum(len(a) for a in result.slots),
                result.first_miss is not None)
    return None


# Per-layer metrics: name -> unit.
LAYER_METRICS = {
    "analysis.bound_calls": "count",
    "analysis.bound_s": "s",
    "analysis.bound_undefined": "count",
    "analysis.task_calls": "count",
    "analysis.scan_s": "s",
    "analysis.check_calls": "count",
    "analysis.check_s": "s",
    "analysis.windows_needed": "count",
    "analysis.first_window_witness": "ratio",
    "analysis.certified": "count",
    "analysis.not_proven": "count",
    "analysis.inapplicable": "count",
    "simulator.calls": "count",
    "simulator.slots": "count",
    "simulator.s": "s",
    "simulator.misses": "count",
    "simulator.trace_entries": "count",
    "generator.systems": "count",
    "generator.s": "s",
    "generator.errors": "count",
    "model.parse_calls": "count",
    "model.parse_s": "s",
    "cli.self_s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one pass; self times come from the spans."""
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    child_time: dict[int, float] = {}
    bound_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
            if s.name == "analysis.scan_upper_bound":
                bound_time[s.parent] = bound_time.get(s.parent, 0.0) + s.end - s.start
    first_window = 0
    for s in spans:
        dur = s.end - s.start
        if s.name == "analysis.scan_upper_bound":
            m["analysis.bound_calls"] += 1
            m["analysis.bound_s"] += dur
            m["analysis.bound_undefined"] += s.info == "undefined"
        elif s.name == "analysis.analyze_task":
            m["analysis.task_calls"] += 1
            m["analysis.scan_s"] += dur - bound_time.get(s.id, 0.0)
            if isinstance(s.info, tuple):
                kind, windows, at_first = s.info
                m[f"analysis.{kind}"] += 1
                m["analysis.windows_needed"] += windows
                first_window += at_first
        elif s.name == "analysis.check_condition":
            m["analysis.check_calls"] += 1
            m["analysis.check_s"] += dur
        elif s.name == "cli.simulate_synchronous":
            m["simulator.calls"] += 1
            m["simulator.s"] += dur
            if isinstance(s.info, tuple):
                slots, entries, missed = s.info
                m["simulator.slots"] += slots
                m["simulator.trace_entries"] += entries
                m["simulator.misses"] += missed
        elif s.name == "cli.generate_task_system":
            m["generator.s"] += dur
            if s.info is None:
                m["generator.systems"] += 1
            else:
                m["generator.errors"] += 1
        elif s.name == "cli.parse_task_system":
            m["model.parse_calls"] += 1
            m["model.parse_s"] += dur
        elif s.name == COMMAND:
            m["cli.self_s"] += dur - child_time.get(s.id, 0.0)
    if m["analysis.not_proven"]:
        m["analysis.first_window_witness"] = first_window / m["analysis.not_proven"]
    return m
