"""Schedulability analysis for gang (rigid parallel) sporadic tasks under Gang EDF."""

from .analysis import (
    AnalysisConfig,
    AnalysisVerdict,
    CarryInStrategy,
    Certified,
    DeltaBound,
    Inapplicable,
    InterferenceSummary,
    NoDeltaBound,
    NotProven,
    ScanGuardError,
    Variant,
    analyze,
    analyze_task,
    check_condition,
    scan_upper_bound,
)
from .demand import hbf, hbf_prime
from .generator import DeadlineMode, GenParams, GenerationError, generate_task_system
from .model import (
    GangTask,
    ParseError,
    TaskSystem,
    ValidationError,
    parse_task_system,
    print_task_system,
    validate,
)
from .simulator import (
    HorizonOverflowError,
    ScheduleTrace,
    first_miss,
    hyperperiod,
    simulate_synchronous,
)

__all__ = [
    "AnalysisConfig",
    "AnalysisVerdict",
    "CarryInStrategy",
    "Certified",
    "DeadlineMode",
    "DeltaBound",
    "GangTask",
    "GenParams",
    "GenerationError",
    "HorizonOverflowError",
    "Inapplicable",
    "InterferenceSummary",
    "NoDeltaBound",
    "NotProven",
    "ParseError",
    "ScanGuardError",
    "ScheduleTrace",
    "TaskSystem",
    "ValidationError",
    "Variant",
    "analyze",
    "analyze_task",
    "check_condition",
    "first_miss",
    "generate_task_system",
    "hbf",
    "hbf_prime",
    "hyperperiod",
    "parse_task_system",
    "print_task_system",
    "scan_upper_bound",
    "simulate_synchronous",
    "validate",
]

__version__ = "0.1.0"
