"""Demand functions for sporadic gang tasks.

hbf bounds the time-length demand of jobs that both arrive and have their
deadline inside a window of length L; hbf_prime additionally admits a
carry-in job that arrives before the window and is unfinished at its start.
All values are exact integers.
"""

from __future__ import annotations

from .model import GangTask


def hbf(task: GangTask, length: int) -> int:
    """max(0, floor((L - D) / T) + 1) * C for a window of length L >= 0."""
    if length < 0:
        raise ValueError("window length must be >= 0")
    jobs = (length - task.deadline) // task.period + 1
    return max(0, jobs) * task.wcet


def hbf_prime(task: GangTask, length: int) -> int:
    """floor(L / T) * C + min(C, L mod T); carry-in variant of hbf."""
    if length < 0:
        raise ValueError("window length must be >= 0")
    return (length // task.period) * task.wcet + min(task.wcet, length % task.period)
