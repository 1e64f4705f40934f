"""Discrete-time Gang EDF simulator.

EDF priority over gang jobs with first-fit spatial allocation: at every
unit slot boundary the unfinished released jobs are ordered by (absolute
deadline, task index) and walked in order; each job whose width fits the
processors still free in the slot is allocated (lowest-numbered free
processors first) and jobs that do not fit are skipped without blocking
the rest of the list.  Time is exact: integer parameters, unit slots,
full preemption at slot boundaries only.

The schedule is slot-exact, but it is computed by jumping from event to
event rather than stepping slot by slot.  The allocation of a slot is a
function of the set of unfinished released jobs alone: their EDF order
is fixed by each job's absolute deadline and task index, which never
change, and first-fit depends only on that order and the jobs' widths.
That set changes only when a job is released or a running job completes
(a job's remaining work changes only while it runs).  So between two
such events every slot gets the same allocation, and a run of slots can
be executed at once, subtracting its length from each running job's
remaining work.  Deadlines are events too while no miss has been
recorded, because a miss is detected at the slot boundary where a
deadline passes with work remaining; they never change the allocation.
Releases come from a heap of every task's next release time, so each
costs O(log n) there and no event scans every task.  Work therefore
follows the releases, completions and deadlines, not the horizon, and
so does the memory of the run-length trace.  `first_miss` runs the
same event loop without building allocations or runs, for callers
that only ask whether a miss occurs.

The synchronous periodic arrival sequence (all tasks release at 0 and
every period thereafter) is one legal sporadic scenario, so a deadline
miss found here is a definitive negative certificate.  The converse does
not hold: a clean synchronous run does not prove schedulability over all
sporadic arrival sequences.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Optional

from .model import TaskSystem

# Refuse-to-run guard for auto horizons; hyperperiods beyond this are not
# simulated.
HORIZON_GUARD = 2**48


class HorizonOverflowError(RuntimeError):
    """The requested simulation horizon exceeds the configured guard."""


# One slot entry per allocated job: (task index, first processor, width),
# the job's gang being processors first..first+width-1; entries appear in
# allocation (priority) order, so their blocks ascend from processor 0.
SlotAllocation = tuple[tuple[int, int, int], ...]

# Slots start..end-1 (half-open) all hold the same allocation.
Run = tuple[int, int, SlotAllocation]


@dataclass(frozen=True)
class ScheduleTrace:
    """A simulated schedule as canonical runs of equal allocations.

    runs are contiguous from slot 0 (each starts where the previous one
    ends), no two adjacent runs hold equal allocations, and none is
    empty.  They end at the horizon, or earlier at the miss when the
    simulation stopped there.
    """

    horizon: int
    runs: tuple[Run, ...]
    first_miss: Optional[tuple[int, int]]  # (task index, absolute deadline)

    @property
    def slots(self) -> tuple[SlotAllocation, ...]:
        """One allocation per simulated slot, expanded from the runs.

        The expansion holds one entry per slot; long horizons should be
        read through `runs`.
        """
        slots: list[SlotAllocation] = []
        for start, end, allocation in self.runs:
            slots += [allocation] * (end - start)
        return tuple(slots)


def hyperperiod(ts: TaskSystem) -> int:
    """lcm of all periods; raises HorizonOverflowError above HORIZON_GUARD slots."""
    h = _lcm_up_to(ts, HORIZON_GUARD + 1)
    if h > HORIZON_GUARD:
        raise HorizonOverflowError(f"hyperperiod exceeds guard {HORIZON_GUARD}")
    return h


def _lcm_up_to(ts: TaskSystem, cap: int) -> int:
    """lcm(T_i), folded task by task only until it reaches cap."""
    lcm = 1
    for t in ts.tasks:
        if lcm >= cap:
            break
        lcm = math.lcm(lcm, t.period)
    return lcm


def _horizon(ts: TaskSystem, horizon: Optional[int]) -> int:
    """horizon checked against the guard, or one hyperperiod for None."""
    if horizon is None:
        return hyperperiod(ts)
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if horizon > HORIZON_GUARD:
        raise HorizonOverflowError(f"horizon {horizon} exceeds guard {HORIZON_GUARD}")
    return horizon


def simulate_synchronous(
    ts: TaskSystem,
    horizon: Optional[int] = None,
    stop_on_miss: bool = True,
) -> ScheduleTrace:
    """Simulate the synchronous periodic scenario over `horizon` slots.

    horizon=None means one hyperperiod, which is sufficient for a
    go/no-go answer: with constrained deadlines and no miss, every job
    released before the hyperperiod has completed by it, so the system
    state at the hyperperiod repeats the state at time 0.

    A miss is recorded the first time a slot boundary passes some job's
    absolute deadline with work remaining; by default the simulation then
    stops (runs cover the boundary's prefix).  With stop_on_miss=False
    the schedule continues, tardy jobs keeping their original deadline
    priority, and only the first miss is recorded.
    """
    horizon = _horizon(ts, horizon)
    runs: list[Run] = []
    miss = _simulate(ts, horizon, stop_on_miss, runs)
    return ScheduleTrace(horizon, tuple(runs), miss)


def first_miss(ts: TaskSystem, horizon: Optional[int] = None) -> Optional[tuple[int, int]]:
    """The first miss of simulate_synchronous(ts, horizon), or None.

    The horizon is checked as simulate_synchronous checks it (None means
    one hyperperiod), but at most one hyperperiod is simulated and no
    runs are kept.  With D <= T a first hyperperiod without a miss
    leaves no job unfinished, so the state at the lcm repeats the state
    at 0 and the schedule repeats forever: the miss, if any, lies in
    the first min(horizon, lcm) slots.  The lcm is folded task by task
    and stops at the horizon: a partial lcm divides the full one.
    """
    horizon = _horizon(ts, horizon)
    return _simulate(ts, min(horizon, _lcm_up_to(ts, horizon)), True, None)


def _simulate(
    ts: TaskSystem,
    horizon: int,
    stop_on_miss: bool,
    runs: Optional[list[Run]],
) -> Optional[tuple[int, int]]:
    """The event loop: returns the first miss and, unless `runs` is None,
    appends the canonical runs of the schedule to it."""
    m = ts.processors
    tasks = ts.tasks
    # (next release, task position) per task, a heap: its top is the next
    # release, and equal times pop in task order.  release_at is the top's
    # time, or the horizon when there is no task.
    releases = [(0, pos) for pos in range(ts.n)]
    release_at = 0
    # Unfinished released jobs as [deadline, task index, width, remaining],
    # kept sorted: list order is EDF order, since no two jobs share both a
    # deadline and a task index.
    active: list[list[int]] = []
    miss: Optional[tuple[int, int]] = None
    now = 0
    while True:
        if now == release_at:
            while releases and releases[0][0] == now:
                pos = releases[0][1]
                t = tasks[pos]
                bisect.insort(active, [now + t.deadline, t.index, t.width, t.wcet])
                heapq.heapreplace(releases, (now + t.period, pos))
            release_at = releases[0][0] if releases else horizon
        if miss is None and active and active[0][0] <= now:
            miss = (active[0][1], active[0][0])
            if stop_on_miss:
                break
        if now == horizon:
            break

        # Next event: a release, a completion, a deadline while no miss is
        # recorded (every active deadline is then later than now), or the
        # horizon.  The allocation holds for every slot until then.
        end = release_at if release_at < horizon else horizon
        if miss is None and active and active[0][0] < end:
            end = active[0][0]
        allocation: list[tuple[int, int, int]] = []
        running: list[list[int]] = []
        used = 0
        for job in active:
            width = job[2]
            if used + width <= m:
                if runs is not None:
                    allocation.append((job[1], used, width))
                used += width
                running.append(job)
                if now + job[3] < end:
                    end = now + job[3]
                if used == m:
                    break  # no job fits on a full platform
        for job in running:
            job[3] -= end - now
            if job[3] == 0:
                active.remove(job)

        if runs is not None:
            slot = tuple(allocation)
            if runs and runs[-1][2] == slot:
                runs[-1] = (runs[-1][0], end, slot)
            else:
                runs.append((now, end, slot))
        now = end
    return miss
