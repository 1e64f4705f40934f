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
Work is therefore proportional to the number of releases, completions
and deadlines, not to the horizon, and so is the memory of the
run-length trace.

The synchronous periodic arrival sequence (all tasks release at 0 and
every period thereafter) is one legal sporadic scenario, so a deadline
miss found here is a definitive negative certificate.  The converse does
not hold: a clean synchronous run does not prove schedulability over all
sporadic arrival sequences.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional

from .model import TaskSystem

# Refuse-to-run guard for auto horizons; hyperperiods beyond this are not
# simulated.
HORIZON_GUARD = 2**48


class HorizonOverflowError(RuntimeError):
    """The requested simulation horizon exceeds the configured guard."""


# One slot entry per allocated job: (task index, processors), processors
# ascending; entries appear in allocation (priority) order.
SlotAllocation = tuple[tuple[int, tuple[int, ...]], ...]

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
    h = math.lcm(*(t.period for t in ts.tasks))
    if h > HORIZON_GUARD:
        raise HorizonOverflowError(f"hyperperiod {h} exceeds guard {HORIZON_GUARD}")
    return h


def miss_horizon(ts: TaskSystem, horizon: Optional[int]) -> Optional[int]:
    """A horizon of at most `horizon` slots with the same first miss.

    With D <= T a first hyperperiod without a miss repeats forever, so
    the miss, if any, lies in it: min(horizon, lcm).  None (one
    hyperperiod) and horizons above HORIZON_GUARD come back unchanged,
    so that simulate_synchronous refuses the same horizons.
    """
    if horizon is None or horizon > HORIZON_GUARD:
        return horizon
    return min(horizon, math.lcm(*(t.period for t in ts.tasks)))


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
    if horizon is None:
        horizon = hyperperiod(ts)
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if horizon > HORIZON_GUARD:
        raise HorizonOverflowError(f"horizon {horizon} exceeds guard {HORIZON_GUARD}")

    m = ts.processors
    next_release = [0] * ts.n
    # Unfinished released jobs as [deadline, task index, width, remaining],
    # kept sorted: list order is EDF order, since no two jobs share both a
    # deadline and a task index.
    active: list[list[int]] = []
    runs: list[Run] = []
    first_miss: Optional[tuple[int, int]] = None
    now = 0
    while True:
        for t in ts.tasks:
            if next_release[t.index] == now:
                bisect.insort(active, [now + t.deadline, t.index, t.width, t.wcet])
                next_release[t.index] = now + t.period
        if first_miss is None and active and active[0][0] <= now:
            first_miss = (active[0][1], active[0][0])
            if stop_on_miss:
                break
        if now == horizon:
            break

        allocation: list[tuple[int, tuple[int, ...]]] = []
        running: list[int] = []  # positions in active
        used = 0
        for pos, job in enumerate(active):
            width = job[2]
            if used + width <= m:
                allocation.append((job[1], tuple(range(used, used + width))))
                used += width
                running.append(pos)
                if used == m:
                    break  # no job fits on a full platform
        # Next event: a release, a completion, a deadline while no miss is
        # recorded (every active deadline is then later than now), or the
        # horizon.  The allocation holds for every slot until then.
        end = min(horizon, min(next_release, default=horizon))
        if first_miss is None and active:
            end = min(end, active[0][0])
        for pos in running:
            end = min(end, now + active[pos][3])
        for pos in reversed(running):
            active[pos][3] -= end - now
            if active[pos][3] == 0:
                del active[pos]

        slot = tuple(allocation)
        if runs and runs[-1][2] == slot:
            runs[-1] = (runs[-1][0], end, slot)
        else:
            runs.append((now, end, slot))
        now = end
    return ScheduleTrace(horizon, tuple(runs), first_miss)


def check_no_miss(ts: TaskSystem) -> bool:
    """True iff one hyperperiod of the synchronous scenario has no miss.

    False proves the system is not Gang EDF schedulable; True is only the
    absence of a counterexample in this particular scenario.
    """
    return simulate_synchronous(ts).first_miss is None
