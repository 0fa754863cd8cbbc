"""Fault plans aligned with workload phase schedules.

The FaultPlan DSL (:mod:`repro.scenarios.faults`) speaks absolute times; the
workload engine (:mod:`repro.workloads.engine`) speaks phases.  This module
joins them: given a :class:`~repro.workloads.engine.PhaseSchedule`, build a
plan whose faults land *inside* specific phases -- the canonical example
being a coordinator crash in the middle of a flash crowd, when the ring
serving the hot key range is already the bottleneck.

Lining faults up with phases by hand invites off-by-one-boundary bugs
(``phase_at`` puts a boundary instant in the *new* phase); deriving the
fault times from the schedule keeps the two subsystems agreeing about which
phase a fault belongs to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.scenarios.faults import FaultPlan

if TYPE_CHECKING:
    from repro.workloads.engine import PhaseSchedule

__all__ = ["flash_crowd_fault_plan"]


def flash_crowd_fault_plan(
    schedule: PhaseSchedule,
    hot_group: str,
    *,
    crash_fraction: float = 0.5,
    restart_delay: Optional[float] = None,
    name: str = "flash-crowd",
) -> FaultPlan:
    """A plan crashing the hot ring's coordinator mid-peak.

    The crash lands ``crash_fraction`` of the way through the schedule's
    highest-rate phase (its flash crowd), targeting the *current* coordinator
    of ``hot_group`` -- the ring serving the crowded key range -- resolved
    when the fault fires, so an earlier election does not stale the plan.
    The coordinator restarts ``restart_delay`` seconds later (default: at
    the peak phase's end, so recovery overlaps the tail of the spike).
    """
    if not 0.0 < crash_fraction < 1.0:
        raise ConfigurationError("crash_fraction must be inside (0, 1)")
    peak = schedule.peak_phase()
    peak_end = schedule.next_boundary(peak.start)
    crash_at = peak.start + crash_fraction * (peak_end - peak.start)
    if restart_delay is None:
        restart_at = peak_end
    else:
        restart_at = crash_at + restart_delay
    if restart_at <= crash_at:
        raise ConfigurationError("the coordinator must restart after it crashes")
    plan = FaultPlan(name)
    plan.crash_coordinator(hot_group, at=crash_at, restart_at=min(restart_at, schedule.duration))
    return plan
