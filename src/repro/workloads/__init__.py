"""Workload generators.

* :mod:`repro.workloads.distributions` -- uniform / zipfian / latest key
  choosers (the request distributions of YCSB).
* :mod:`repro.workloads.ycsb` -- the six YCSB core workloads (A-F) used by
  the Figure 4 comparison, targeting any key-value service that exposes the
  MRP-Store client library surface.
* :mod:`repro.workloads.simple` -- the paper's other drivers: fixed-size
  append streams for dLog (Figures 5 and 6) and update-only streams for the
  horizontal-scalability experiment (Figure 7).
* :mod:`repro.workloads.engine` -- the **open-loop** million-user workload
  engine: Poisson/Zipf arrival sampling (no per-client objects), phase
  schedules (diurnal curves, flash crowds, hotspot migration), trace
  record/replay, and the one load path:
  :class:`~repro.workloads.engine.OpenLoopLoadGenerator` (a client process
  on the ``Cluster`` seam, sharing :class:`~repro.smr.client.RequestClient`
  with the closed-loop client) under one
  :class:`~repro.workloads.engine.WorkloadManager`, against a group or a
  service on either backend.  See ``docs/workloads.md``.
"""

from repro.workloads.distributions import UniformChooser, ZipfianChooser, LatestChooser
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload, YCSB_WORKLOADS
from repro.workloads.simple import AppendWorkload, UpdateWorkload
from repro.workloads.engine import (
    ArrivalEvent,
    GroupTarget,
    OpenLoopLoadGenerator,
    OpenLoopSampler,
    Phase,
    PhaseSchedule,
    ServiceTarget,
    WorkloadEntry,
    WorkloadManager,
    WorkloadTrace,
)

__all__ = [
    "UniformChooser",
    "ZipfianChooser",
    "LatestChooser",
    "YCSBConfig",
    "YCSBWorkload",
    "YCSB_WORKLOADS",
    "AppendWorkload",
    "UpdateWorkload",
    "ArrivalEvent",
    "Phase",
    "PhaseSchedule",
    "OpenLoopSampler",
    "WorkloadTrace",
    "WorkloadEntry",
    "WorkloadManager",
    "ServiceTarget",
    "GroupTarget",
    "OpenLoopLoadGenerator",
]
