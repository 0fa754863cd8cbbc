"""Declarative chaos scenarios: WAN presets, fault plans, invariant campaigns.

The subsystem has three layers:

* :mod:`repro.scenarios.topologies` -- named WAN geographies (``wan3``,
  ``dc8``) compiled into simulator topologies;
* :mod:`repro.scenarios.faults` -- the :class:`FaultPlan` DSL for timed
  coordinator/replica crashes, ring-link partitions, disk stalls, latency
  spikes and NIC isolations;
* :mod:`repro.scenarios.campaign` -- the :class:`CampaignRunner` that sweeps
  scenario × fault combinations and checks the global invariants
  (:mod:`repro.scenarios.invariants`) after each run.

:mod:`repro.scenarios.flashcrowd` bridges to the workload engine: it derives
fault plans from :class:`~repro.workloads.engine.PhaseSchedule` phases (e.g.
a coordinator crash in the middle of a flash crowd).

``python -m repro.bench chaos`` is the command-line entry point.

The campaign layer runs MRP-Store under client load, so it loads the
services, the SMR client and the workload generators; the package imports
it on first use of ``CampaignRunner`` or ``ScenarioSpec``, and importing the
topologies, fault plans or invariants loads none of that.
"""

from repro.scenarios.faults import (
    DelaySpike,
    DiskStall,
    FaultPlan,
    LinkPartition,
    ProcessCrash,
    ProcessIsolation,
)
from repro.scenarios.flashcrowd import flash_crowd_fault_plan
from repro.scenarios.invariants import InvariantResult
from repro.scenarios.topologies import TOPOLOGY_PRESETS, TopologyPreset, get_preset

__all__ = [
    "CampaignRunner",
    "ScenarioSpec",
    "FaultPlan",
    "ProcessCrash",
    "ProcessIsolation",
    "LinkPartition",
    "DiskStall",
    "DelaySpike",
    "InvariantResult",
    "flash_crowd_fault_plan",
    "TopologyPreset",
    "TOPOLOGY_PRESETS",
    "get_preset",
]


def __getattr__(name: str):
    if name in ("CampaignRunner", "ScenarioSpec"):
        from repro.scenarios import campaign

        return getattr(campaign, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
