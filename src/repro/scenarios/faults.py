"""The FaultPlan DSL: declarative, timed fault schedules.

A :class:`FaultPlan` is an ordered collection of fault specifications --
process crashes/restarts, ring-link partitions, disk stalls, message-delay
spikes, NIC isolations -- and the one way to schedule a fault.
:meth:`FaultPlan.arm` puts the start and the end of every fault on the
world's clock; each one is recorded once when it fires, as a
``fault/<kind>`` event in the world's metrics event log (a chaos combo's
``fault_timeline``) and a ``fault-plan`` line in the world trace.

Targets may be literal process names or *selectors* resolved when the fault
fires (not when the plan is written), against the deployment's live state:

* ``coordinator:<group>`` -- the coordinator the registry assigned to the
  group's ring (Ring Paxos has no coordinator failover);
* ``replica:<partition>:<index>`` -- the ``index``-th replica of an MRP-Store
  partition.

A fault's record names the selector and the process it resolved to
(``coordinator:g -> a2``).  Times are absolute simulation seconds from the
start of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union, TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.multiring.deployment import Deployment
    from repro.services.mrpstore import MRPStore
    from repro.sim.world import World

__all__ = [
    "ProcessCrash",
    "ProcessIsolation",
    "LinkPartition",
    "DiskStall",
    "DelaySpike",
    "FaultPlan",
]

#: One start or end of a fault: its instant, its kind, and the action that
#: applies it and returns the record's detail.
Step = Tuple[float, str, Callable[[], str]]


class _Target:
    """A crash or isolation target: resolved when its fault starts, kept for its end.

    A selector that could never be resolved (no deployment or store to
    resolve it against) is refused when the plan is armed.
    """

    def __init__(
        self, selector: str, deployment: Optional["Deployment"], store: Optional["MRPStore"]
    ) -> None:
        if selector.startswith("coordinator:") and deployment is None:
            raise ConfigurationError(
                f"cannot resolve {selector!r}: the fault plan was armed without a deployment"
            )
        if selector.startswith("replica:") and store is None:
            raise ConfigurationError(
                f"cannot resolve {selector!r}: the fault plan was armed without a store"
            )
        self.selector = self.name = selector
        self._deployment = deployment
        self._store = store

    def resolve(self) -> str:
        if self.selector.startswith("coordinator:"):
            group = self.selector.split(":", 1)[1]
            self.name = self._deployment.registry.ring(group).coordinator
        elif self.selector.startswith("replica:"):
            _, partition, index = self.selector.split(":", 2)
            replicas = self._store.replicas_of(partition)
            self.name = replicas[int(index) % len(replicas)].name
        return self.name

    def __str__(self) -> str:
        return self.name if self.name == self.selector else f"{self.selector} -> {self.name}"


@dataclass(frozen=True)
class ProcessCrash:
    """Crash a process at ``at``; optionally restart it at ``restart_at``."""

    target: str
    at: float
    restart_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("faults cannot fire before t=0")
        if self.restart_at is not None and self.restart_at <= self.at:
            raise ConfigurationError("a restart must happen after the crash")

    @property
    def end(self) -> float:
        return self.restart_at if self.restart_at is not None else self.at

    def steps(
        self, world: "World", deployment: Optional["Deployment"], store: Optional["MRPStore"]
    ) -> List[Step]:
        victim = _Target(self.target, deployment, store)

        def crash() -> str:
            world.process(victim.resolve()).crash()
            return str(victim)

        def restart() -> str:
            world.process(victim.name).recover()
            return str(victim)

        if self.restart_at is None:
            return [(self.at, "crash", crash)]
        return [(self.at, "crash", crash), (self.restart_at, "restart", restart)]


@dataclass(frozen=True)
class ProcessIsolation:
    """Cut a process off the network (NIC/switch fault) without crashing it."""

    target: str
    at: float
    rejoin_at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("faults cannot fire before t=0")
        if self.rejoin_at <= self.at:
            raise ConfigurationError("a rejoin must happen after the isolation")

    @property
    def end(self) -> float:
        return self.rejoin_at

    def steps(
        self, world: "World", deployment: Optional["Deployment"], store: Optional["MRPStore"]
    ) -> List[Step]:
        node = _Target(self.target, deployment, store)

        def isolate() -> str:
            world.network.isolate(node.resolve())
            return str(node)

        def rejoin() -> str:
            world.network.rejoin(node.name)
            return str(node)

        return [(self.at, "isolate", isolate), (self.rejoin_at, "rejoin", rejoin)]


@dataclass(frozen=True)
class LinkPartition:
    """Partition every site in ``sites_a`` from every site in ``sites_b``."""

    sites_a: Tuple[str, ...]
    sites_b: Tuple[str, ...]
    at: float
    heal_at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("faults cannot fire before t=0")
        if self.heal_at <= self.at:
            raise ConfigurationError("a partition must heal after it starts")
        if not self.sites_a or not self.sites_b:
            raise ConfigurationError("both sides of a partition need at least one site")

    @property
    def end(self) -> float:
        return self.heal_at

    def steps(
        self, world: "World", deployment: Optional["Deployment"], store: Optional["MRPStore"]
    ) -> List[Step]:
        sides = f"{'/'.join(self.sites_a)} | {'/'.join(self.sites_b)}"

        def cut() -> str:
            world.network.partition_sites(self.sites_a, self.sites_b)
            return sides

        def heal() -> str:
            world.network.heal_sites(self.sites_a, self.sites_b)
            return sides

        return [(self.at, "partition", cut), (self.heal_at, "heal", heal)]


@dataclass(frozen=True)
class DiskStall:
    """Stall the acceptor disks of one ring for ``duration`` seconds."""

    group: str
    at: float
    duration: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("faults cannot fire before t=0")
        if self.duration <= 0:
            raise ConfigurationError("a disk stall needs a positive duration")

    @property
    def end(self) -> float:
        return self.at + self.duration

    def steps(
        self, world: "World", deployment: Optional["Deployment"], store: Optional["MRPStore"]
    ) -> List[Step]:
        if deployment is None:
            raise ConfigurationError(
                f"cannot stall disks of {self.group!r}: the fault plan was "
                "armed without a deployment"
            )

        def stall() -> str:
            for acceptor in deployment.ring(self.group).acceptors:
                disk = deployment.ring_disk(self.group, acceptor)
                if disk is not None:
                    disk.stall(self.duration)
            return f"{self.group} for {self.duration:g}s"

        return [(self.at, "disk-stall", stall)]


@dataclass(frozen=True)
class DelaySpike:
    """Add one-way latency between two sites for a window of time."""

    site_a: str
    site_b: str
    extra_ms: float
    at: float
    clear_at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("faults cannot fire before t=0")
        if self.clear_at <= self.at:
            raise ConfigurationError("a delay spike must clear after it starts")
        if self.extra_ms <= 0:
            raise ConfigurationError("a delay spike needs positive extra latency")

    @property
    def end(self) -> float:
        return self.clear_at

    def steps(
        self, world: "World", deployment: Optional["Deployment"], store: Optional["MRPStore"]
    ) -> List[Step]:
        link = f"{self.site_a}<->{self.site_b}"

        def spike() -> str:
            world.network.set_extra_latency(self.site_a, self.site_b, self.extra_ms * 1e-3)
            return f"{link} +{self.extra_ms:g}ms"

        def clear() -> str:
            world.network.clear_extra_latency(self.site_a, self.site_b)
            return link

        return [(self.at, "delay-spike", spike), (self.clear_at, "delay-clear", clear)]


Fault = Union[ProcessCrash, ProcessIsolation, LinkPartition, DiskStall, DelaySpike]


class FaultPlan:
    """A named, ordered schedule of faults to inject into one run."""

    def __init__(self, name: str, faults: Optional[Sequence[Fault]] = None) -> None:
        self.name = name
        self.faults: List[Fault] = list(faults or [])

    # ------------------------------------------------------------------
    # builder API
    # ------------------------------------------------------------------
    def crash(self, target: str, at: float, restart_at: Optional[float] = None) -> "FaultPlan":
        self.faults.append(ProcessCrash(target, at, restart_at))
        return self

    def crash_coordinator(
        self, group: str, at: float, restart_at: Optional[float] = None
    ) -> "FaultPlan":
        """Crash the ring's registered coordinator (looked up when the fault fires)."""
        return self.crash(f"coordinator:{group}", at, restart_at)

    def crash_replica(
        self, partition: str, index: int, at: float, restart_at: Optional[float] = None
    ) -> "FaultPlan":
        return self.crash(f"replica:{partition}:{index}", at, restart_at)

    def isolate(self, target: str, at: float, rejoin_at: float) -> "FaultPlan":
        self.faults.append(ProcessIsolation(target, at, rejoin_at))
        return self

    def partition(
        self,
        sites_a: Sequence[str],
        sites_b: Sequence[str],
        at: float,
        heal_at: float,
    ) -> "FaultPlan":
        self.faults.append(LinkPartition(tuple(sites_a), tuple(sites_b), at, heal_at))
        return self

    def disk_stall(self, group: str, at: float, duration: float) -> "FaultPlan":
        self.faults.append(DiskStall(group, at, duration))
        return self

    def delay_spike(
        self, site_a: str, site_b: str, extra_ms: float, at: float, clear_at: float
    ) -> "FaultPlan":
        self.faults.append(DelaySpike(site_a, site_b, extra_ms, at, clear_at))
        return self

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def end_time(self) -> float:
        """The time of the last fault transition (all faults healed after this)."""
        return max((fault.end for fault in self.faults), default=0.0)

    def replica_restarts(self) -> int:
        """How many replica crash faults schedule a restart (recovery runs)."""
        return sum(
            1
            for fault in self.faults
            if isinstance(fault, ProcessCrash)
            and fault.restart_at is not None
            and fault.target.startswith("replica:")
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.name!r}, {len(self.faults)} faults)"

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def arm(
        self,
        world: "World",
        deployment: Optional["Deployment"] = None,
        store: Optional["MRPStore"] = None,
    ) -> None:
        """Schedule the start and the end of every fault on ``world.sim``.

        Selector targets are resolved when their fault fires, against the
        live state of the deployment at that moment.  ``deployment`` and
        ``store`` are only required for plans using selector targets or
        disk stalls; a plan that needs one it was not given is refused here,
        before anything is scheduled.
        """
        steps = [step for fault in self.faults for step in fault.steps(world, deployment, store)]
        for at, kind, action in steps:
            world.sim.schedule_at(at, _fire, world, kind, action)


def _fire(world: "World", kind: str, action: Callable[[], str]) -> None:
    """Apply one start or end of a fault and write its one record."""
    detail = action()
    world.trace.record(world.sim.now, "fault-plan", f"{kind} {detail}")
    world.obs.metrics.record_event(world.sim.now, f"fault/{kind}", detail)
