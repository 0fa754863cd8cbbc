"""Deployment builder for Multi-Ring Paxos topologies.

Experiments and services need to wire many rings across many nodes: each ring
has an ordered member list, per-member roles, a storage mode and possibly its
own disk (Figure 6 attaches one disk per ring).  :class:`Deployment` keeps
that wiring declarative:

* :meth:`Deployment.add_node` creates (or returns) a named
  :class:`~repro.multiring.node.MultiRingNode`, optionally placed on a WAN
  site;
* :meth:`Deployment.add_ring` registers a ring in the coordination registry
  and joins every member node to it;
* :meth:`Deployment.multicast` submits values through a proposer of the
  target group (round-robin over proposers, like a client choosing a
  proposer).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import MultiRingConfig, RingConfig
from repro.coordination.registry import Registry, RingDescriptor
from repro.errors import ConfigurationError, MulticastError
from repro.multiring.node import MultiRingNode
from repro.runtime.cpu import CPUConfig
from repro.runtime.interfaces import Cluster, StableStore, StorageMode
from repro.types import GroupId, Value

__all__ = ["RingSpec", "Deployment"]


@dataclass
class RingSpec:
    """Declarative description of one ring (one multicast group)."""

    group: GroupId
    #: Ring members in ring order.  Every name must be (or become) a node.
    members: List[str]
    #: Acceptors; defaults to all members.
    acceptors: Optional[List[str]] = None
    #: Proposers; defaults to all members.
    proposers: Optional[List[str]] = None
    #: Learners; defaults to all members.
    learners: Optional[List[str]] = None
    #: Storage mode of this ring's acceptor logs.
    storage_mode: StorageMode = StorageMode.MEMORY
    #: Force a specific coordinator (defaults to the first acceptor in ring order).
    coordinator: Optional[str] = None
    #: If True, all acceptors of the ring share a single disk; otherwise each
    #: acceptor gets its own device (the paper's Figure 6 uses one disk per
    #: ring on every machine).
    share_disk: bool = False

    def resolved_acceptors(self) -> List[str]:
        return list(self.acceptors) if self.acceptors is not None else list(self.members)

    def resolved_proposers(self) -> List[str]:
        return list(self.proposers) if self.proposers is not None else list(self.members)

    def resolved_learners(self) -> List[str]:
        return list(self.learners) if self.learners is not None else list(self.members)


class Deployment:
    """A set of Multi-Ring Paxos nodes and the rings connecting them.

    The one place a ring declaration becomes a registry entry, nodes and
    ``join_ring`` calls, on either backend: ``world`` is the
    :class:`~repro.runtime.interfaces.Cluster` the nodes are placed on (the
    simulated world, or the live cluster with one runtime per node).
    """

    def __init__(
        self,
        world: Cluster,
        config: Optional[MultiRingConfig] = None,
    ) -> None:
        self.world = world
        self.config = config or MultiRingConfig.datacenter()
        #: The one coordination registry every node of this deployment reads.
        self.registry = Registry()
        self.nodes: Dict[str, MultiRingNode] = {}
        self.rings: Dict[GroupId, RingDescriptor] = {}
        self.ring_specs: Dict[GroupId, RingSpec] = {}
        self._proposer_rr: Dict[GroupId, "itertools.cycle"] = {}
        self._ring_disks: Dict[GroupId, Dict[str, StableStore]] = {}

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        site: Optional[str] = None,
        cpu_config: Optional[CPUConfig] = None,
    ) -> MultiRingNode:
        """Create a node (idempotent: an existing node with that name is returned)."""
        if name in self.nodes:
            return self.nodes[name]
        runtime = self.world.runtime_of(name)
        node = MultiRingNode(
            runtime,
            self.registry,
            name,
            config=self.config,
            site=site,
            cpu_config=cpu_config or runtime.cpu_config,
        )
        self.nodes[name] = node
        return node

    def node(self, name: str) -> MultiRingNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise ConfigurationError(f"unknown node {name!r}") from None

    # ------------------------------------------------------------------
    # rings
    # ------------------------------------------------------------------
    def add_ring(
        self,
        spec: RingSpec,
        sites: Optional[Dict[str, str]] = None,
        ring_config: Optional[RingConfig] = None,
        defer_learners: Optional[Sequence[str]] = None,
    ) -> RingDescriptor:
        """Register and wire the ring described by ``spec``.

        Missing member nodes are created on the fly (placed on ``sites`` when
        given).  Returns the ring descriptor.

        ``defer_learners`` names learners that join the ring but do not yet
        deliver from it: their merge splice happens later, at the round
        boundary agreed through the reconfiguration subsystem.  Used when a
        ring is added to a *running* deployment whose learners already
        subscribe to other rings.
        """
        if spec.group in self.rings:
            raise ConfigurationError(f"ring {spec.group!r} already exists")
        deferred = set(defer_learners or ())
        acceptors = spec.resolved_acceptors()
        # Placed before the registry is touched: a started live cluster
        # refuses (its node set fixed the TCP topology).
        runtimes = [self.world.runtime_of(member) for member in spec.members]
        descriptor = self.registry.register_ring(
            spec.group,
            members_in_ring_order=spec.members,
            proposers=spec.resolved_proposers(),
            acceptors=acceptors,
            learners=spec.resolved_learners(),
            coordinator=spec.coordinator,
        )
        config = ring_config or self.config.ring.with_storage(spec.storage_mode)

        shared_disk = runtimes[0].new_store(spec.storage_mode) if spec.share_disk else None
        disks: Dict[str, StableStore] = {}
        for member, runtime in zip(spec.members, runtimes):
            site = sites.get(member) if sites else None
            node = self.add_node(member, site=site)
            disk = None
            if member in acceptors:
                disk = shared_disk if spec.share_disk else runtime.new_store(spec.storage_mode)
                if disk is not None:
                    disks[member] = disk
            node.join_ring(
                spec.group,
                ring_config=config,
                disk=disk,
                defer_subscribe=member in deferred,
            )
        self.rings[spec.group] = descriptor
        self.ring_specs[spec.group] = spec
        self._ring_disks[spec.group] = disks
        self._proposer_rr[spec.group] = itertools.cycle(spec.resolved_proposers())
        return descriptor

    def ring(self, group: GroupId) -> RingDescriptor:
        try:
            return self.rings[group]
        except KeyError:
            raise ConfigurationError(f"unknown ring {group!r}") from None

    def groups(self) -> List[GroupId]:
        return list(self.rings)

    def ring_disk(self, group: GroupId, member: str) -> Optional[StableStore]:
        return self._ring_disks.get(group, {}).get(member)

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def multicast(self, group: GroupId, payload, size_bytes: int, via: Optional[str] = None) -> Value:
        """Multicast through a proposer of ``group`` (round-robin unless ``via`` is given)."""
        return self.node(via or self.next_proposer(group)).multicast(group, payload, size_bytes)

    def next_proposer(self, group: GroupId) -> str:
        """The proposer the next submission to ``group`` goes through (round-robin)."""
        try:
            return next(self._proposer_rr[group])
        except KeyError:
            raise MulticastError(f"unknown group {group!r}") from None

    def coordinator_of(self, group: GroupId) -> MultiRingNode:
        return self.node(self.ring(group).coordinator)
