"""The reconfiguration controller.

A :class:`ReconfigController` is the control-plane process (in the paper's
deployment it would run next to Zookeeper) that sequences reconfigurations:

1. **ring addition** -- register the new ring in the registry, create and
   start its member processes (the world supports late joiners), and splice
   existing learners into the new ring at an agreed round boundary by
   multicasting a :class:`~repro.reconfig.commands.SpliceRing` command through
   a ring they already deliver from;

2. **key-range migration** -- compute the next version of a service's
   partition map, multicast a :class:`~repro.reconfig.commands.
   MigrationPrepare` on the *source* ring (the atomic handoff point), and
   publish the new map in the registry so clients and front-ends re-route.

The controller itself never touches replica state: every state transition is
driven by control commands delivered through the rings, which is what makes
the reconfiguration safe under concurrent traffic.  The controller merely
*initiates* steps and records them; it is stateless enough to be restartable
(all durable state lives in the registry and in the rings).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.coordination.registry import Registry, RingDescriptor
from repro.errors import CoordinationError
from repro.reconfig.commands import (
    MigrationPrepare,
    ProposeControl,
    SpliceRing,
    next_migration_id,
)
from repro.runtime.actor import Process
from repro.runtime.interfaces import Runtime
from repro.types import GroupId

__all__ = ["ReconfigController"]


class ReconfigController(Process):
    """Coordinator-driven reconfiguration of a running deployment."""

    def __init__(
        self,
        world: Runtime,
        deployment,
        name: str = "reconfig-controller",
        site: Optional[str] = None,
    ) -> None:
        super().__init__(world, name, site)
        self.deployment = deployment
        self.registry: Registry = deployment.registry
        #: Chronological record of initiated reconfiguration steps.
        self.events: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    def propose_control(self, group: GroupId, payload, size_bytes: Optional[int] = None) -> str:
        """Inject a control payload into ``group`` through a live proposer."""
        descriptor = self.registry.ring(group)
        proposer = self.registry.first_up(descriptor.proposers)
        if proposer is None:
            raise CoordinationError(f"no live proposer for group {group!r}")
        if size_bytes is None:
            size_bytes = getattr(payload, "size_bytes", 256)
        self.send_direct(
            proposer, ProposeControl(group=group, payload=payload, payload_bytes=size_bytes)
        )
        return proposer

    def send_direct(self, dest: str, msg) -> None:
        self.send(dest, msg, size_bytes=getattr(msg, "size_bytes", 128))

    # ------------------------------------------------------------------
    # ring addition
    # ------------------------------------------------------------------
    def add_ring(
        self,
        spec,
        sites: Optional[Dict[str, str]] = None,
        ring_config=None,
        splice_via: Optional[GroupId] = None,
    ) -> RingDescriptor:
        """Add a ring to the running deployment.

        Learner members that already deliver from other rings are *spliced*:
        they join the ring immediately (buffering its decisions) but start
        delivering only at the round boundary agreed through a
        :class:`SpliceRing` command multicast on ``splice_via`` -- a ring
        every such learner already subscribes to.  Brand-new learners simply
        start delivering from the new ring's first instance.
        """
        spliced = [
            name
            for name in spec.resolved_learners()
            if name in self.deployment.nodes and self.deployment.nodes[name].subscriptions
        ]
        if spliced and splice_via is None:
            raise CoordinationError(
                f"ring {spec.group!r} has learners with existing subscriptions "
                f"({spliced}); a splice_via carrier group is required"
            )
        descriptor = self.deployment.add_ring(
            spec, sites=sites, ring_config=ring_config, defer_learners=spliced
        )
        if spliced:
            carrier = self.registry.ring(splice_via)  # validates the carrier exists
            for learner in spliced:
                if splice_via not in self.deployment.nodes[learner].subscriptions:
                    raise CoordinationError(
                        f"learner {learner!r} does not subscribe to the splice "
                        f"carrier {splice_via!r}"
                    )
            self.propose_control(
                carrier.group, SpliceRing(group=spec.group, learners=tuple(spliced))
            )
        self.events.append(
            {
                "type": "add-ring",
                "group": spec.group,
                "at": self.now,
                "spliced_learners": list(spliced),
            }
        )
        self.world.monitor.increment("reconfig/rings_added")
        return descriptor

    # ------------------------------------------------------------------
    # elastic re-partitioning
    # ------------------------------------------------------------------
    def migrate(
        self,
        service: str,
        source_partition: str,
        new_partition: str,
        split_key: str,
        destination_group: GroupId,
        designated: str,
    ) -> Tuple[int, Any]:
        """Migrate ``[split_key, upper)`` of ``source_partition`` to ``new_partition``.

        The new partition lives on ``destination_group``.  ``designated`` is
        the source replica that ships the state and forwards late commands.
        Returns ``(migration_id, new_partition_map)``.
        """
        current = self.registry.partition_map(service)
        new_map = current.split_partition(
            source_partition, split_key, new_partition, destination_group
        )
        source_group = current.group_of_partition(source_partition)
        migration_id = next_migration_id()
        prepare = MigrationPrepare(
            migration_id=migration_id,
            service=service,
            new_map=new_map,
            source=source_partition,
            dest=new_partition,
            designated=designated,
        )
        self.propose_control(source_group, prepare)
        # Publish the new map (the paper stores it in Zookeeper): clients and
        # front-ends re-route from here on; commands still in flight under the
        # old map are forwarded by the designated source replica.
        self.registry.store_partition_map(service, new_map)
        self.events.append(
            {
                "type": "migrate",
                "migration_id": migration_id,
                "service": service,
                "source": source_partition,
                "dest": new_partition,
                "split_key": split_key,
                "at": self.now,
                "map_version": new_map.version,
            }
        )
        self.world.monitor.increment("reconfig/migrations_started")
        return migration_id, new_map
