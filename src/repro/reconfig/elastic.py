"""Elastic MRP-Store scale-out: add a ring, split partitions onto it.

:func:`scale_out` performs the full live expansion the paper's Figure 7
motivates, as a *runtime* event:

1. build the new ring's acceptor processes and the replicas of the new
   partitions, each placed with ``cluster.runtime_of(name)`` (they start
   immediately -- the simulated world supports late joiners; a started live
   cluster refuses them, its node set fixed the TCP topology);
2. add the ring through the :class:`~repro.coordination.reconfig.
   ReconfigController` (existing learners, if any, are spliced at a round
   boundary);
3. initiate one key-range migration per split; the migration agents complete
   the handoffs deterministically while traffic keeps flowing.

The helper only wires objects together -- all correctness-critical ordering
comes from the control commands travelling through the rings.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.multiring.deployment import RingSpec
from repro.reconfig.migration import MigrationAgent
from repro.services.mrpstore.service import SERVICE_NAME, MRPStore
from repro.services.mrpstore.state import MRPStoreStateMachine
from repro.runtime.interfaces import StorageMode
from repro.smr.frontend import ProposerFrontend
from repro.smr.replica import Replica
from repro.types import GroupId

__all__ = ["scale_out", "migrations_installed"]

#: One split: ``(source_partition, new_partition, split_key)``.
Split = Tuple[str, str, str]


def scale_out(
    store: MRPStore,
    controller,
    new_group: GroupId,
    splits: Sequence[Split],
    replicas_per_partition: Optional[int] = None,
    acceptors_per_partition: Optional[int] = None,
    site: Optional[str] = None,
) -> List[int]:
    """Add ``new_group`` to a running store and migrate ``splits`` onto it.

    Returns the migration ids, in initiation order.  The migrations complete
    asynchronously; run the world and use :func:`migrations_installed` to
    check for completion.
    """
    if not splits:
        raise ServiceError("scale_out needs at least one partition split")
    current = store.current_map
    template = store.partitions[splits[0][0]]
    replicas_per = replicas_per_partition or len(template.replicas)
    acceptors_per = acceptors_per_partition or len(template.acceptors)
    deployment = store.deployment
    world = store.world

    acceptor_names = [f"{new_group}-acc{i}" for i in range(acceptors_per)]
    new_partitions = [new_partition for _source, new_partition, _key in splits]

    # Replicas of the new partitions.  Their state machines start with the
    # *current* map (under which they own nothing); the migration install
    # hands them their key range and the new map version atomically.
    ring_replica_names: List[str] = []
    partition_replicas: Dict[str, List[Replica]] = {}
    recovery_enabled = store.enable_recovery
    for new_partition in new_partitions:
        replicas: List[Replica] = []
        for index in range(replicas_per):
            name = f"{new_partition}-rep{index}"
            machine = MRPStoreStateMachine(new_partition, current)
            replica = Replica(
                world.runtime_of(name),
                deployment.registry,
                name,
                state_machine=machine,
                partition=new_partition,
                config=store.config,
                site=site,
                monitor_series=new_partition,
            )
            deployment.nodes[name] = replica
            MigrationAgent(replica, service=SERVICE_NAME, awaiting_install=True)
            if recovery_enabled:
                disk = replica.world.new_store(StorageMode.SYNC_SSD)
                replica.enable_recovery(store.recovery_config, checkpoint_disk=disk)
            replicas.append(replica)
            ring_replica_names.append(name)
        partition_replicas[new_partition] = replicas

    spec = RingSpec(
        group=new_group,
        members=acceptor_names + ring_replica_names,
        acceptors=acceptor_names,
        proposers=acceptor_names,
        learners=ring_replica_names,
        storage_mode=store.storage_mode,
    )
    sites = {name: site for name in spec.members} if site else None
    controller.add_ring(spec, sites=sites)
    if recovery_enabled:
        # Mirror the store's construction-time wiring: the new ring's
        # coordinator runs trim rounds and every acceptor executes them, so
        # the added acceptor logs do not grow without bound.
        from repro.recovery.trimming import TrimProtocol

        for acceptor_name in acceptor_names:
            TrimProtocol(deployment.node(acceptor_name), store.recovery_config).start()

    frontends = [
        ProposerFrontend(
            deployment.node(name), batching=store.batching, router=store.route_by_epoch
        )
        for name in acceptor_names
    ]
    for new_partition in new_partitions:
        store.register_partition(
            new_partition, new_group, acceptor_names, partition_replicas[new_partition], frontends
        )

    migration_ids: List[int] = []
    for source, new_partition, split_key in splits:
        designated = store.partitions[source].replicas[0].name
        migration_id, _new_map = controller.migrate(
            SERVICE_NAME, source, new_partition, split_key, new_group, designated
        )
        migration_ids.append(migration_id)
    return migration_ids


def migrations_installed(store: MRPStore, partitions: Sequence[str]) -> bool:
    """True when every replica of ``partitions`` has installed its handoff."""
    for name in partitions:
        for replica in store.partitions[name].replicas:
            agent = getattr(replica, "migration_agent", None)
            if agent is None or agent.awaiting_install:
                return False
    return True
