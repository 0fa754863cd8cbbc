"""MRP-Store deployment builder and client library.

This module wires a complete MRP-Store deployment on top of
:class:`~repro.multiring.deployment.Deployment`:

* one Ring Paxos ring per partition, with its acceptor/proposer nodes and its
  replicas (the learners),
* optionally a *global* ring that every replica subscribes to, carrying
  cross-partition commands (scans under hash partitioning); disabling it gives
  the paper's "independent rings" configuration, which orders commands within
  partitions only,
* proposer front-ends on the acceptor nodes (clients connect to them), with
  optional 32 KB command batching,
* a client library translating Table 1 operations into
  :class:`~repro.smr.client.Request` objects routed to the right group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import BatchingConfig, MultiRingConfig, RecoveryConfig
from repro.errors import ConfigurationError, CoordinationError, ServiceError
from repro.multiring.deployment import Deployment, RingSpec
from repro.reconfig.migration import MigrationAgent
from repro.runtime.interfaces import Cluster, StorageMode
from repro.smr.client import Request
from repro.smr.command import Command
from repro.smr.frontend import ProposerFrontend
from repro.smr.replica import Replica
from repro.services.mrpstore.partitioning import PartitionMap
from repro.services.mrpstore.state import MRPStoreStateMachine
from repro.types import GroupId

__all__ = ["MRPStore"]

#: Registry key under which the store's partition map is published.
SERVICE_NAME = "mrp-store"

#: Single-key operations: ``(op, key, ...)``.
_POINT_OPS = ("read", "update", "insert", "delete", "rmw")


@dataclass
class _Partition:
    name: str
    group: GroupId
    acceptors: List[str]
    replicas: List[Replica]
    frontends: List[ProposerFrontend]


class MRPStore:
    """A complete, runnable MRP-Store deployment."""

    GLOBAL_GROUP: GroupId = "ring-global"

    def __init__(
        self,
        world: Cluster,
        partitions: int = 3,
        replicas_per_partition: int = 3,
        acceptors_per_partition: int = 3,
        use_global_ring: bool = True,
        scheme: str = "hash",
        storage_mode: StorageMode = StorageMode.ASYNC_SSD,
        config: Optional[MultiRingConfig] = None,
        recovery_config: Optional[RecoveryConfig] = None,
        batching: Optional[BatchingConfig] = None,
        coordinator_batching: Optional[BatchingConfig] = None,
        pipeline_depth: Optional[int] = None,
        partition_sites: Optional[Dict[str, str]] = None,
        enable_recovery: bool = False,
        key_space: int = 100000,
        rings: Optional[int] = None,
    ) -> None:
        if partitions < 1:
            raise ConfigurationError("MRP-Store needs at least one partition")
        if rings is not None and not 1 <= rings <= partitions:
            raise ConfigurationError(
                "the ring count must be between 1 and the partition count"
            )
        self.world = world
        self.config = config or MultiRingConfig.datacenter()
        self.recovery_config = recovery_config or RecoveryConfig()
        self.batching = batching or BatchingConfig(enabled=False)
        self.use_global_ring = use_global_ring
        self.storage_mode = storage_mode
        self.key_space = key_space
        self.enable_recovery = enable_recovery
        # Per-ring protocol configuration: coordinator-side batching and the
        # pipelined instance window (None keeps the MultiRingConfig defaults).
        self._ring_config = self.config.ring.with_storage(storage_mode)
        if coordinator_batching is not None:
            self._ring_config = self._ring_config.with_batching(coordinator_batching)
        if pipeline_depth is not None:
            self._ring_config = self._ring_config.with_pipeline_depth(pipeline_depth)
        self.deployment = Deployment(world, self.config)

        partition_names = [f"p{i}" for i in range(partitions)]
        # With fewer rings than partitions, contiguous blocks of partitions
        # share a ring (the elastic starting point: e.g. 2 partitions on one
        # ring, later migrated apart by the reconfiguration subsystem).
        ring_count = partitions if rings is None else rings
        if ring_count == partitions:
            groups = {name: f"ring-{name}" for name in partition_names}
        else:
            groups = {
                name: f"ring-g{index * ring_count // partitions}"
                for index, name in enumerate(partition_names)
            }
        if scheme == "range":
            bounds = tuple(
                self._key(int(self.key_space * (i + 1) / partitions))
                for i in range(partitions - 1)
            )
            self.partition_map = PartitionMap.ranged(
                partition_names,
                groups,
                bounds,
                global_group=self.GLOBAL_GROUP if use_global_ring else None,
            )
        else:
            self.partition_map = PartitionMap.hashed(
                partition_names,
                groups,
                global_group=self.GLOBAL_GROUP if use_global_ring else None,
            )

        self.partitions: Dict[str, _Partition] = {}
        self._build(
            partition_names,
            replicas_per_partition,
            acceptors_per_partition,
            partition_sites or {},
            enable_recovery,
        )
        self.deployment.registry.store_partition_map("mrp-store", self.partition_map)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(
        self,
        partition_names: Sequence[str],
        replicas_per_partition: int,
        acceptors_per_partition: int,
        partition_sites: Dict[str, str],
        enable_recovery: bool,
    ) -> None:
        global_members: List[str] = []
        global_acceptors: List[str] = []
        global_learners: List[str] = []

        # Partitions sharing a multicast group share that group's ring (its
        # acceptors order commands for all of them; every replica of every
        # partition on the ring learns them and filters by ownership).
        group_partitions: Dict[GroupId, List[str]] = {}
        for partition_name in partition_names:
            group = self.partition_map.group_of_partition(partition_name)
            group_partitions.setdefault(group, []).append(partition_name)

        for group, names in group_partitions.items():
            site = partition_sites.get(names[0])
            prefix = names[0] if len(names) == 1 else group
            acceptor_names = [f"{prefix}-acc{i}" for i in range(acceptors_per_partition)]

            # Replica nodes must exist before the ring is added so we can use
            # the Replica subclass (the deployment would otherwise create
            # plain MultiRingNode learners).
            ring_replica_names: List[str] = []
            partition_replicas: Dict[str, List[Replica]] = {}
            for partition_name in names:
                replicas: List[Replica] = []
                for index in range(replicas_per_partition):
                    replica_name = f"{partition_name}-rep{index}"
                    state_machine = MRPStoreStateMachine(partition_name, self.partition_map)
                    replica = Replica(
                        self.world.runtime_of(replica_name),
                        self.deployment.registry,
                        replica_name,
                        state_machine=state_machine,
                        partition=partition_name,
                        config=self.config,
                        site=site,
                        monitor_series=partition_name,
                    )
                    self.deployment.nodes[replica_name] = replica
                    MigrationAgent(replica, service=SERVICE_NAME)
                    replicas.append(replica)
                    ring_replica_names.append(replica_name)
                partition_replicas[partition_name] = replicas

            for acceptor_name in acceptor_names:
                self.deployment.add_node(acceptor_name, site=site)

            members = acceptor_names + ring_replica_names
            self.deployment.add_ring(
                RingSpec(
                    group=group,
                    members=members,
                    acceptors=acceptor_names,
                    proposers=acceptor_names,
                    learners=ring_replica_names,
                    storage_mode=self.storage_mode,
                ),
                sites={name: site for name in members} if site else None,
                ring_config=self._ring_config,
            )

            frontends = [
                ProposerFrontend(
                    self.deployment.node(name),
                    batching=self.batching,
                    router=self.route_by_epoch,
                )
                for name in acceptor_names
            ]
            for partition_name in names:
                self.partitions[partition_name] = _Partition(
                    name=partition_name,
                    group=group,
                    acceptors=acceptor_names,
                    replicas=partition_replicas[partition_name],
                    frontends=frontends,
                )

            global_members.append(acceptor_names[0])
            global_acceptors.append(acceptor_names[0])
            global_learners.extend(ring_replica_names)

        if self.use_global_ring:
            self.deployment.add_ring(
                RingSpec(
                    group=self.GLOBAL_GROUP,
                    members=global_members + global_learners,
                    acceptors=global_acceptors,
                    proposers=global_acceptors,
                    learners=global_learners,
                    storage_mode=self.storage_mode,
                ),
                ring_config=self._ring_config,
            )

        if enable_recovery:
            for partition in self.partitions.values():
                for replica in partition.replicas:
                    disk = replica.world.new_store(StorageMode.SYNC_SSD)
                    replica.enable_recovery(self.recovery_config, checkpoint_disk=disk)
            # The trim protocol also needs the acceptor side: ring coordinators
            # run the periodic trim rounds and every acceptor executes the
            # resulting TrimCommand against its stable log.
            from repro.recovery.trimming import TrimProtocol

            for partition in self.partitions.values():
                for acceptor_name in partition.acceptors:
                    TrimProtocol(self.deployment.node(acceptor_name), self.recovery_config).start()

    # ------------------------------------------------------------------
    # reconfiguration support
    # ------------------------------------------------------------------
    @property
    def current_map(self) -> PartitionMap:
        """The latest partition-map version published in the registry.

        Falls back to the construction-time map when nothing is published
        (cannot happen after ``__init__``, but keeps the property total).
        """
        try:
            return self.deployment.registry.partition_map(SERVICE_NAME)
        except CoordinationError:
            return self.partition_map

    def route_by_epoch(self, command: Command, group: GroupId) -> GroupId:
        """Front-end router: correct a stale target group for point operations."""
        operation = command.operation
        if (
            isinstance(operation, tuple)
            and len(operation) >= 2
            and operation[0] in _POINT_OPS
            and isinstance(operation[1], str)
        ):
            return self.current_map.group_of_key(operation[1])
        return group

    def register_partition(
        self,
        name: str,
        group: GroupId,
        acceptors: List[str],
        replicas: List[Replica],
        frontends: List[ProposerFrontend],
    ) -> None:
        """Attach a partition added at runtime (elastic scale-out)."""
        if name in self.partitions:
            raise ServiceError(f"partition {name!r} already exists")
        self.partitions[name] = _Partition(
            name=name, group=group, acceptors=list(acceptors), replicas=list(replicas),
            frontends=list(frontends),
        )

    # ------------------------------------------------------------------
    # key helpers
    # ------------------------------------------------------------------
    def _key(self, index: int) -> str:
        return f"user{index:012d}"

    def key(self, index: int) -> str:
        """The canonical key for record ``index`` (YCSB-style ``userNNN`` keys)."""
        return self._key(index)

    # ------------------------------------------------------------------
    # data loading (bypasses consensus, used to pre-populate the database)
    # ------------------------------------------------------------------
    def load(self, record_count: int, value_size: int = 1024) -> None:
        """Populate every replica with ``record_count`` records of ``value_size`` bytes.

        Each key is routed once, by the current partition map, and each
        replica takes its partition's keys in one call.
        """
        partition_of = self.current_map.partition_of
        keys: Dict[str, List[str]] = {}
        for index in range(record_count):
            key = self._key(index)
            keys.setdefault(partition_of(key), []).append(key)
        for partition_name, partition_keys in keys.items():
            for replica in self.partitions[partition_name].replicas:
                replica.state_machine.insert_all(partition_keys, value_size)

    # ------------------------------------------------------------------
    # client library (Table 1)
    # ------------------------------------------------------------------
    def read(self, key: str, series: Optional[str] = None) -> Request:
        return Request(("read", key), 64 + len(key), self.current_map.group_of_key(key), 1, series)

    def update(self, key: str, value_size: int, series: Optional[str] = None) -> Request:
        return Request(
            ("update", key, value_size),
            64 + len(key) + value_size,
            self.current_map.group_of_key(key),
            1,
            series,
        )

    def insert(self, key: str, value_size: int, series: Optional[str] = None) -> Request:
        return Request(
            ("insert", key, value_size),
            64 + len(key) + value_size,
            self.current_map.group_of_key(key),
            1,
            series,
        )

    def delete(self, key: str, series: Optional[str] = None) -> Request:
        return Request(("delete", key), 64 + len(key), self.current_map.group_of_key(key), 1, series)

    def read_modify_write(self, key: str, value_size: int, series: Optional[str] = None) -> Request:
        return Request(
            ("rmw", key, value_size),
            64 + len(key) + value_size,
            self.current_map.group_of_key(key),
            1,
            series,
        )

    def scan(self, start_key: str, end_key: str, series: Optional[str] = None) -> Request:
        group, expected = self.current_map.scan_group(start_key, end_key)
        return Request(("scan", start_key, end_key), 96 + len(start_key), group, expected, series)

    # ------------------------------------------------------------------
    # deployment access
    # ------------------------------------------------------------------
    def frontends_for_client(self, client_index: int = 0) -> Dict[GroupId, str]:
        """A group -> front-end-node mapping for one client (spread round-robin)."""
        mapping: Dict[GroupId, str] = {}
        for partition in self.partitions.values():
            mapping[partition.group] = partition.acceptors[client_index % len(partition.acceptors)]
        if self.use_global_ring:
            # Cross-partition commands can be submitted through any partition's
            # first acceptor (they are all proposers of the global ring).
            names = [p.acceptors[0] for p in self.partitions.values()]
            mapping[self.GLOBAL_GROUP] = names[client_index % len(names)]
        return mapping

    def open_loop_target(self, value_size: int = 1024, client_index: int = 0):
        """A :class:`~repro.workloads.engine.ServiceTarget` over this store.

        Arrival-event key indices map to canonical store keys and become
        update (or read) requests, recorded under the load generator's
        series; ``refresh`` re-reads the frontend map on a routing miss, so
        open-loop traffic follows elastic re-partitioning (new partitions
        appear mid-run) without a restart.
        """
        from repro.workloads.engine import ServiceTarget

        def _request(event):
            key = self.key(event.key % self.key_space)
            if event.op == "read":
                return self.read(key)
            return self.update(key, event.size_bytes or value_size)

        return ServiceTarget(
            request_for=_request,
            frontends=self.frontends_for_client(client_index),
            refresh=lambda: self.frontends_for_client(client_index),
        )

    def all_replicas(self) -> List[Replica]:
        return [replica for partition in self.partitions.values() for replica in partition.replicas]

    def replicas_of(self, partition: str) -> List[Replica]:
        try:
            return list(self.partitions[partition].replicas)
        except KeyError:
            raise ServiceError(f"unknown partition {partition!r}") from None

    def groups(self) -> List[GroupId]:
        groups = [partition.group for partition in self.partitions.values()]
        if self.use_global_ring:
            groups.append(self.GLOBAL_GROUP)
        return groups
