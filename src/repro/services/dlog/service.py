"""dLog deployment builder and client library.

The dLog service maps every log to one multicast group (one ring); replicas
subscribe to the rings of the logs they host, plus an optional shared ring
used for atomic multi-log appends.  This mirrors the paper's deployments:

* Figure 5 uses two rings with three acceptors each, learners subscribing to
  both rings, synchronous acceptor disk writes;
* Figure 6 varies the number of rings from 1 to 5 with one disk per ring, the
  learners subscribing to every ring plus a common ring, asynchronous writes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config import BatchingConfig, MultiRingConfig, RecoveryConfig
from repro.errors import ConfigurationError, ServiceError
from repro.multiring.deployment import Deployment, RingSpec
from repro.runtime.interfaces import Cluster, StorageMode
from repro.smr.client import Request
from repro.smr.frontend import ProposerFrontend
from repro.smr.replica import Replica
from repro.services.dlog.state import DLogStateMachine
from repro.types import GroupId

__all__ = ["DLog"]


class DLog:
    """A complete, runnable dLog deployment."""

    GLOBAL_GROUP: GroupId = "dlog-global"

    def __init__(
        self,
        world: Cluster,
        logs: Sequence[str] = ("log-0",),
        replicas: int = 1,
        acceptors_per_log: int = 3,
        storage_mode: StorageMode = StorageMode.SYNC_SSD,
        use_global_ring: bool = True,
        config: Optional[MultiRingConfig] = None,
        recovery_config: Optional[RecoveryConfig] = None,
        batching: Optional[BatchingConfig] = None,
        coordinator_batching: Optional[BatchingConfig] = None,
        pipeline_depth: Optional[int] = None,
        enable_recovery: bool = False,
        replica_cache_bytes: int = 200 * 1024 * 1024,
    ) -> None:
        if not logs:
            raise ConfigurationError("dLog needs at least one log")
        self.world = world
        self.logs = list(logs)
        self.config = config or MultiRingConfig.datacenter()
        self.recovery_config = recovery_config or RecoveryConfig()
        self.batching = batching or BatchingConfig(enabled=False)
        self.use_global_ring = use_global_ring
        self.storage_mode = storage_mode
        # Per-ring protocol configuration: coordinator-side batching and the
        # pipelined instance window (None keeps the MultiRingConfig defaults).
        self._ring_config = self.config.ring.with_storage(storage_mode)
        if coordinator_batching is not None:
            self._ring_config = self._ring_config.with_batching(coordinator_batching)
        if pipeline_depth is not None:
            self._ring_config = self._ring_config.with_pipeline_depth(pipeline_depth)
        self.deployment = Deployment(world, self.config)

        self.groups: Dict[str, GroupId] = {log: f"dlog-{log}" for log in self.logs}
        self.replica_nodes: List[Replica] = []
        self.frontends: Dict[GroupId, List[str]] = {}

        self._build(replicas, acceptors_per_log, replica_cache_bytes, enable_recovery)
        self.deployment.registry.store_partition_map("dlog", dict(self.groups))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(
        self,
        replica_count: int,
        acceptors_per_log: int,
        replica_cache_bytes: int,
        enable_recovery: bool,
    ) -> None:
        # Replicas host *all* logs (the paper's learners subscribe to every
        # ring in the vertical-scalability experiment).
        replica_names = [f"dlog-rep{i}" for i in range(replica_count)]
        for name in replica_names:
            runtime = self.world.runtime_of(name)
            state_machine = DLogStateMachine(
                logs=tuple(self.logs),
                cache_bytes=replica_cache_bytes,
                disk=runtime.new_store(StorageMode.ASYNC_SSD),
                synchronous_disk=False,
            )
            replica = Replica(
                runtime,
                self.deployment.registry,
                name,
                state_machine=state_machine,
                partition="dlog",
                config=self.config,
                monitor_series="dlog",
            )
            self.deployment.nodes[name] = replica
            self.replica_nodes.append(replica)

        all_acceptors: List[str] = []
        for log in self.logs:
            group = self.groups[log]
            acceptor_names = [f"{log}-acc{i}" for i in range(acceptors_per_log)]
            all_acceptors.extend(acceptor_names)
            self.deployment.add_ring(
                RingSpec(
                    group=group,
                    members=acceptor_names + replica_names,
                    acceptors=acceptor_names,
                    proposers=acceptor_names,
                    learners=replica_names,
                    storage_mode=self.storage_mode,
                ),
                ring_config=self._ring_config,
            )
            self.frontends[group] = acceptor_names
            for name in acceptor_names:
                ProposerFrontend(self.deployment.node(name), batching=self.batching)

        if self.use_global_ring:
            global_acceptors = [self.frontends[self.groups[log]][0] for log in self.logs]
            self.deployment.add_ring(
                RingSpec(
                    group=self.GLOBAL_GROUP,
                    members=global_acceptors + replica_names,
                    acceptors=global_acceptors,
                    proposers=global_acceptors,
                    learners=replica_names,
                    storage_mode=self.storage_mode,
                ),
                ring_config=self._ring_config,
            )
            self.frontends[self.GLOBAL_GROUP] = global_acceptors

        if enable_recovery:
            for replica in self.replica_nodes:
                disk = replica.world.new_store(StorageMode.SYNC_SSD)
                replica.enable_recovery(self.recovery_config, checkpoint_disk=disk)
            # Acceptor side of the trim protocol (rounds run at ring coordinators,
            # TrimCommands executed by every acceptor).
            from repro.recovery.trimming import TrimProtocol

            for acceptor_name in set(all_acceptors):
                TrimProtocol(self.deployment.node(acceptor_name), self.recovery_config).start()

    # ------------------------------------------------------------------
    # client library (Table 2)
    # ------------------------------------------------------------------
    def _group_of(self, log: str) -> GroupId:
        try:
            return self.groups[log]
        except KeyError:
            raise ServiceError(f"unknown log {log!r}") from None

    def append(self, log: str, size: int, series: Optional[str] = None) -> Request:
        return Request(("append", log, size), 64 + size, self._group_of(log), 1, series)

    def multi_append(self, logs: Sequence[str], size: int, series: Optional[str] = None) -> Request:
        if not self.use_global_ring:
            raise ServiceError("multi-append needs the shared (global) ring")
        for log in logs:
            self._group_of(log)
        return Request(
            ("multi-append", tuple(logs), size),
            64 + size,
            self.GLOBAL_GROUP,
            1,
            series,
        )

    def read(self, log: str, position: int, series: Optional[str] = None) -> Request:
        return Request(("read", log, position), 72, self._group_of(log), 1, series)

    def trim(self, log: str, position: int, series: Optional[str] = None) -> Request:
        return Request(("trim", log, position), 72, self._group_of(log), 1, series)

    # ------------------------------------------------------------------
    # deployment access
    # ------------------------------------------------------------------
    def frontends_for_client(self, client_index: int = 0) -> Dict[GroupId, str]:
        mapping: Dict[GroupId, str] = {}
        for group, names in self.frontends.items():
            mapping[group] = names[client_index % len(names)]
        return mapping

    def open_loop_target(self, append_size: int = 1024, client_index: int = 0):
        """A :class:`~repro.workloads.engine.ServiceTarget` over this dLog.

        Arrival-event key indices pick the destination log (modulo the log
        count) and become fixed-size appends -- the open-loop counterpart of
        :class:`~repro.workloads.simple.AppendWorkload`.  Completions are
        recorded under the load generator's series.
        """
        from repro.workloads.engine import ServiceTarget

        def _request(event):
            log = self.logs[event.key % len(self.logs)]
            return self.append(log, event.size_bytes or append_size)

        return ServiceTarget(
            request_for=_request,
            frontends=self.frontends_for_client(client_index),
        )

    def ring_disk_of(self, log: str, acceptor_index: int = 0):
        """The stable-storage device of one of a log's acceptors (Figure 6 metric)."""
        group = self._group_of(log)
        acceptor = self.frontends[group][acceptor_index]
        return self.deployment.ring_disk(group, acceptor)
