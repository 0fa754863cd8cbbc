"""The service replica: a Multi-Ring Paxos learner executing commands.

A :class:`Replica` subscribes to the multicast groups replicating its
partition, executes delivered commands against its
:class:`~repro.smr.state_machine.StateMachine` in delivery order, and sends
responses straight back to the issuing clients (over UDP in the paper).  It
also owns the recovery machinery of Section 5: periodic checkpoints, trim
participation, and the full recovery sequence after a restart.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import MultiRingConfig, RecoveryConfig
from repro.coordination.registry import Registry
from repro.multiring.merge import Delivery
from repro.multiring.node import MultiRingNode
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.replica_recovery import ReplicaRecovery
from repro.recovery.trimming import TrimProtocol
from repro.runtime.cpu import CPUConfig
from repro.runtime.interfaces import Runtime, StableStore
from repro.smr.command import Command, CommandBatch, Response
from repro.smr.state_machine import StateMachine
from repro.types import GroupId

__all__ = ["Replica"]


class Replica(MultiRingNode):
    """A state-machine-replication replica on top of atomic multicast."""

    def __init__(
        self,
        world: Runtime,
        registry: Registry,
        name: str,
        state_machine: StateMachine,
        partition: str,
        config: Optional[MultiRingConfig] = None,
        site: Optional[str] = None,
        cpu_config: Optional[CPUConfig] = None,
        respond_to_clients: bool = True,
        monitor_series: Optional[str] = None,
    ) -> None:
        super().__init__(world, registry, name, config=config, site=site, cpu_config=cpu_config)
        self.state_machine = state_machine
        self.partition = partition
        self.respond_to_clients = respond_to_clients
        self.monitor_series = monitor_series
        self.commands_executed = 0
        self.recovery: Optional[ReplicaRecovery] = None
        self.trim: Optional[TrimProtocol] = None
        #: Reconfiguration hook: called before executing each delivered
        #: command; returning False suppresses local execution (the command is
        #: buffered or forwarded by a migration agent).  Must be a
        #: deterministic function of the delivery sequence.
        self.command_gate: Optional[Callable[[Command, GroupId], bool]] = None
        self.on_deliver(self._execute_delivery)

    # ------------------------------------------------------------------
    # recovery wiring
    # ------------------------------------------------------------------
    def enable_recovery(
        self,
        recovery_config: Optional[RecoveryConfig] = None,
        checkpoint_disk: Optional[StableStore] = None,
    ) -> ReplicaRecovery:
        """Attach checkpointing, trimming and replica recovery to this replica."""
        recovery_config = recovery_config or RecoveryConfig()
        store = CheckpointStore(
            self.world.sim,
            disk=checkpoint_disk,
            synchronous=recovery_config.synchronous_checkpoints,
        )
        self.recovery = ReplicaRecovery(
            self,
            store=store,
            snapshot_provider=self.state_machine.snapshot,
            snapshot_installer=self.state_machine.install,
            config=recovery_config,
        )
        self.trim = TrimProtocol(
            self,
            config=recovery_config,
            safe_instance_provider=self.recovery.safe_instance,
        )
        return self.recovery

    def on_start(self) -> None:
        super().on_start()
        if self.recovery is not None:
            self.recovery.start()
        if self.trim is not None:
            self.trim.start()

    def on_crash(self) -> None:
        super().on_crash()
        # The in-memory database/state machine is volatile.
        self.state_machine.install(None)

    def on_recover(self) -> None:
        super().on_recover()
        if self.recovery is not None:
            self.recovery.begin_recovery()
        if self.trim is not None:
            self.trim.start()

    # ------------------------------------------------------------------
    # command execution
    # ------------------------------------------------------------------
    def _execute_delivery(self, delivery: Delivery) -> None:
        for command in self._commands_of(delivery.value.payload):
            self._execute_command(command, delivery.group)

    def _commands_of(self, payload) -> List[Command]:
        """Flatten a delivered payload into its application commands.

        Handles plain commands and client-side 32 KB command batches.  A
        delivery is always one value: the node unpacks coordinator-side
        value batches before any callback runs.
        """
        if isinstance(payload, CommandBatch):
            return list(payload.commands)
        if isinstance(payload, Command):
            return [payload]
        return []  # not an SMR value (e.g. a dummy-service payload)

    def _metric_samples(self):
        samples = super()._metric_samples()
        samples.append(
            (
                "mrp_commands_executed_total",
                {"node": self.name, "partition": self.partition},
                self.commands_executed,
            )
        )
        return samples

    def _execute_command(self, command: Command, group: GroupId) -> None:
        if self.command_gate is not None and not self.command_gate(command, group):
            return
        result, result_size = self.state_machine.execute(command.operation, group)
        self.commands_executed += 1
        cost = self.state_machine.execution_cost_bytes(command.operation)
        if cost:
            self.cpu.charge(nbytes=cost)
        if self.monitor_series is not None:
            self.world.monitor.increment(f"executed/{self.monitor_series}")
        if result is None or not self.respond_to_clients:
            return
        response = Response(
            command_id=command.command_id,
            replica=self.name,
            partition=self.partition,
            result=result,
            result_size_bytes=result_size,
        )
        if self.world.has_process(command.client):
            self.send_direct(command.client, response)
