"""The per-replica migration agent: deterministic key-range handoff.

One :class:`MigrationAgent` is attached to every service replica.  It turns
the two control commands of a migration into deterministic state transitions:

* **source side** -- on delivery of :class:`~repro.reconfig.commands.
  MigrationPrepare`, every source replica extracts the moving key range at
  exactly the same position of its command stream (the handoff point) and
  adopts the new partition map.  The *designated* replica additionally ships
  the extracted state to the destination ring and, from then on, re-multicasts
  any late command addressing a moved key (clients routing with a stale map
  keep working; nothing is lost, nothing executes twice);

* **destination side** -- replicas of a freshly added partition buffer every
  application command until their :class:`~repro.reconfig.commands.
  MigrationInstall` arrives, then install the entries, adopt the map and
  replay the buffer in delivery order.  Because buffering is a function of the
  delivery sequence alone, all destination replicas replay identically.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.reconfig.commands import (
    ForwardedCommand,
    MigrationInstall,
    MigrationPrepare,
    ProposeControl,
)

__all__ = ["MigrationAgent"]

#: Operations whose second element is the addressed key.
_POINT_OPS = ("read", "update", "insert", "delete", "rmw")


class _SourceMigration:
    """Source-side bookkeeping for one completed handoff."""

    def __init__(self, prepare: MigrationPrepare) -> None:
        self.migration_id = prepare.migration_id
        self.new_map = prepare.new_map
        self.dest = prepare.dest
        self.designated = prepare.designated

    def moves(self, key: str) -> bool:
        return self.new_map.partition_of(key) == self.dest


class MigrationAgent:
    """Executes key-range migrations on behalf of one replica."""

    def __init__(self, replica, service: str = "mrp-store", awaiting_install: bool = False) -> None:
        self.replica = replica
        self.service = service
        #: True on replicas of a freshly added partition: every application
        #: command is buffered until the initial state handoff is delivered.
        self.awaiting_install = awaiting_install
        self._buffered: List[Tuple[Any, Any]] = []
        self._source_migrations: List[_SourceMigration] = []
        self._installed_ids: set = set()
        self._forwarded_seen: set = set()
        self.commands_forwarded = 0
        self.commands_buffered = 0
        self.migrations_prepared = 0
        self.migrations_installed = 0
        replica.on_control(self._on_control)
        replica.command_gate = self._gate
        replica.migration_agent = self

    # ------------------------------------------------------------------
    # the command gate (called by the replica for every delivered command)
    # ------------------------------------------------------------------
    def _gate(self, command, group) -> bool:
        if self.awaiting_install:
            self._buffered.append((command, group))
            self.commands_buffered += 1
            return False
        key = self._key_of(command)
        if key is not None:
            for migration in self._source_migrations:
                if migration.moves(key):
                    # Ordered after the handoff point but addressing a moved
                    # key: the destination partition owns it now.
                    if self.replica.name == migration.designated:
                        self._forward(migration, command)
                    return False
        return True

    @staticmethod
    def _key_of(command) -> Optional[str]:
        operation = getattr(command, "operation", None)
        if (
            isinstance(operation, tuple)
            and len(operation) >= 2
            and operation[0] in _POINT_OPS
            and isinstance(operation[1], str)
        ):
            return operation[1]
        return None

    # ------------------------------------------------------------------
    # control command handling (delivered through the merge)
    # ------------------------------------------------------------------
    def _on_control(self, delivery) -> None:
        payload = delivery.value.payload
        if isinstance(payload, MigrationPrepare) and payload.service == self.service:
            self._on_prepare(payload)
        elif isinstance(payload, MigrationInstall) and payload.service == self.service:
            self._on_install(payload, delivery.group)
        elif isinstance(payload, ForwardedCommand):
            self._on_forwarded(payload, delivery.group)

    def _on_prepare(self, msg: MigrationPrepare) -> None:
        machine = self.replica.state_machine
        if self.replica.partition == msg.source and not any(
            m.migration_id == msg.migration_id for m in self._source_migrations
        ):
            entries = machine.extract_owned_by(msg.new_map, msg.dest)
            self._source_migrations.append(_SourceMigration(msg))
            self.migrations_prepared += 1
            if self.replica.name == msg.designated:
                install = MigrationInstall(
                    migration_id=msg.migration_id,
                    service=msg.service,
                    new_map=msg.new_map,
                    source=msg.source,
                    dest=msg.dest,
                    entries=entries,
                )
                self._propose_to(msg.new_map.group_of_partition(msg.dest), install)
        # Every replica on the carrier ring adopts the new map (their own
        # ranges are untouched; only routing knowledge changes).
        machine.set_partition_map(msg.new_map)

    def _on_install(self, msg: MigrationInstall, group) -> None:
        if self.replica.partition != msg.dest:
            return
        if msg.migration_id in self._installed_ids:
            return  # duplicate (e.g. re-shipped during source recovery replay)
        self._installed_ids.add(msg.migration_id)
        machine = self.replica.state_machine
        machine.absorb_entries(msg.entries)
        machine.set_partition_map(msg.new_map)
        self.migrations_installed += 1
        self.replica.world.monitor.increment("reconfig/migrations_installed")
        if self.awaiting_install:
            self.awaiting_install = False
            buffered, self._buffered = self._buffered, []
            for command, carrier in buffered:
                self.replica._execute_command(command, carrier)

    def _on_forwarded(self, msg: ForwardedCommand, group) -> None:
        if self.replica.partition != msg.dest:
            return
        command_id = getattr(msg.command, "command_id", None)
        if command_id in self._forwarded_seen:
            return
        self._forwarded_seen.add(command_id)
        if self.awaiting_install:
            self._buffered.append((msg.command, group))
            self.commands_buffered += 1
            return
        self.replica._execute_command(msg.command, group)

    # ------------------------------------------------------------------
    # outbound
    # ------------------------------------------------------------------
    def _forward(self, migration: _SourceMigration, command) -> None:
        payload = ForwardedCommand(
            migration_id=migration.migration_id, dest=migration.dest, command=command
        )
        self._propose_to(migration.new_map.group_of_partition(migration.dest), payload)
        self.commands_forwarded += 1
        self.replica.world.monitor.increment("reconfig/commands_forwarded")

    def _propose_to(self, group, payload) -> None:
        """Inject ``payload`` into ``group`` through one of its live proposers."""
        node = self.replica
        proposer = node.registry.first_up(node.registry.ring(group).proposers)
        if proposer is not None:
            node.send_direct(
                proposer,
                ProposeControl(group=group, payload=payload, payload_bytes=payload.size_bytes),
            )
