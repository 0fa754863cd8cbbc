"""The proposer front-end clients connect to.

In the paper's implementation clients talk Thrift to proposer processes,
which submit the commands to Multi-Ring Paxos; small commands can be batched,
grouped by partition, into packets of up to 32 KB before being multicast
(Sections 7.2 and 8.4).  :class:`ProposerFrontend` reproduces that component:
it is attached to a node that is a proposer of one or more groups, receives
:class:`~repro.smr.command.SubmitCommand` messages, optionally batches them
per group, and multicasts the resulting value.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import BatchingConfig
from repro.errors import ServiceError
from repro.smr.command import Command, CommandBatch, SubmitCommand
from repro.types import GroupId

__all__ = ["ProposerFrontend"]

#: Epoch router: maps ``(command, group-the-client-chose)`` to the group the
#: command should go to under the *current* partition map.
Router = Callable[[Command, GroupId], GroupId]


class ProposerFrontend:
    """Receives client commands on a node and multicasts them.

    With a ``router`` the front-end re-routes commands whose target group is
    stale (the client built the request under an older partition-map epoch).
    Re-routing only happens when this front-end can propose to the corrected
    group; otherwise the command proceeds on the stale group and the
    migration agents forward it to the new owner -- either way nothing is
    lost.
    """

    def __init__(
        self,
        node,
        batching: Optional[BatchingConfig] = None,
        router: Optional[Router] = None,
    ) -> None:
        self.node = node
        self.batching = batching or BatchingConfig(enabled=False)
        self.router = router
        self.rerouted_commands = 0
        self._pending: Dict[GroupId, List[Command]] = {}
        self._pending_bytes: Dict[GroupId, int] = {}
        self._flush_timers: Dict[GroupId, object] = {}
        self.commands_received = 0
        self.batches_sent = 0
        node.register_handler(SubmitCommand, self._on_submit)

    # ------------------------------------------------------------------
    def _on_submit(self, sender: str, msg: SubmitCommand) -> None:
        self.submit(msg.group, msg.command)

    def submit(self, group: GroupId, command: Command) -> None:
        """Submit ``command`` for multicast to ``group`` (local API, same path as messages)."""
        if self.router is not None:
            routed = self.router(command, group)
            if routed != group and routed in self.node.roles:
                self.rerouted_commands += 1
                group = routed
        if group not in self.node.roles:
            raise ServiceError(
                f"front-end {self.node.name} is not a proposer for group {group!r}"
            )
        self.commands_received += 1
        if not self.batching.enabled:
            self._multicast(group, [command])
            return
        pending = self._pending.setdefault(group, [])
        pending.append(command)
        self._pending_bytes[group] = self._pending_bytes.get(group, 0) + command.size_bytes
        if self._pending_bytes[group] >= self.batching.max_batch_bytes:
            self._flush(group)
        elif group not in self._flush_timers:
            self._flush_timers[group] = self.node.set_timer(
                self.batching.max_batch_delay, self._flush, group
            )

    def _flush(self, group: GroupId) -> None:
        timer = self._flush_timers.pop(group, None)
        if timer is not None:
            timer.cancel()
        pending = self._pending.get(group)
        if not pending:
            return
        self._pending[group] = []
        self._pending_bytes[group] = 0
        self._multicast(group, pending)

    def _multicast(self, group: GroupId, commands: List[Command]) -> None:
        batch = CommandBatch(commands=tuple(commands))
        self.batches_sent += 1
        self.node.multicast(group, batch, batch.size_bytes)
