"""The recovering replica's side of the protocol (Section 5.2).

:class:`ReplicaRecovery` is attached to a Multi-Ring Paxos learner node that
holds application state (an MRP-Store or dLog replica).  It is responsible
for the replica's whole recovery lifecycle:

* periodically take checkpoints of the application state, identified by the
  merge's delivery cursor (the tuple ``k_p``), and persist them;
* serve checkpoint metadata and checkpoint data to recovering partition peers;
* when the local node restarts after a crash: query a recovery quorum
  ``Q_R`` of partition peers, install the most up-to-date checkpoint available
  (local or remote), fast-forward the delivery merge to the checkpoint's
  cursor, fetch the missing instances from the acceptors, and only then resume
  normal delivery.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.config import RecoveryConfig
from repro.errors import RecoveryError
from repro.recovery.checkpoint import Checkpoint, CheckpointStore, cursor_leq, cursor_max
from repro.recovery.messages import (
    CheckpointData,
    CheckpointFetch,
    CheckpointInfo,
    CheckpointQuery,
)
from repro.ringpaxos.messages import RetransmitReply, RetransmitRequest
from repro.types import GroupId, InstanceId

__all__ = ["ReplicaRecovery"]

#: Snapshot provider: returns ``(opaque_state, serialized_size_bytes)``.
SnapshotProvider = Callable[[], Tuple[object, int]]
#: Snapshot installer: receives the opaque state saved by the provider.
SnapshotInstaller = Callable[[object], None]


class ReplicaRecovery:
    """Checkpointing + recovery manager for one replica node."""

    def __init__(
        self,
        node,
        store: CheckpointStore,
        snapshot_provider: SnapshotProvider,
        snapshot_installer: SnapshotInstaller,
        config: Optional[RecoveryConfig] = None,
    ) -> None:
        self.node = node
        self.store = store
        self.snapshot_provider = snapshot_provider
        self.snapshot_installer = snapshot_installer
        self.config = config or RecoveryConfig()

        self.recovering = False
        self.recoveries_completed = 0
        self.checkpoints_taken = 0
        self._checkpoint_timer = None

        # Recovery-round volatile state.
        self._peer_infos: Dict[str, CheckpointInfo] = {}
        self._expected_peers: List[str] = []
        self._pending_retransmits: set = set()

        node.pause_on_recover = True
        node.register_handler(CheckpointQuery, self._on_checkpoint_query)
        node.register_handler(CheckpointFetch, self._on_checkpoint_fetch)
        node.register_handler(CheckpointInfo, self._on_checkpoint_info)
        node.register_handler(CheckpointData, self._on_checkpoint_data)
        node.register_handler(RetransmitReply, self._on_retransmit_reply)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic checkpoint timer."""
        self._checkpoint_timer = self.node.set_periodic_timer(
            self.config.checkpoint_interval, self.take_checkpoint
        )

    def take_checkpoint(self) -> Optional[Checkpoint]:
        """Snapshot the application state and persist it."""
        if self.recovering or not self.node.alive:
            return None
        cursor = self.node.delivery_cursor()
        state, size = self.snapshot_provider()
        checkpoint = Checkpoint.create(
            replica=self.node.name,
            cursor=cursor,
            state=state,
            state_size_bytes=size,
            taken_at=self.node.now,
        )
        self.store.write(checkpoint, on_durable=self._checkpoint_durable)
        self.checkpoints_taken += 1
        self.node.world.monitor.increment("recovery/checkpoints_started")
        return checkpoint

    def _checkpoint_durable(self, checkpoint: Checkpoint) -> None:
        self.node.world.monitor.increment("recovery/checkpoints_durable")

    def safe_instance(self, group: GroupId) -> InstanceId:
        """``k[x]_p`` reported to the trim protocol."""
        return self.store.safe_instance(group)

    # ------------------------------------------------------------------
    # serving peers
    # ------------------------------------------------------------------
    def _on_checkpoint_query(self, sender: str, msg: CheckpointQuery) -> None:
        latest = self.store.latest_durable
        if latest is None:
            info = CheckpointInfo(cursor={}, checkpoint_id=0, state_size_bytes=0)
        else:
            info = CheckpointInfo(
                cursor=dict(latest.cursor),
                checkpoint_id=latest.checkpoint_id,
                state_size_bytes=latest.state_size_bytes,
            )
        self.node.send_direct(msg.reply_to, info)

    def _on_checkpoint_fetch(self, sender: str, msg: CheckpointFetch) -> None:
        latest = self.store.latest_durable
        if latest is None:
            return
        self.node.send_direct(msg.reply_to, CheckpointData(checkpoint=latest))

    # ------------------------------------------------------------------
    # the recovery sequence
    # ------------------------------------------------------------------
    def begin_recovery(self) -> None:
        """Called by the replica right after the process restarts."""
        if self.recovering:
            return
        self.recovering = True
        self._peer_infos.clear()
        self.node.world.monitor.increment("recovery/started")
        # Re-arm checkpointing (the crash cancelled every timer).
        self.start()
        peers = self.node.registry.partition_peers(self.node.name)
        self._expected_peers = [peer for peer in peers if self.node.registry.is_up(peer)]
        if not self._expected_peers:
            # No partition peer: fall back to the local durable checkpoint.
            self._install_and_replay(self.store.latest_durable, from_peer=None)
            return
        for peer in self._expected_peers:
            self.node.send_direct(peer, CheckpointQuery(reply_to=self.node.name))

    def _on_checkpoint_info(self, sender: str, msg: CheckpointInfo) -> None:
        if not self.recovering or sender in self._peer_infos:
            return
        self._peer_infos[sender] = msg
        quorum = self.config.recovery_quorum_size(len(self._expected_peers))
        if len(self._peer_infos) < quorum:
            return
        self._choose_checkpoint()

    def _choose_checkpoint(self) -> None:
        """Pick the most up-to-date checkpoint available in the recovery quorum."""
        local = self.store.latest_durable
        best_peer: Optional[str] = None
        best_cursor: Dict[GroupId, InstanceId] = dict(local.cursor) if local else {}
        for peer, info in self._peer_infos.items():
            if info.checkpoint_id == 0:
                continue
            if not cursor_leq(info.cursor, best_cursor):
                best_cursor = dict(info.cursor)
                best_peer = peer

        if best_peer is None:
            # The local checkpoint is the most recent one: no state transfer.
            self._install_and_replay(local, from_peer=None)
            return

        # Optimization from Section 5.1: only transfer the remote state when
        # the local checkpoint is "too old" (too many instances to replay).
        local_cursor = dict(local.cursor) if local else {}
        gap = sum(
            best_cursor.get(group, 0) - local_cursor.get(group, 0)
            for group in best_cursor
        )
        if local is not None and gap <= self.config.max_replay_instances:
            self._install_and_replay(local, from_peer=None)
            return
        self.node.world.monitor.increment("recovery/state_transfers")
        self.node.send_direct(best_peer, CheckpointFetch(reply_to=self.node.name, checkpoint_id=0))

    def _on_checkpoint_data(self, sender: str, msg: CheckpointData) -> None:
        if not self.recovering:
            return
        self._install_and_replay(msg.checkpoint, from_peer=sender)

    def _install_and_replay(self, checkpoint: Optional[Checkpoint], from_peer: Optional[str]) -> None:
        if checkpoint is not None:
            self.snapshot_installer(checkpoint.state)
            cursor = {
                group: checkpoint.cursor.get(group, 0) for group in self.node.subscriptions
            }
        else:
            self.snapshot_installer(None)
            cursor = {group: 0 for group in self.node.subscriptions}
        self.node.fast_forward(cursor)
        self.node.world.monitor.increment("recovery/checkpoints_installed")

        # Ask one live acceptor per subscribed group for everything decided at
        # or after the checkpoint's cursor.
        self._pending_retransmits = set()
        for group in self.node.subscriptions:
            descriptor = self.node.registry.ring(group)
            acceptor = self.node.registry.first_up(descriptor.acceptors)
            if acceptor is None:
                continue
            self._pending_retransmits.add(group)
            self.node.send_direct(
                acceptor,
                RetransmitRequest(
                    group=group,
                    first=cursor.get(group, 0),
                    last=2**62,
                    reply_to=self.node.name,
                ),
            )
        if not self._pending_retransmits:
            self._finish_recovery()

    def _on_retransmit_reply(self, sender: str, msg: RetransmitReply) -> None:
        if msg.token != 0:
            return  # learner gap-repair traffic, handled by the ring role
        if not self.recovering:
            return
        if msg.trimmed_up_to is not None and not msg.entries:
            # The acceptor trimmed past our checkpoint.  Predicate 5 makes this
            # impossible when the checkpoint came from the recovery quorum; it
            # can only happen with no checkpoint at all, which is a
            # configuration error surfaced loudly.
            raise RecoveryError(
                f"acceptor {sender} trimmed its log up to {msg.trimmed_up_to}; "
                f"the installed checkpoint is too old to recover from"
            )
        role = self.node.roles.get(msg.group)
        if role is not None:
            # The role decodes, buffers and releases them in order into the
            # (paused) merge, beside the live decisions it already holds.
            role.learn_retransmitted(msg.entries)
        self._pending_retransmits.discard(msg.group)
        if not self._pending_retransmits:
            self._finish_recovery()

    def _finish_recovery(self) -> None:
        self.recovering = False
        self.recoveries_completed += 1
        self.node.merge.resume()
        self.node.world.monitor.increment("recovery/completed")
