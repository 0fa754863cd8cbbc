"""The per-ring protocol state machine.

A :class:`RingRole` holds everything one process knows about one ring: its
roles in the ring (proposer / acceptor / learner / coordinator), the
acceptor's stable log, the coordinator's instance counter, and the learner's
set of already-learned decisions.  The role is host-agnostic: it talks to the
outside world only through the :class:`~repro.ringpaxos.node.RingHost` that
owns it, which provides messaging, CPU accounting and liveness information.

Protocol summary (Section 4 of the paper, Figure 2b):

1. a proposer's value travels clockwise until it reaches the coordinator;
2. the coordinator assigns it the next consensus instance and forwards a
   combined Phase 2A/2B message carrying the value and its own vote;
3. every acceptor logs its vote to stable storage *before* forwarding the
   message with the vote appended;
4. the acceptor whose vote completes a majority replaces the message with a
   decision, which keeps circulating until all members have received it;
5. learners deliver a value once they know both the value and its decision
   (the decision message carries the value, so one message suffices).

With batching on, a proposer's value may travel in a batch of what its turn
brought, and the coordinator splices such batches into its own.  A batch
that crossed the wire is only its encoded body: acceptors log and forward
those bytes, and a node decodes them once, when it learns the instance and
delivers it (:meth:`RingRole._learnable`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.config import RingConfig
from repro.errors import CodecError, ConsensusError, MulticastError, StorageError
from repro.paxos.storage import AcceptorStorage
from repro.paxos.types import Ballot
from repro.ringpaxos.batching import COORDINATOR, PROPOSER, CoordinatorBatcher
from repro.ringpaxos.messages import (
    Decision,
    Phase2,
    Proposal,
    RetransmitReply,
    RetransmitRequest,
)
from repro.runtime.interfaces import StableStore, StorageMode
from repro.types import (
    GroupId,
    InstanceId,
    Value,
    ValueBatch,
    decoded,
    skip_value,
    unpack_value,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.coordination.registry import RingDescriptor
    from repro.ringpaxos.node import RingHost

__all__ = ["RingRole", "REPAIR_TOKEN"]

#: Token marking retransmission traffic that belongs to the learner
#: gap-repair path (as opposed to replica recovery, which uses token 0).
REPAIR_TOKEN = -1

#: Sentinel distinguishing "no buffered value" from a buffered ``None``.
_MISSING = object()


class RingRole:
    """One process's participation in one Ring Paxos ring."""

    def __init__(
        self,
        host: "RingHost",
        descriptor: "RingDescriptor",
        config: Optional[RingConfig] = None,
        disk: Optional[StableStore] = None,
    ) -> None:
        self.host = host
        self.descriptor = descriptor
        #: The registry's membership view answers every forward's next hop.
        self._next_hop = host.registry.next_hop
        self.config = config or RingConfig()
        self.group: GroupId = descriptor.group
        self.name = host.name
        if self.name not in descriptor.overlay:
            raise ConsensusError(f"{self.name} is not a member of ring {self.group!r}")

        roles = descriptor.roles_of(self.name)
        self.is_proposer = "proposer" in roles
        self.is_acceptor = "acceptor" in roles
        self.is_learner = "learner" in roles
        self.is_coordinator = descriptor.coordinator == self.name
        self.quorum = descriptor.quorum_size

        #: Ballot used for the whole run; Phase 1 is pre-executed for all
        #: instances under this ballot (paper, Figure 2b).
        self.ballot = Ballot(1, descriptor.coordinator)

        self.storage: Optional[AcceptorStorage] = None
        if self.is_acceptor:
            if disk is None:
                # Resolve the stable store through the runtime backend: the
                # simulator builds a timing-model disk, the live backend a
                # real append log (or nothing for in-memory rings).
                disk = host.world.new_store(self.config.storage_mode)
            self.storage = AcceptorStorage(
                host.world.sim,
                mode=self.config.storage_mode,
                disk=disk,
                memory_slots=self.config.memory_slots,
            )

        # Coordinator state.
        self.next_instance: InstanceId = 0
        self.proposals_since_level = 0

        # Pipelined instance window: instances the coordinator started whose
        # decision it has not yet learned.  When the window is full, further
        # starts queue in FIFO order and drain as decisions close instances.
        self._inflight = 0
        self._start_queue: Deque[Tuple[Value, int]] = deque()
        self._draining = False
        self.window_stalls = 0
        self.max_inflight = 0
        #: Skip instances sitting in the start queue (not yet started).  The
        #: rate leveler subtracts these from its deficit so that window
        #: backpressure does not make it re-propose the same skips forever.
        self.queued_skip_instances = 0

        # Batcher: the coordinator packs instances (URingPaxos-style), any
        # other proposer packs what one turn brought into one Proposal.
        self.batcher: Optional[CoordinatorBatcher] = None
        if self.config.batching.enabled and (self.is_coordinator or self.is_proposer):
            stage = COORDINATOR if self.is_coordinator else PROPOSER
            self.batcher = CoordinatorBatcher(self, self.config.batching, stage)

        # Learner state: which instances were already learned (dedup between
        # the Phase2-completion path and the Decision path) -- every instance
        # below the watermark ``_learned_below``, plus the stretches
        # ``start -> end`` learned above a hole -- and the release state, the
        # learner's only reorder buffer: decisions learned out of instance
        # order (possible around failures) are buffered and released to the
        # host in order from ``_next_delivery``, a range as one entry
        # (``_out_of_order_counts`` holds how many instances an entry stands
        # for where that is more than one).  Instances an acceptor
        # retransmits (gap repair, replica recovery) enter the same buffer
        # through :meth:`learn_retransmitted`; the release never jumps a
        # hole -- a decision that is still circulating fills it when it
        # arrives.
        self._learned_below: InstanceId = 0
        self._learned_above: Dict[InstanceId, InstanceId] = {}
        self.highest_learned: InstanceId = -1
        self._next_delivery: InstanceId = 0
        self._out_of_order: Dict[InstanceId, Value] = {}
        self._out_of_order_counts: Dict[InstanceId, int] = {}

        # Instance repair (chaos resilience, enabled by config.repair_interval):
        # the coordinator re-executes Phase 2 for started-but-undecided
        # instances, and learners fetch missing decided instances to fill
        # delivery-cursor gaps left by dropped messages.
        self._repair_timer = None
        self._repair_floor: InstanceId = 0
        self._repair_pending: Set[InstanceId] = set()
        self._repair_cursor_seen: InstanceId = -1

        # Exact-type message dispatch (ring messages are final classes); one
        # dict hit replaces the isinstance chain on the per-message path.
        self._dispatch = {
            Proposal: self._on_proposal,
            Phase2: self._on_phase2,
            Decision: self._on_decision,
            RetransmitRequest: self._on_retransmit_request,
        }

        # Causal tracing: bound once; every touch point is guarded by the
        # tracer's ``enabled`` flag so the disabled fast path is one
        # attribute load + branch.
        self._tracer = host.obs.tracer

        # Statistics.
        self.values_proposed = 0
        self.skips_proposed = 0
        self.decisions_learned = 0
        self.skips_learned = 0
        self.repairs_proposed = 0
        self.gap_requests = 0
        self.gap_instances_recovered = 0

    # ------------------------------------------------------------------
    # proposing
    # ------------------------------------------------------------------
    def propose(self, value: Value) -> None:
        """Atomically broadcast ``value`` on this ring."""
        if not (self.is_proposer or self.is_coordinator):
            raise MulticastError(
                f"{self.name} is not a proposer for group {self.group!r}"
            )
        self.host.after_cpu(value.size_bytes, self._submit, value)

    def _submit(self, value: Value) -> None:
        if not self.host.alive:
            return  # the host crashed while the CPU work was queued
        if self.is_coordinator:
            self._intake(value)
        elif self.batcher is not None:
            self.batcher.offer(value)
        else:
            self.send_proposal(value)

    def send_proposal(self, value: Value) -> None:
        """Send ``value`` (a lone value or a batch) clockwise to the coordinator."""
        self._forward(Proposal(group=self.group, value=value), origin=self.name)

    def _intake(self, value: Value) -> None:
        """Coordinator intake: batch the value, or start it directly.

        A proposer's batch is spliced into the pending batch whole, as the
        bytes it arrived as.  A coordinator that delivers (or traces) those
        values decodes them here, once, and learns them later from its own
        acceptor record; any other keeps only the bytes.
        """
        if not self.host.alive:
            return
        batcher = self.batcher
        if batcher is None:
            self.enqueue_instances(value, 1)
        elif value.payload.__class__ is not ValueBatch:
            batcher.offer(value)
        else:
            if self.is_learner or self._tracer.enabled:
                value = self._decoded(value)
                if value is None:
                    return
            batcher.splice(value)

    def propose_skip(self, count: int) -> None:
        """Skip ``count`` consensus instances (rate leveling; coordinator only)."""
        if not self.is_coordinator:
            raise ConsensusError("only the coordinator can propose skip instances")
        if count <= 0:
            return
        value = skip_value(created_at=self.host.now, proposer=self.name)
        self.enqueue_instances(value, count)

    def reset_level_counter(self) -> int:
        """Return and reset the number of proposals since the last Δ interval."""
        count = self.proposals_since_level
        self.proposals_since_level = 0
        return count

    # ------------------------------------------------------------------
    # coordinator logic
    # ------------------------------------------------------------------
    @property
    def inflight_instances(self) -> int:
        """Instances started by this coordinator and not yet decided."""
        return self._inflight

    @property
    def queued_starts(self) -> int:
        """Instance starts waiting for the pipeline window to open."""
        return len(self._start_queue)

    def _window_has_room(self, count: int) -> bool:
        depth = self.config.pipeline_depth
        if depth <= 0:
            return True
        if self._inflight == 0:
            # A single oversized range (e.g. a large skip batch) must not
            # block forever on a small window.
            return True
        return self._inflight + count <= depth

    def enqueue_instances(self, value: Value, count: int = 1) -> None:
        """Start ``count`` instances for ``value``, respecting the window."""
        if self._start_queue or not self._window_has_room(count):
            self._start_queue.append((value, count))
            if value.is_skip:
                self.queued_skip_instances += count
            self.window_stalls += 1
        else:
            self._start_instances(value, count)

    def _drain_start_queue(self) -> None:
        if self._draining:
            return
        self._draining = True
        try:
            while self._start_queue and self._window_has_room(self._start_queue[0][1]):
                value, count = self._start_queue.popleft()
                if value.is_skip:
                    self.queued_skip_instances -= count
                self._start_instances(value, count)
        finally:
            self._draining = False

    def _start_instances(self, value: Value, count: int) -> None:
        instance = self.next_instance
        self.next_instance += count
        self._inflight += count
        if self._inflight > self.max_inflight:
            self.max_inflight = self._inflight
        if value.is_skip:
            self.skips_proposed += count
        else:
            self.values_proposed += 1
            self.proposals_since_level += 1
        started_at = None
        if self._tracer.enabled and not value.is_skip:
            started_at = self._trace_instance_start(value, instance)
        message = Phase2(
            group=self.group,
            instance=instance,
            count=count,
            ballot=self.ballot,
            value=value,
            votes=frozenset([self.name]),
            origin=self.name,
            started_at=started_at,
        )
        # The coordinator is an acceptor: it logs its own vote before the
        # message leaves (Section 5.1).
        self._log_vote(message, self._after_vote, message)

    def _trace_instance_start(self, value: Value, instance: InstanceId):
        """Close the ``propose`` span for each traced value entering Phase 2.

        Returns the Phase 2 start timestamp when the instance carries at
        least one traced value (so the message gets stamped), else ``None``
        (so the wire bytes stay identical to an untraced build).
        """
        tracer = self._tracer
        now = self.host._sim._now
        traced = False
        for inner in unpack_value(value):
            if inner.trace is not None:
                traced = True
                tracer.record(
                    inner.trace, "propose", self.name, inner.created_at, now,
                    group=self.group, instance=instance,
                )
        return now if traced else None

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def on_message(self, sender: str, payload) -> None:
        handler = self._dispatch.get(payload.__class__)
        if handler is not None:
            handler(payload)

    def _on_proposal(self, msg: Proposal) -> None:
        if self.is_coordinator:
            self.host.after_cpu(msg.value.size_bytes, self._intake, msg.value)
        else:
            # Not the coordinator: keep forwarding clockwise.
            self.host.after_cpu(0, self._forward, msg, msg.value.proposer or self.name)

    def _on_phase2(self, msg: Phase2) -> None:
        if self.is_acceptor and not self.is_coordinator:
            record_check = msg.ballot >= self.ballot
            if record_check:
                updated = Phase2(
                    group=msg.group,
                    instance=msg.instance,
                    count=msg.count,
                    ballot=msg.ballot,
                    value=msg.value,
                    votes=msg.votes | {self.name},
                    origin=msg.origin,
                    started_at=msg.started_at,
                )
                self.host.after_cpu(msg.value.size_bytes, self._vote, updated)
                return
        # Non-acceptors (and acceptors that cannot vote) forward unchanged.
        self.host.after_cpu(0, self._forward, msg, msg.origin)

    def _vote(self, msg: Phase2) -> None:
        if not self.host.alive:
            return
        self._log_vote(msg, self._after_vote, msg)

    def _after_vote(self, msg: Phase2) -> None:
        if len(msg.votes) >= self.quorum:
            value = self._learnable(msg.instance, msg.value)
            if value is None:
                return
            decided_at = None
            if msg.started_at is not None and self._tracer.enabled:
                decided_at = self.host._sim._now
                tracer = self._tracer
                for inner in unpack_value(value):
                    if inner.trace is not None:
                        tracer.record(
                            inner.trace, "phase2", self.name, msg.started_at,
                            decided_at, group=self.group, instance=msg.instance,
                        )
            decision = Decision(
                group=msg.group,
                instance=msg.instance,
                count=msg.count,
                value=msg.value,
                origin=self.name,
                started_at=msg.started_at,
                decided_at=decided_at,
            )
            self._learn(msg.instance, msg.count, value, decided_at=decided_at)
            if self.storage is not None:
                self.storage.mark_decided(msg.instance, msg.count)
            self._forward(decision, origin=self.name)
        else:
            self._forward(msg, origin=msg.origin)

    def _on_decision(self, msg: Decision) -> None:
        learned = msg.instance < self._learned_below or (
            self._learned_above and self._learned_end(msg.instance) > msg.instance
        )
        cpu_bytes = 0 if learned else msg.value.size_bytes
        self.host.after_cpu(cpu_bytes, self._apply_decision, msg)

    def _apply_decision(self, msg: Decision) -> None:
        if not self.host.alive:
            return
        value = self._learnable(msg.instance, msg.value)
        if value is None:
            return
        self._learn(msg.instance, msg.count, value, decided_at=msg.decided_at)
        storage = self.storage
        if storage is not None and self.is_acceptor:
            # Acceptors downstream of the decision never cast a vote; they
            # still log the decided value (as it came: a batch stays bytes)
            # so that any acceptor can serve retransmissions during recovery.
            storage.note_decided(msg.instance, self.ballot, msg.value, msg.count)
        self._forward(msg, origin=msg.origin)

    def _on_retransmit_request(self, msg: RetransmitRequest) -> None:
        if not self.is_acceptor or self.storage is None:
            return
        try:
            entries = tuple(
                self.storage.read_range(
                    msg.first,
                    msg.last,
                    # Gap repair fills holes in a *live* delivery sequence, so
                    # it may only receive decided values; replica recovery
                    # replays above a quorum checkpoint, where the accepted
                    # value is the decided one by Predicate 1.
                    decided_only=msg.token == REPAIR_TOKEN,
                )
            )
            reply = RetransmitReply(group=self.group, entries=entries, token=msg.token)
        except Exception:
            reply = RetransmitReply(
                group=self.group,
                entries=(),
                trimmed_up_to=self.storage.trimmed_up_to,
                token=msg.token,
            )
        payload_bytes = sum(value.size_bytes for _, value in reply.entries)
        self.host.after_cpu(payload_bytes, self._send_reply, msg.reply_to, reply)

    def _send_reply(self, dest: str, reply: RetransmitReply) -> None:
        if self.host.alive:
            self.host.send_direct(dest, reply)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _learnable(self, instance: InstanceId, value: Value) -> Optional[Value]:
        """``value`` as this node learns ``instance``; ``None`` drops the message.

        A batch that crossed the wire is only its body.  The coordinator
        learns a batch it started from its own acceptor record when the uids
        match: it delivers the objects it proposed and decodes nothing.  Any
        other node that delivers the batch (or traces it) decodes the body
        here, once, before any learner or merge state moves; every other node
        keeps, logs and forwards the bytes.
        """
        batch = value.payload
        if (
            batch.__class__ is not ValueBatch
            or batch.values is not None
            or self._learned_end(instance) > instance
        ):
            return value
        if self.is_coordinator and self.storage is not None:
            try:
                own = self.storage.accepted_value(instance)
            except StorageError:
                own = None
            if own is not None and own.uid == value.uid:
                value = own
        if not (self.is_learner or self._tracer.enabled):
            return value
        return self._decoded(value)

    def _decoded(self, value: Value) -> Optional[Value]:
        """:func:`~repro.types.decoded`, with a body that fails counted and ``None``."""
        try:
            return decoded(value)
        except CodecError:
            self.host.bodies_rejected += 1
            return None

    def _log_vote(self, msg: Phase2, done, *done_args) -> None:
        if self.storage is None:
            done(*done_args)
            return
        self.storage.log_votes_range(
            msg.instance, msg.count, msg.ballot, msg.value,
            callback=done, callback_args=done_args,
        )

    def _learned_end(self, instance: InstanceId) -> InstanceId:
        """The end of the learned stretch holding ``instance``; ``instance`` itself
        if it was not learned."""
        if instance < self._learned_below:
            return self._learned_below
        for start, end in self._learned_above.items():
            if start <= instance < end:
                return end
        return instance

    def _mark_learned(self, first: InstanceId, end: InstanceId) -> List[Tuple[InstanceId, InstanceId]]:
        """Record ``[first, end)`` as learned; returns the stretches that were not."""
        below = self._learned_below
        if end <= below:
            return []
        if first < below:
            first = below
        above = self._learned_above
        pieces = []
        low, high, cursor = first, end, first
        for start, stop in sorted(above.items()):
            if stop < first or start > end:
                continue  # apart from [first, end), not even adjacent
            if start > cursor:
                pieces.append((cursor, start))
            cursor = max(cursor, stop)
            low, high = min(low, start), max(high, stop)
            del above[start]
        if cursor < end:
            pieces.append((cursor, end))
        if low == below:
            self._learned_below = high
        else:
            above[low] = high
        return pieces

    def _learn(
        self,
        first: InstanceId,
        count: int,
        value: Value,
        decided_at: Optional[float] = None,
    ) -> None:
        end = first + count
        if first == self._learned_below and not self._learned_above:
            self._learned_below = end  # in order and above no hole: all but failures
            pieces, newly_learned = ((first, end),), count
        else:
            pieces = self._mark_learned(first, end)
            newly_learned = sum(stop - start for start, stop in pieces)
        if newly_learned:
            if pieces[-1][1] - 1 > self.highest_learned:
                self.highest_learned = pieces[-1][1] - 1
            if value.is_skip:
                self.skips_learned += newly_learned
            else:
                self.decisions_learned += newly_learned
            if self.is_learner:
                for start, stop in pieces:
                    self._buffer(start, stop, value)
            if not value.is_skip and self._tracer.enabled:
                self._trace_learned(value, first, decided_at)
        self._release_in_order()
        if self.is_coordinator and newly_learned:
            self._inflight = max(0, self._inflight - newly_learned)
            self._drain_start_queue()

    def _buffer(self, first: InstanceId, end: InstanceId, value: Value) -> None:
        """Hold the part of ``[first, end)`` at or above the cursor for release."""
        if first < self._next_delivery:
            first = self._next_delivery
        if first < end:
            self._out_of_order[first] = value
            if end - first > 1:
                self._out_of_order_counts[first] = end - first

    def _trace_learned(self, value: Value, instance: InstanceId, decided_at) -> None:
        """Close ``decide`` spans and open the merge-wait interval.

        Runs before :meth:`_release_in_order` so that the merge-wait mark
        exists by the time the merge (synchronously) releases the value.
        """
        tracer = self._tracer
        now = self.host._sim._now
        learner = self.is_learner
        for inner in unpack_value(value):
            trace_id = inner.trace
            if trace_id is None:
                continue
            if decided_at is not None:
                tracer.record(
                    trace_id, "decide", self.name, decided_at, now,
                    group=self.group, instance=instance,
                )
            if learner:
                tracer.mark(trace_id, f"merge:{self.name}", now)

    def _release_in_order(self) -> None:
        """Release buffered decisions in instance order (pipelining keeps
        several instances open, but learners observe a gap-free sequence).

        It stops at a hole: the missing decision is still circulating (or
        gap repair fetches it) and resumes the release when it arrives.
        """
        if not self.is_learner:
            return
        out_of_order = self._out_of_order
        counts = self._out_of_order_counts
        while True:
            cursor = self._next_delivery
            value = out_of_order.pop(cursor, _MISSING)
            if value is _MISSING:
                break
            count = counts.pop(cursor, 1) if counts else 1
            # Commit the cursor before notifying: the callback chain may
            # fast-forward it (checkpoint install), and the loop re-reads
            # it afterwards.
            self._next_delivery = cursor + count
            self.host.notify_decision(self.group, cursor, value, count)

    def _forward(self, msg, origin: str) -> None:
        """Forward ``msg`` to the next up ring member, stopping at ``origin``."""
        host = self.host
        if not host.alive:
            return  # the host crashed while the message was being processed
        next_hop = self._next_hop(self.group, self.name, origin)
        if next_hop is None:
            return
        host.ring_send(next_hop, msg)

    def learn_retransmitted(self, entries) -> int:
        """Learn instances an acceptor retransmitted: gap-repair replies
        (:data:`REPAIR_TOKEN`) and replica-recovery replies (token 0) alike.

        The gate is the release state, not the learned set: an entry is
        taken if it is at or above the release cursor and not already
        buffered, because a restarted replica must be given again what it
        learned before it crashed.  A taken entry is decoded, learned,
        buffered and released in order; retransmitted entries can be sparse
        (a decision may still have been circulating when the acceptor served
        the request), and the release waits at such a hole for the live
        decision.  Returns how many entries were taken.
        """
        taken = 0
        for instance, value in entries:
            if instance < self._next_delivery or self._buffered(instance):
                continue
            value = self._decoded(value)
            if value is None:
                continue
            taken += 1
            # Buffered whether or not it is learned already; _learn releases.
            self._buffer(instance, instance + 1, value)
            self._learn(instance, 1, value)
        return taken

    def _buffered(self, instance: InstanceId) -> bool:
        """Whether the release buffer holds ``instance``."""
        if instance in self._out_of_order:
            return True
        return any(
            start < instance < start + count for start, count in self._out_of_order_counts.items()
        )

    def restart_release(self) -> None:
        """Start the release over at instance 0 with an empty buffer (the host
        restarted its merge); the learned set is kept."""
        self._next_delivery = 0
        self._out_of_order = {}
        self._out_of_order_counts = {}

    def fast_forward_delivery(self, next_instance: InstanceId) -> None:
        """Jump the in-order delivery cursor to ``next_instance``.

        Called when an installed checkpoint covers every instance below
        ``next_instance``: the gap below the cursor was applied through state
        transfer, will never circulate again, and must not be waited for.
        Live decisions already buffered above the new cursor are released.
        """
        if not self.is_learner or next_instance <= self._next_delivery:
            return
        if next_instance - 1 > self.highest_learned:
            self.highest_learned = next_instance - 1
        self._next_delivery = next_instance
        buffered, counts = self._out_of_order, self._out_of_order_counts
        self._out_of_order, self._out_of_order_counts = {}, {}
        for first, value in buffered.items():
            self._buffer(first, first + counts.get(first, 1), value)
        self._release_in_order()

    # ------------------------------------------------------------------
    # instance repair (crash / partition resilience)
    # ------------------------------------------------------------------
    def start_repair(self) -> None:
        """Arm the periodic instance-repair timer (no-op unless configured).

        Called by the host on start and again on recovery (crashing cancels
        every timer).  Idempotent while a timer is already armed.
        """
        if self.config.repair_interval <= 0:
            return
        if not (self.is_coordinator or self.is_learner):
            return
        if self._repair_timer is not None and self._repair_timer.active:
            return
        self._repair_timer = self.host.set_periodic_timer(
            self.config.repair_interval, self._repair_tick
        )

    def _repair_tick(self) -> None:
        if not self.host.alive:
            return
        if self.is_coordinator:
            self._repair_undecided()
        if self.is_learner:
            self._repair_gap()

    def _repair_undecided(self) -> None:
        """Re-execute Phase 2 for instances started but never decided.

        A crash or partition can eat a ``Phase2`` or ``Decision`` mid-ring,
        leaving the instance open forever and stalling every learner's
        in-order cursor behind the hole.  The coordinator re-proposes its own
        accepted value (logged before the original message left, so a durable
        log always has it); an instance with no logged vote never put a
        message on the wire and is filled with a skip.  An instance is only
        repaired after staying undecided for two consecutive ticks, giving
        in-flight decisions one repair interval of grace.
        """
        while self._repair_floor < self.next_instance and (
            self._learned_end(self._repair_floor) > self._repair_floor
            or (self.storage is not None and self.storage.is_trimmed(self._repair_floor))
        ):
            self._repair_floor += 1
        undecided: List[InstanceId] = []
        instance = self._repair_floor
        while instance < self.next_instance and len(undecided) < self.config.repair_batch:
            if self._learned_end(instance) == instance:
                undecided.append(instance)
            instance += 1
        due = [i for i in undecided if i in self._repair_pending]
        self._repair_pending = set(undecided)
        for instance in due:
            value: Optional[Value] = None
            if self.storage is not None:
                try:
                    value = self.storage.accepted_value(instance)
                except StorageError:
                    continue  # trimmed in the meantime: decided long ago
            if value is None:
                value = skip_value(created_at=self.host.now, proposer=self.name)
            message = Phase2(
                group=self.group,
                instance=instance,
                count=1,
                ballot=self.ballot,
                value=value,
                votes=frozenset([self.name]),
                origin=self.name,
            )
            self.repairs_proposed += 1
            self._log_vote(message, self._after_vote, message)

    def _repair_gap(self) -> None:
        """Fetch decided instances missing below the learner's known horizon.

        A decision dropped downstream of the quorum leaves this learner with
        a hole below ``highest_learned``.  If the in-order cursor has not
        moved since the previous tick, ask a live acceptor to retransmit the
        missing range.  Recovery owns retransmission while it is running.
        """
        cursor = self._next_delivery
        stuck = cursor == self._repair_cursor_seen
        self._repair_cursor_seen = cursor
        if not stuck or self.highest_learned <= cursor:
            return
        merge = getattr(self.host, "merge", None)
        if merge is not None and merge.paused:
            return
        recovery = getattr(self.host, "recovery", None)
        if recovery is not None and recovery.recovering:
            return
        acceptor = self._live_acceptor()
        if acceptor is None:
            return
        self.gap_requests += 1
        self.host.send_direct(
            acceptor,
            RetransmitRequest(
                group=self.group,
                first=cursor,
                last=min(self.highest_learned, cursor + self.config.repair_batch),
                reply_to=self.name,
                token=REPAIR_TOKEN,
            ),
        )

    def _live_acceptor(self) -> Optional[str]:
        """An up, reachable acceptor, rotated across attempts.

        Rotation matters: only acceptors the decision passed through know an
        instance is decided, so consecutive requests must not keep hitting
        the same (possibly unknowing) acceptor.
        """
        host = self.host
        candidates = [name for name in self.descriptor.acceptors if name != self.name]
        if not candidates:
            return None
        start = self.gap_requests % len(candidates)
        for offset in range(len(candidates)):
            name = candidates[(start + offset) % len(candidates)]
            if host.registry.is_up(name) and not host.world.network.link_faulted(self.name, name):
                return name
        return None

    def on_repair_reply(self, msg: RetransmitReply) -> None:
        """Learn the retransmitted instances fetched by :meth:`_repair_gap`."""
        if (
            msg.trimmed_up_to is not None
            and not msg.entries
            and self._next_delivery <= msg.trimmed_up_to
        ):
            # The gap was trimmed from the acceptor logs: those instances are
            # only recoverable through a checkpoint (Section 5 trim
            # predicate), so hand the problem to the recovery manager instead
            # of re-requesting a range no acceptor can serve.
            recovery = getattr(self.host, "recovery", None)
            if recovery is not None and not recovery.recovering:
                self.host.log(
                    f"gap repair hit trimmed log on {self.group}; starting state transfer"
                )
                recovery.begin_recovery()
            return
        self.gap_instances_recovered += self.learn_retransmitted(msg.entries)

    def on_host_crash(self) -> None:
        """Volatile-state handling when the hosting process crashes."""
        if self.storage is not None and self.storage.mode is StorageMode.MEMORY:
            # In-memory acceptor state does not survive a crash.
            trimmed = self.storage.trimmed_up_to
            self.storage = AcceptorStorage(
                self.host.world.sim,
                mode=StorageMode.MEMORY,
                memory_slots=self.config.memory_slots,
            )
            if trimmed is not None:
                self.storage.trim(trimmed)
        # Volatile coordinator state: the pending batch, the queue of starts
        # waiting for the window, and the in-flight accounting (decisions for
        # open instances were dropped while the process was down).
        if self.batcher is not None:
            self.batcher.reset()
        self._start_queue.clear()
        self.queued_skip_instances = 0
        self._inflight = 0
        # Repair bookkeeping: the timer died with the host's other timers;
        # forget the undecided set so restarted instances get a fresh grace
        # period before being re-proposed.
        self._repair_timer = None
        self._repair_pending = set()
        self._repair_cursor_seen = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        roles = []
        if self.is_proposer:
            roles.append("P")
        if self.is_acceptor:
            roles.append("A")
        if self.is_learner:
            roles.append("L")
        if self.is_coordinator:
            roles.append("C")
        return f"RingRole({self.group!r}@{self.name!r}, {'/'.join(roles)})"
