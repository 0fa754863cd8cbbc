"""Batching of proposed values: at the proposer and at the ring coordinator.

URingPaxos owes its throughput to amortizing per-instance protocol cost, and
the paper's proposers ship packets of many messages (Sections 7.2, 8.4).
:class:`CoordinatorBatcher` does both jobs, one class with one ``offer``
path, at two *stages*:

* **coordinator**: between the coordinator's proposal intake and the
  instance window.  One batch becomes one consensus value, so one Phase 2
  circulation, one acceptor log write and one decision cover it.  A batch a
  proposer sent is *spliced* in whole, under the same caps: when it would
  overflow one, the pending batch leaves first.  It keeps the bytes it
  arrived as, so the coordinator neither re-encodes it nor -- unless it
  delivers those values itself -- decodes it;
* **proposer**: at a ring member that is not the coordinator, what one turn
  of its clock brought leaves as one ``Proposal``, instead of one
  ``Proposal`` per value.

A pending batch flushes when it reaches the configured value-count cap or
byte cap, or -- whichever comes first -- when its wait ends:

* ``max_batch_delay == 0`` (the :class:`~repro.config.RingConfig` default),
  and always at a proposer: at the end of the clock's turn.  On the live
  backend that is the end of the pump burst, so the batch holds every value
  that reached the node together and adds no delay; on the simulator every
  event is its own turn, so a value leaves at once, as without a batcher;
* ``max_batch_delay > 0``, at the coordinator only: when a timer armed by
  the first value of an empty batch expires.  This is the only way the
  simulator forms batches (the ``batching`` bench and its golden numbers),
  and it trades latency for fuller batches where per-turn packing would
  leave them small.

A batch of one goes out as the bare value, without a batch envelope.  A
batch is encoded once, where it is built (see
:class:`~repro.types.ValueBatch`).  A reconfiguration control command that
must travel alone (every one but a ``ForwardedCommand``, which re-multicasts
an application write; see :data:`~repro.types.CONTROL_CLASSES`) is never
batched: it flushes the pending batch and then leaves alone, so its agreed
delivery position stays unambiguous.

Skip values (rate leveling) bypass the batcher entirely -- the coordinator
proposes them directly through the instance window.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.config import BatchingConfig
from repro.types import CONTROL_CLASSES, Value, batch_values

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ringpaxos.role import RingRole

__all__ = ["CoordinatorBatcher", "PROPOSER", "COORDINATOR"]

#: The two stages a batcher runs at (the ``stage`` label of its metrics).
PROPOSER = "proposer"
COORDINATOR = "coordinator"

class CoordinatorBatcher:
    """Packs proposed values into batch values, at the coordinator or a proposer."""

    def __init__(self, role: "RingRole", config: BatchingConfig, stage: str = COORDINATOR) -> None:
        self.role = role
        self.config = config
        self.stage = stage
        self._clock = role.host.world.sim
        # A proposer never waits on a timer: what it holds at turn end leaves.
        per_turn = config.max_batch_delay == 0 or stage == PROPOSER
        #: Per-turn batching on a clock whose turns hold one event: the batch
        #: is always empty when a value arrives, and it leaves alone at once.
        self._eager = per_turn and self._clock.turn_per_event
        self._per_turn = per_turn
        #: Where a flushed batch (or a lone value) goes next.
        self._emit = role.send_proposal if stage == PROPOSER else role.enqueue_instances
        #: Values offered and proposers' batches spliced, in arrival order.
        self._pending: List[Value] = []
        self._pending_count = 0
        self._pending_bytes = 0
        self._timer = None
        # Statistics.
        self.values_offered = 0
        self.batches_flushed = 0
        self.size_flushes = 0
        self.timeout_flushes = 0
        self.turn_flushes = 0
        self.control_flushes = 0

    # ------------------------------------------------------------------
    def offer(self, value: Value) -> None:
        """Add ``value`` to the pending batch, flushing when a cap is hit."""
        if self._eager:
            self.values_offered += 1
            self.batches_flushed += 1
            self._emit(value)
            return
        if CONTROL_CLASSES.get(value.payload.__class__):
            # A control command that must travel alone gets its own instance;
            # its position in the delivery sequence is the reconfiguration
            # agreement point and must not be blurred by co-batched values.
            self.flush()
            self.control_flushes += 1
            self._emit(value)
            return
        self._add(value, 1)

    def splice(self, batch: Value) -> None:
        """Join a proposer's batch to the pending one, whole, under the same caps."""
        count = len(batch.payload)
        if self._eager:
            self.values_offered += count
            self.batches_flushed += 1
            self._emit(batch)
            return
        if self._pending and (
            self._pending_count + count > self.config.max_batch_values
            or self._pending_bytes + batch.size_bytes > self.config.max_batch_bytes
        ):
            self.size_flushes += 1
            self.flush()
        self._add(batch, count)

    def _add(self, value: Value, count: int) -> None:
        self.values_offered += count
        self._pending.append(value)
        self._pending_count += count
        self._pending_bytes += value.size_bytes
        if (
            self._pending_count >= self.config.max_batch_values
            or self._pending_bytes >= self.config.max_batch_bytes
        ):
            self.size_flushes += 1
            self.flush()
        elif len(self._pending) == 1:  # the first value of a batch starts its wait
            if self._per_turn:
                self._clock.at_turn_end(self._on_turn_end)
            else:
                self._timer = self.role.host.set_timer(
                    self.config.max_batch_delay, self._on_timeout
                )

    def _on_turn_end(self) -> None:
        if self._pending:
            self.turn_flushes += 1
            self.flush()

    def _on_timeout(self) -> None:
        self._timer = None
        if self._pending:
            self.timeout_flushes += 1
            self.flush()

    def flush(self) -> None:
        """Send the pending batch on as one value (no-op when empty)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        pending = self._pending
        self._pending = []
        self._pending_count = 0
        self._pending_bytes = 0
        if len(pending) == 1:
            value = pending[0]
        else:
            value = batch_values(
                tuple(pending), proposer=self.role.name, created_at=self.role.host.now
            )
        self.batches_flushed += 1
        self._emit(value)

    def reset(self) -> None:
        """Drop pending values (host crash: the batch was volatile).

        A turn-end flush already registered with the clock finds the batch
        empty and does nothing.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._pending = []
        self._pending_count = 0
        self._pending_bytes = 0
