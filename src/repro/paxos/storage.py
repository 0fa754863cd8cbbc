"""The acceptor's stable log.

Section 5.1: *"before responding to a coordinator's request with a Phase 1B
or Phase 2B message, an acceptor must log its response onto stable storage"*,
and the log can later be trimmed once replicas have checkpointed state that
covers the corresponding instances.

The paper's implementation keeps pre-allocated in-memory buffers (15000 slots
of 32 KB) and uses Berkeley DB for disk persistence, with synchronous or
asynchronous writes.  :class:`AcceptorStorage` models exactly that surface:

* it records promises and votes per instance,
* in :attr:`~repro.runtime.interfaces.StorageMode.MEMORY` mode the log *is*
  that ring of ``memory_slots`` (``RingConfig.memory_slots``): recording
  instance ``i`` overwrites the slot of instance ``i - memory_slots``, which
  from then on reads as trimmed; disk-backed modes keep everything until
  :meth:`AcceptorStorage.trim`,
* persisting a record takes time according to the configured
  :class:`~repro.runtime.interfaces.StorageMode` (nothing for in-memory, a write-back
  write for asynchronous modes, a forced write for synchronous modes),
* it serves retransmission requests for recovering replicas, and
* it can be trimmed up to an instance; reading a trimmed instance raises
  :class:`~repro.errors.StorageError`, which is what forces a recovering
  replica to fall back to a remote checkpoint.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import StorageError
from repro.paxos.types import Ballot, InstanceRecord
from repro.runtime.interfaces import Clock, StableStore, StorageMode
from heapq import heappush

from repro.types import InstanceId, Value

__all__ = ["AcceptorStorage"]

#: Bytes of metadata persisted alongside each vote (instance id, ballot, CRC).
_RECORD_OVERHEAD_BYTES = 64


class AcceptorStorage:
    """Per-ring stable storage of one acceptor."""

    __slots__ = (
        "sim",
        "mode",
        "disk",
        "_records",
        "_slots",
        "_trimmed_up_to",
        "_highest_instance",
        "bytes_logged",
        "writes",
    )

    def __init__(
        self,
        sim: Clock,
        mode: StorageMode = StorageMode.MEMORY,
        disk: Optional[StableStore] = None,
        memory_slots: Optional[int] = None,
    ) -> None:
        if memory_slots is not None and memory_slots < 1:
            raise StorageError("an in-memory log needs at least one slot")
        self.sim = sim
        self.mode = mode
        #: Resolved by the caller through ``Runtime.new_store``; ``None``
        #: persists nothing (in-memory rings).
        self.disk = disk
        #: Size of the in-memory ring; ``None`` (always, for the disk-backed
        #: modes) never evicts.
        self._slots = memory_slots if mode is StorageMode.MEMORY else None
        self._records: Dict[InstanceId, InstanceRecord] = {}
        self._trimmed_up_to: Optional[InstanceId] = None
        self._highest_instance: Optional[InstanceId] = None
        self.bytes_logged = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def trimmed_up_to(self) -> Optional[InstanceId]:
        """Highest instance removed by trimming, or ``None`` if never trimmed."""
        return self._trimmed_up_to

    @property
    def highest_instance(self) -> Optional[InstanceId]:
        """Highest instance ever recorded, or ``None`` if the log is empty."""
        return self._highest_instance

    def record(self, instance: InstanceId) -> InstanceRecord:
        """The (mutable) record for ``instance``, creating it if absent."""
        if self._trimmed_up_to is not None and instance <= self._trimmed_up_to:
            raise StorageError(f"instance {instance} has been trimmed")
        record = self._records.get(instance)
        if record is None:
            record = self._new_record(instance)
        return record

    def _new_record(self, instance: InstanceId) -> InstanceRecord:
        """Take a slot for ``instance``, evicting the one ``memory_slots`` behind it."""
        record = self._records[instance] = InstanceRecord(instance)
        slots = self._slots
        if slots is not None and instance >= slots:
            evicted = instance - slots
            self._records.pop(evicted, None)
            if self._trimmed_up_to is None or evicted > self._trimmed_up_to:
                self._trimmed_up_to = evicted
            if len(self._records) > slots:
                # A jump in the instance sequence left records below the floor.
                self.trim(evicted)
        return record

    def has_instance(self, instance: InstanceId) -> bool:
        return instance in self._records

    def is_trimmed(self, instance: InstanceId) -> bool:
        return self._trimmed_up_to is not None and instance <= self._trimmed_up_to

    def instances(self) -> List[InstanceId]:
        return sorted(self._records)

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _persist(
        self,
        nbytes: int,
        callback: Optional[Callable[..., None]],
        callback_args: tuple = (),
    ) -> float:
        """Persist ``nbytes`` according to the storage mode; return the ack time."""
        self.writes += 1
        self.bytes_logged += nbytes
        if self.mode is StorageMode.MEMORY or self.disk is None:
            sim = self.sim
            done = sim._now
            if callback is not None:
                # Inlined Simulator.call_at: ``done`` is exactly now.
                heappush(sim._queue, (done, next(sim._seq), callback, callback_args))
            return done
        if self.mode.synchronous:
            return self.disk.write(nbytes, callback, callback_args)
        return self.disk.write_async(nbytes, callback, callback_args)

    def log_promise(
        self,
        instance: InstanceId,
        ballot: Ballot,
        callback: Optional[Callable[[], None]] = None,
    ) -> float:
        """Record a Phase 1 promise and persist it.  Returns the ack time."""
        record = self.record(instance)
        record.promise(ballot)
        return self._persist(_RECORD_OVERHEAD_BYTES, callback)

    def log_vote(
        self,
        instance: InstanceId,
        ballot: Ballot,
        value: Value,
        callback: Optional[Callable[[], None]] = None,
    ) -> float:
        """Record a Phase 2 vote (accept) and persist it.  Returns the ack time."""
        record = self.record(instance)
        record.accept(ballot, value)
        if self._highest_instance is None or instance > self._highest_instance:
            self._highest_instance = instance
        nbytes = _RECORD_OVERHEAD_BYTES + value.size_bytes
        return self._persist(nbytes, callback)

    def log_votes_range(
        self,
        first: InstanceId,
        count: int,
        ballot: Ballot,
        value: Value,
        callback: Optional[Callable[..., None]] = None,
        callback_args: tuple = (),
    ) -> float:
        """Record votes for ``count`` consecutive instances with one persisted write.

        Used for skip ranges: the coordinator skips several consensus
        instances with a single message, and the acceptors likewise persist
        the whole range as one log record.
        """
        if count < 1:
            raise StorageError("a vote range must cover at least one instance")
        if count == 1:
            # Fast path: everything except skip ranges logs one instance.
            self.record(first).accept(ballot, value)
            if self._highest_instance is None or first > self._highest_instance:
                self._highest_instance = first
        else:
            for offset in range(count):
                instance = first + offset
                self.record(instance).accept(ballot, value)
                if self._highest_instance is None or instance > self._highest_instance:
                    self._highest_instance = instance
        nbytes = _RECORD_OVERHEAD_BYTES + value.size_bytes
        return self._persist(nbytes, callback, callback_args)

    def mark_decided(self, instance: InstanceId) -> None:
        """Mark an instance as decided (used when the decision passes by)."""
        if self._trimmed_up_to is not None and instance <= self._trimmed_up_to:
            return
        record = self._records.get(instance)
        if record is not None:
            record.decided = True

    def note_decided(self, instance: InstanceId, ballot: Ballot, value: Value) -> None:
        """Log ``value`` (if no vote exists yet) and mark ``instance`` decided.

        Fuses the ``is_trimmed`` / ``accepted_value`` / ``log_votes_range`` /
        ``mark_decided`` sequence acceptors run for every decision that
        passes by without having voted on it -- once per instance per
        acceptor, the hottest storage path after vote logging.  Bookkeeping
        (write counters, disk reservation) matches that sequence exactly.
        """
        if self._trimmed_up_to is not None and instance <= self._trimmed_up_to:
            return
        record = self._records.get(instance)
        if record is None or record.accepted_value is None:
            if record is None:
                record = self._new_record(instance)
            record.accept(ballot, value)
            if self._highest_instance is None or instance > self._highest_instance:
                self._highest_instance = instance
            self._persist(_RECORD_OVERHEAD_BYTES + value.size_bytes, None)
        record.decided = True

    # ------------------------------------------------------------------
    # retransmission and trimming
    # ------------------------------------------------------------------
    def accepted_value(self, instance: InstanceId) -> Optional[Value]:
        """The value this acceptor voted for in ``instance``, if any."""
        if self.is_trimmed(instance):
            raise StorageError(f"instance {instance} has been trimmed")
        record = self._records.get(instance)
        return record.accepted_value if record is not None else None

    def read_range(
        self, first: InstanceId, last: InstanceId, decided_only: bool = False
    ) -> List[Tuple[InstanceId, Value]]:
        """Accepted values for instances in ``[first, last]`` (for retransmission).

        With ``decided_only`` the result is restricted to instances this
        acceptor knows were decided -- the learner gap-repair path must not
        deliver a value that never reached a quorum.  Raises
        :class:`StorageError` if any requested instance has been trimmed --
        the recovering replica must then fetch a newer checkpoint.
        """
        if first > last:
            return []
        if self._trimmed_up_to is not None and first <= self._trimmed_up_to:
            raise StorageError(
                f"instances up to {self._trimmed_up_to} have been trimmed, requested from {first}"
            )
        result: List[Tuple[InstanceId, Value]] = []
        for instance in sorted(self._records):
            if instance < first or instance > last:
                continue
            record = self._records[instance]
            if record.accepted_value is None:
                continue
            if decided_only and not record.decided:
                continue
            result.append((instance, record.accepted_value))
        return result

    def trim(self, up_to: InstanceId) -> int:
        """Delete all records for instances ``<= up_to``.  Returns how many were removed."""
        removed = 0
        for instance in [i for i in self._records if i <= up_to]:
            del self._records[instance]
            removed += 1
        if self._trimmed_up_to is None or up_to > self._trimmed_up_to:
            self._trimmed_up_to = up_to
        return removed

    def log_size_bytes(self) -> int:
        """Approximate size of the live (untrimmed) log."""
        return sum(
            _RECORD_OVERHEAD_BYTES
            + (record.accepted_value.size_bytes if record.accepted_value is not None else 0)
            for record in self._records.values()
        )
