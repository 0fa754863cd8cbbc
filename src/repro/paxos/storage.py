"""The acceptor's stable log.

Section 5.1: *"before responding to a coordinator's request with a Phase 1B
or Phase 2B message, an acceptor must log its response onto stable storage"*,
and the log can later be trimmed once replicas have checkpointed state that
covers the corresponding instances.

The paper's implementation keeps pre-allocated in-memory buffers (15000 slots
of 32 KB) and uses Berkeley DB for disk persistence, with synchronous or
asynchronous writes.  :class:`AcceptorStorage` models exactly that surface:

* it records promises and votes per instance, a skip range as one entry
  that still answers per instance: open entries (undecided, decided above an
  open one, or promised above their vote) as mutable records, and the
  decided history below them as arrays, into which the decided prefix moves
  every few decisions; the pipeline window bounds the records only while
  the acceptor sees every decision it voted for (one lost to a crash or a
  fault holds every later entry open),
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

from array import array
from bisect import bisect_left, bisect_right, insort
from heapq import heappush
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import StorageError
from repro.paxos.types import Ballot, InstanceRecord
from repro.runtime.interfaces import Clock, StableStore, StorageMode
from repro.types import InstanceId, Value

__all__ = ["AcceptorStorage"]

#: Bytes of metadata persisted alongside each vote (instance id, ballot, CRC).
_RECORD_OVERHEAD_BYTES = 64

_ZERO_BALLOT = Ballot.zero()

#: Decisions between two moves of the decided prefix into the history.  One
#: move per decision finds the four columns out of cache every time; on a
#: live ring that cost more than the per-instance records the history saves.
_CLOSE_EVERY = 32


class AcceptorStorage:
    """Per-ring stable storage of one acceptor.

    An entry covers ``count`` instances in one state (a skip range is one
    entry), yet every answer is what recording instance by instance gives.
    ``_starts[_head:]`` lists the working set's record starts in order, oldest
    first.  History entry ``k >= _past_head`` holds ``counts[k]`` decided
    instances from ``starts[k]`` that voted ``values[k]`` at ``ballots[k]``
    (also their promise), where ``_past`` is ``(starts, counts, values, ballots)``.
    """

    __slots__ = (
        "sim",
        "mode",
        "disk",
        "_records",
        "_starts",
        "_head",
        "_past",
        "_past_head",
        "_past_end",
        "_unclosed",
        "_size",
        "_ranges_end",
        "_slots",
        "_trimmed_up_to",
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
        self._starts: List[InstanceId] = []
        self._head = 0
        self._past = (array("q"), array("q"), [], [])
        #: No history entry reaches ``_past_end``.
        self._past_head = self._past_end = 0
        #: Decisions since the decided prefix last moved into the history.
        self._unclosed = 0
        #: Instances both parts cover; no record of more than one reaches
        #: ``_ranges_end``.
        self._size = 0
        self._ranges_end = 0
        self._trimmed_up_to: Optional[InstanceId] = None
        self.bytes_logged = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def trimmed_up_to(self) -> Optional[InstanceId]:
        """Highest instance removed by trimming, or ``None`` if never trimmed."""
        return self._trimmed_up_to

    def record(self, instance: InstanceId) -> InstanceRecord:
        """The (mutable) record for ``instance``, creating it if absent."""
        if self._trimmed_up_to is not None and instance <= self._trimmed_up_to:
            raise StorageError(f"instance {instance} has been trimmed")
        record = self._find(instance)
        if record is None:
            if instance >= self._past_end or (index := self._past_index(instance)) < 0:
                return self._new_record(instance)
            record = self._reopen(index)
        return self._single(instance) if record.count > 1 else record

    def _new_record(self, instance: InstanceId) -> InstanceRecord:
        """Take a slot for ``instance``, evicting the one ``memory_slots`` behind it."""
        record = InstanceRecord(instance)
        self._add(record)
        self._take_slot(instance)
        return record

    def _take_slot(self, instance: InstanceId) -> None:
        """Evict the instance ``memory_slots`` behind a newly recorded ``instance``."""
        slots = self._slots
        if slots is not None and instance >= slots:
            evicted = instance - slots
            self._evict(evicted)
            if self._trimmed_up_to is None or evicted > self._trimmed_up_to:
                self._trimmed_up_to = evicted
            if self._size > slots:
                # A jump in the instance sequence left records below the floor.
                self.trim(evicted)

    def _vote(self, instance: InstanceId, ballot: Ballot, value: Value) -> None:
        """Record a vote for ``instance`` alone: a fresh one is born voted, and a
        re-vote on a lone history entry stays there (it is decided either way)."""
        trimmed = self._trimmed_up_to is not None and instance <= self._trimmed_up_to
        if (
            instance < self._past_end or instance < self._ranges_end or instance in self._records
            or trimmed or ballot.number < 0  # below the zero ballot: accept() raises
        ):
            index, (_, counts, values, ballots) = self._past_index(instance), self._past
            if trimmed or index < 0 or counts[index] > 1 or not ballot >= ballots[index]:
                self.record(instance).accept(ballot, value)
            else:
                values[index], ballots[index] = value, ballot
        else:
            self._add(InstanceRecord(instance, ballot, ballot, value))
            self._take_slot(instance)

    def is_trimmed(self, instance: InstanceId) -> bool:
        return self._trimmed_up_to is not None and instance <= self._trimmed_up_to

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # records covering ranges
    # ------------------------------------------------------------------
    def _find(self, instance: InstanceId) -> Optional[InstanceRecord]:
        """The working-set record covering ``instance``, if any."""
        record = self._records.get(instance)
        if record is None and instance < self._ranges_end:
            index = bisect_right(self._starts, instance, self._head) - 1
            if index >= self._head:
                record = self._records[self._starts[index]]
                if instance >= record.instance + record.count:
                    return None
        return record

    def _single(self, instance: InstanceId) -> Optional[InstanceRecord]:
        """The record covering ``instance`` alone (a range is split around it)."""
        record = self._find(instance)
        if record is not None and record.count > 1:
            if record.instance < instance:
                record = self._split(record, instance)
            if record.count > 1:
                self._split(record, instance + 1)
        return record

    def _split(self, record: InstanceRecord, at: InstanceId) -> InstanceRecord:
        """Cut ``record`` at ``at`` (inside it); returns the upper part."""
        upper = InstanceRecord(
            at, record.promised, record.accepted_ballot, record.accepted_value,
            record.decided, record.instance + record.count - at,
        )
        record.count -= upper.count
        self._size -= upper.count
        self._add(upper)
        return upper

    def _add(self, record: InstanceRecord) -> None:
        start = record.instance
        self._records[start] = record
        starts = self._starts
        if self._head == len(starts) or start > starts[-1]:
            starts.append(start)
        else:
            insort(starts, start, self._head)
        self._size += record.count
        if record.count > 1 and start + record.count > self._ranges_end:
            self._ranges_end = start + record.count

    def _drop(self, record: InstanceRecord) -> None:
        del self._records[record.instance]
        self._size -= record.count
        if self._starts[self._head] != record.instance:
            del self._starts[bisect_left(self._starts, record.instance, self._head)]
            return
        self._head += 1
        if self._head >= 64 and 2 * self._head >= len(self._starts):
            del self._starts[: self._head]
            self._head = 0

    def _cut_front(self, record: InstanceRecord, up_to: InstanceId) -> None:
        """Remove the instances ``<= up_to`` from a record that extends past it."""
        self._starts[bisect_left(self._starts, record.instance, self._head)] = up_to + 1
        del self._records[record.instance]
        self._size -= up_to + 1 - record.instance
        record.count -= up_to + 1 - record.instance
        record.instance = up_to + 1
        self._records[up_to + 1] = record

    def _evict(self, instance: InstanceId) -> None:
        """Remove ``instance`` alone, wherever it lies."""
        starts, counts, values, ballots = self._past
        head = self._past_head
        if head < len(starts) and starts[head] == instance:
            # The oldest history entry: the steady state of a full ring.
            self._size -= 1
            if counts[head] > 1:
                starts[head] += 1
                counts[head] -= 1
                return
            values[head] = ballots[head] = None
            self._past_head = head = head + 1
            if head >= 64 and 2 * head >= len(starts):
                self._cut_past(head)
            return
        record = self._records.get(instance) or self._find(instance)
        if record is None:
            if (index := self._past_index(instance)) < 0:
                return
            record = self._reopen(index)
        if record.count > 1:
            if record.instance == instance:
                self._cut_front(record, instance)
                return
            record = self._single(instance)
        self._drop(record)

    def _drop_through(self, up_to: InstanceId) -> int:
        """Remove every instance ``<= up_to``; returns how many there were."""
        removed = 0
        starts = self._starts
        while self._head < len(starts) and starts[self._head] <= up_to:
            record = self._records[starts[self._head]]
            if record.instance + record.count > up_to + 1:
                removed += up_to + 1 - record.instance
                self._cut_front(record, up_to)
                break
            removed += record.count
            self._drop(record)
        past, counts, head = self._past[0], self._past[1], self._past_head
        end = bisect_right(past, up_to, head)
        if end > head:
            dropped = sum(counts[head:end])
            top = past[end - 1] + counts[end - 1]
            if top > up_to + 1:  # the last entry keeps its part above ``up_to``
                end -= 1
                dropped -= top - up_to - 1
                past[end], counts[end] = up_to + 1, top - up_to - 1
            self._cut_past(end)
            self._size -= dropped
            removed += dropped
        return removed

    def _past_index(self, instance: InstanceId) -> int:
        """The history entry covering ``instance``, or -1."""
        if instance >= self._past_end:
            return -1
        starts, counts, head = self._past[0], self._past[1], self._past_head
        index = bisect_right(starts, instance, head) - 1
        return index if index >= head and instance < starts[index] + counts[index] else -1

    def _decided(self) -> None:
        """Count a decision; every ``_CLOSE_EVERY``-th moves the decided prefix."""
        self._unclosed += 1
        if self._unclosed >= _CLOSE_EVERY:
            self._unclosed = 0
            self._close_prefix()

    def _close_prefix(self) -> None:
        """Move the decided records at the front of the working set into the history."""
        starts, records, head = self._starts, self._records, self._head
        while head < len(starts):
            record = records[starts[head]]
            # Open: undecided, promised above its vote, or unvoted (a vote sets
            # the promise to the vote's own ballot object; a promise is never None).
            if not record.decided or record.promised is not record.accepted_ballot:
                break
            del records[record.instance]
            head += 1
            self._extend_past(record.instance, record.count, record.accepted_ballot, record.accepted_value)
        if head >= 64 and 2 * head >= len(starts):
            del starts[:head]
            head = 0
        self._head = head

    def _extend_past(self, start: InstanceId, count: int, ballot: Ballot, value: Value) -> None:
        """Add a decided entry to the history, in instance order."""
        past, counts, values, ballots = self._past
        if start >= self._past_end:
            past.append(start)
            counts.append(count)
            values.append(value)
            ballots.append(ballot)
        else:  # below the history's top: a late vote in a gap
            index = bisect_left(past, start, self._past_head)
            for column, item in zip(self._past, (start, count, value, ballot)):
                column.insert(index, item)
        if start + count > self._past_end:
            self._past_end = start + count

    def _reopen(self, index: int) -> InstanceRecord:
        """Move history entry ``index`` back into the working set as a record
        (a promise, or a vote inside a run, on a decided instance).  Moves the
        columns' tail: 3.3 ms at the front of a 1 M-entry history on a 2-vCPU VM."""
        starts, counts, values, ballots = self._past
        record = InstanceRecord(starts[index], ballots[index], ballots[index], values[index], True, counts[index])
        for column in self._past:
            del column[index]
        self._size -= record.count
        self._add(record)
        return record

    def _cut_past(self, end: int) -> None:
        """Forget history entries ``[0, end)``; those below the head are gone already."""
        for column in self._past:
            del column[:end]
        self._past_head = 0

    def _append_range(
        self, first: InstanceId, count: int, ballot: Ballot, value: Value, decided: bool
    ) -> bool:
        """Record ``count`` fresh instances from ``first`` as one entry if that is
        what recording them one by one leaves: the range lies above every entry
        and the trim point, and no entry sits below the window it evicts (one
        left by a jump in the sequence may or may not survive that).  Else no-op.
        """
        trimmed = self._trimmed_up_to
        if (trimmed is not None and first <= trimmed) or not ballot >= _ZERO_BALLOT:
            return False
        slots = self._slots
        floor = -1 if slots is None else first - slots  # no entry lies below it
        starts, past, counts = self._starts, self._past[0], self._past[1]
        if self._head < len(starts):
            top = self._records[starts[-1]]
            if top.instance + top.count > first or starts[self._head] < floor:
                return False
        if self._past_head < len(past) and (past[-1] + counts[-1] > first or past[self._past_head] < floor):
            return False
        self._add(InstanceRecord(first, ballot, ballot, value, decided, count))
        last = first + count - 1
        if slots is not None and last >= slots:
            floor = last - slots
            self._drop_through(floor)
            if trimmed is None or floor > trimmed:
                self._trimmed_up_to = floor
        return True

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
        self._vote(instance, ballot, value)
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
            self._vote(first, ballot, value)
        elif not self._append_range(first, count, ballot, value, False):
            for instance in range(first, first + count):
                self.record(instance).accept(ballot, value)
        nbytes = _RECORD_OVERHEAD_BYTES + value.size_bytes
        return self._persist(nbytes, callback, callback_args)

    def mark_decided(self, instance: InstanceId, count: int = 1) -> None:
        """Mark ``count`` instances from ``instance`` decided (when the decision
        passes by); trimmed and unknown instances are ignored."""
        end = instance + count
        if self._trimmed_up_to is not None and instance <= self._trimmed_up_to:
            instance = self._trimmed_up_to + 1
        record = self._records.get(instance)
        if record is not None and record.instance + record.count == end:
            record.decided = True  # the range this acceptor voted for
        else:
            for single in range(instance, end):
                record = self._find(single)
                if record is not None and not record.decided:
                    self._single(single).decided = True
        self._decided()

    def note_decided(
        self, instance: InstanceId, ballot: Ballot, value: Value, count: int = 1
    ) -> None:
        """Log ``value`` (where no vote exists yet) and mark ``count`` instances
        from ``instance`` decided.

        Fuses the ``is_trimmed`` / ``accepted_value`` / ``log_votes_range`` /
        ``mark_decided`` sequence acceptors run for every decision that
        passes by without having voted on it -- once per decision per
        acceptor, the hottest storage path after vote logging.  Bookkeeping
        (write counters, disk reservation) matches that sequence run once per
        instance: every instance logged here is a write of its own.
        """
        end = instance + count
        if self._trimmed_up_to is not None and instance <= self._trimmed_up_to:
            instance = self._trimmed_up_to + 1
            if instance >= end:
                return
        record = self._records.get(instance)
        if record is not None:
            if record.accepted_value is not None and record.instance + record.count == end:
                # Voted on already (the coordinator, a voting acceptor).
                record.decided = True
                return self._decided()
        elif end - instance > 1 and self._append_range(instance, end - instance, ballot, value, True):
            nbytes = _RECORD_OVERHEAD_BYTES + value.size_bytes
            if self.mode is StorageMode.MEMORY or self.disk is None:
                self.writes += end - instance
                self.bytes_logged += nbytes * (end - instance)
            else:
                for _ in range(instance, end):
                    self._persist(nbytes, None)
            return self._decided()
        elif count == 1 and self._head == len(self._starts) and instance >= self._past_end and ballot.number >= 0:
            # Nothing open below: the decision goes straight into the history.
            self._extend_past(instance, 1, ballot, value)
            self._size += 1
            self._take_slot(instance)
            self._persist(_RECORD_OVERHEAD_BYTES + value.size_bytes, None)
            return
        for single in range(instance, end):
            if single < self._past_end and self._past_index(single) >= 0:
                continue  # in the history: decided, with its value
            record = self.record(single)
            if record.accepted_value is None:
                record.accept(ballot, value)
                self._persist(_RECORD_OVERHEAD_BYTES + value.size_bytes, None)
            record.decided = True
        self._decided()

    # ------------------------------------------------------------------
    # retransmission and trimming
    # ------------------------------------------------------------------
    def accepted_value(self, instance: InstanceId) -> Optional[Value]:
        """The value this acceptor voted for in ``instance``, if any."""
        if self.is_trimmed(instance):
            raise StorageError(f"instance {instance} has been trimmed")
        if (record := self._find(instance)) is not None:
            return record.accepted_value
        return self._past[2][index] if (index := self._past_index(instance)) >= 0 else None

    def read_range(
        self, first: InstanceId, last: InstanceId, decided_only: bool = False
    ) -> List[Tuple[InstanceId, Value]]:
        """Accepted values for instances in ``[first, last]`` (for retransmission).

        One entry per instance, a range record included.  With
        ``decided_only`` the result is restricted to instances this
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
        # Entries ``(start, count, value)`` from both parts, in instance order.
        (past, counts, values, _), head = self._past, self._past_head
        low, high = max(bisect_right(past, first, head) - 1, head), bisect_right(past, last, head)
        entries = list(zip(past[low:high], counts[low:high], values[low:high]))
        starts = self._starts
        index = max(bisect_right(starts, first, self._head) - 1, self._head)
        while index < len(starts) and starts[index] <= last:
            record = self._records[starts[index]]
            index += 1
            if record.accepted_value is not None and (record.decided or not decided_only):
                entries.append((record.instance, record.count, record.accepted_value))
        entries.sort(key=itemgetter(0))
        result: List[Tuple[InstanceId, Value]] = []
        for start, count, value in entries:
            high = min(start + count - 1, last)
            result.extend((instance, value) for instance in range(max(start, first), high + 1))
        return result

    def trim(self, up_to: InstanceId) -> int:
        """Delete all records for instances ``<= up_to``.  Returns how many were removed."""
        removed = self._drop_through(up_to)
        if self._trimmed_up_to is None or up_to > self._trimmed_up_to:
            self._trimmed_up_to = up_to
        return removed
