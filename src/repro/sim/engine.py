"""Discrete-event simulation engine.

The engine is a classic calendar queue built on :mod:`heapq`.  Events are
callbacks scheduled at absolute simulated times.  Ties are broken by an
insertion sequence number so that two events scheduled for the same instant
fire in FIFO order -- this keeps every run deterministic, which the test
suite and the benchmark harness rely on.

Hot-path design: heap entries are plain ``(time, seq, callback, args)``
tuples, not objects.  Tuple comparison resolves on ``(time, seq)`` before it
ever reaches the callback (sequence numbers are unique), so ordering is the
exact FIFO-tie-break order the old ``Event.__lt__`` implemented -- without a
Python-level dispatch per heap operation or an allocation per event.
Cancellation works through a *tombstone set* of sequence numbers: cancelling
marks the seq, and the pop loop discards marked entries.  Schedulers that
never cancel (the network, CPU and disk models -- the vast majority of
traffic) use :meth:`Simulator.call_at` / :meth:`Simulator.call_later`, which
skip the kwargs plumbing and do not allocate a cancellation handle at all.
"""

from __future__ import annotations

import heapq
import math
from functools import partial
from itertools import count
from typing import Any, Callable, List, Optional, Set, Tuple

from repro.errors import SimulationError

__all__ = ["Event", "Simulator"]


class Event:
    """A cancellation handle for a scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and can be cancelled
    with :meth:`Simulator.cancel` (or :meth:`Event.cancel`).  Cancelled events
    stay in the heap as tombstoned entries and are skipped when popped; when
    they outnumber the live events the simulator compacts the heap (see
    :meth:`Simulator._note_cancelled`), so long runs with heavy timer churn
    (leveling intervals, reconfigurations) keep the calendar queue bounded.
    """

    __slots__ = ("owner", "seq", "time", "cancelled")

    def __init__(self, owner: "Simulator", seq: int, time: float) -> None:
        self.owner = owner
        self.seq = seq
        self.time = time
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancelled(self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class Simulator:
    """The simulated clock and event queue.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("one second in"))
        sim.run(until=10.0)

    The clock only advances when :meth:`run` or :meth:`step` pops events, and
    it never goes backwards.  Scheduling in the past raises
    :class:`~repro.errors.SimulationError`.
    """

    #: Queues smaller than this are never compacted (the rebuild would cost
    #: more than the garbage it reclaims).
    COMPACT_MIN_QUEUE = 64

    #: Every event is its own turn: :meth:`at_turn_end` runs its callback at once.
    turn_per_event = True

    __slots__ = (
        "_now",
        "_queue",
        "_seq",
        "_tombstones",
        "_processed",
        "_running",
        "compactions",
    )

    def __init__(self) -> None:
        self._now: float = 0.0
        #: Heap of ``(time, seq, callback, args)`` entries.
        self._queue: List[Tuple[float, int, Callable[..., Any], tuple]] = []
        self._seq = count()
        #: Sequence numbers of cancelled-but-not-yet-popped entries.
        self._tombstones: Set[int] = set()
        self._processed = 0
        self._running = False
        self.compactions = 0

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still in the queue (cancelled events included)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fast-path scheduling: no kwargs, no cancellation handle.

        This is what the network, CPU and disk models use for their
        fire-and-forget completions -- the overwhelming majority of events in
        any experiment.  Use :meth:`schedule_at` when the event may need to
        be cancelled.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time:.6f}, clock is already at t={self._now:.6f}"
            )
        heapq.heappush(self._queue, (time, next(self._seq), callback, args))

    def call_later(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fast-path scheduling ``delay`` seconds from now (see :meth:`call_at`)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay}s in the past")
        heapq.heappush(self._queue, (self._now + delay, next(self._seq), callback, args))

    def post(self, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback`` as soon as possible; the entry point for callers outside an event.

        A workload manager starting its generator, a test stopping a client:
        code that is not itself running inside an event callback hands work to
        the clock here.  The live clock overrides it to be safe from another
        thread and to wake its pump.
        """
        heapq.heappush(self._queue, (self._now, next(self._seq), callback, args))

    def at_turn_end(self, callback: Callable[[], Any]) -> None:
        """Run ``callback`` once the current turn's events have run: here, at once."""
        callback()

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``callback(*args, **kwargs)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay}s in the past")
        return self.schedule_at(self._now + delay, callback, *args, **kwargs)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``callback(*args, **kwargs)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time:.6f}, clock is already at t={self._now:.6f}"
            )
        if kwargs:
            callback = partial(callback, *args, **kwargs)
            args = ()
        seq = next(self._seq)
        heapq.heappush(self._queue, (time, seq, callback, args))
        return Event(self, seq, time)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event.  ``None`` is accepted and ignored."""
        if event is not None:
            event.cancel()

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots."""
        return len(self._tombstones)

    def _note_cancelled(self, seq: int) -> None:
        """Bookkeeping hook called by :meth:`Event.cancel`.

        When cancelled events outnumber live ones the heap is rebuilt without
        them: long-running experiments with heavy timer churn would otherwise
        grow the calendar queue without bound.
        """
        self._tombstones.add(seq)
        if (
            len(self._queue) > self.COMPACT_MIN_QUEUE
            and len(self._tombstones) * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        # In-place rebuild: run() holds a local reference to the queue list,
        # so the list object's identity must survive compaction.
        tombstones = self._tombstones
        self._queue[:] = [entry for entry in self._queue if entry[1] not in tombstones]
        heapq.heapify(self._queue)
        tombstones.clear()
        self.compactions += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue is empty.
        """
        queue = self._queue
        tombstones = self._tombstones
        while queue:
            time, seq, callback, args = heapq.heappop(queue)
            if seq in tombstones:
                tombstones.discard(seq)
                continue
            self._now = time
            self._processed += 1
            callback(*args)
            return True
        return False

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next live event, or ``None`` if idle."""
        queue = self._queue
        tombstones = self._tombstones
        while queue and queue[0][1] in tombstones:
            tombstones.discard(queue[0][1])
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or ``max_events`` fire.

        Returns the simulated time at which execution stopped.  When ``until``
        is given the clock is advanced to exactly ``until`` even if the last
        event fired earlier, which makes fixed-duration experiments easy to
        express.

        The loop examines each popped entry exactly once: a cancelled head is
        discarded on sight instead of being skipped by ``peek_time`` and then
        re-scanned by ``step``.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        executed = 0
        # Local bindings keep attribute lookups off the per-event path.
        # Callbacks may mutate the queue and tombstone set, but both are
        # only ever mutated in place (see _compact), so the references stay
        # valid for the whole run.  The processed-event counter is batched
        # into the finally block for the same reason.
        queue = self._queue
        tombstones = self._tombstones
        heappop = heapq.heappop
        horizon = math.inf if until is None else until
        try:
            if max_events is None:
                while queue:
                    time, seq, callback, args = queue[0]
                    if tombstones and seq in tombstones:
                        tombstones.discard(seq)
                        heappop(queue)
                        continue
                    if time > horizon:
                        break
                    heappop(queue)
                    self._now = time
                    callback(*args)
                    executed += 1
            else:
                while queue and executed < max_events:
                    time, seq, callback, args = queue[0]
                    if tombstones and seq in tombstones:
                        tombstones.discard(seq)
                        heappop(queue)
                        continue
                    if time > horizon:
                        break
                    heappop(queue)
                    self._now = time
                    callback(*args)
                    executed += 1
        finally:
            self._processed += executed
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_for(self, duration: float, max_events: Optional[int] = None) -> float:
        """Run for ``duration`` seconds of simulated time starting from now."""
        return self.run(until=self._now + duration, max_events=max_events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.6f}, pending={len(self._queue)})"
