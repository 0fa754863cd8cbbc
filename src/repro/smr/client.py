"""Clients: one request/response core, two pacings.

The paper drives both of its services with one kind of client talking to
proposer front-ends (Sections 7.2 and 8).  :class:`RequestClient` is that
client: it turns a :class:`Request` into a :class:`Command`, hands it to the
group's front-end, waits for the replica responses that complete it, retries
if asked to, and records the latency in its cluster's monitor.  What differs
between load generators is only *when the next request is issued*:

* :class:`ClosedLoopClient` (here) -- on completion: ``threads`` streams, each
  keeping exactly one request outstanding, fed by a :class:`Workload` object
  (YCSB mixes, append-only streams, update-only streams, ...);
* :class:`~repro.workloads.engine.OpenLoopLoadGenerator` -- at the sampled
  instant, whatever is still outstanding.

Either is placed like any other process of a service, on
``cluster.runtime_of(name)``, and so runs on both backends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Protocol

from repro.errors import WorkloadError
from repro.runtime.actor import Process
from repro.runtime.interfaces import Runtime
from repro.smr.command import Command, Response, SubmitCommand
from repro.types import GroupId

__all__ = ["Request", "Workload", "RequestClient", "ClosedLoopClient"]


@dataclass(frozen=True)
class Request:
    """One logical client request produced by a workload."""

    #: Service-specific operation payload (e.g. ``("update", key, value_size)``).
    operation: object
    #: Serialized request size in bytes.
    size_bytes: int
    #: The multicast group the request must be submitted to.
    group: GroupId
    #: How many replica responses complete the request (1, or one per partition
    #: for scans / multi-appends).
    expected_responses: int = 1
    #: Label under which the completion is recorded in the monitor.
    series: Optional[str] = None


class Workload(Protocol):
    """Anything that can produce the next request for a client thread."""

    def next_request(self, rng: random.Random) -> Request:  # pragma: no cover - protocol
        ...


class _Pending:
    """One outstanding request."""

    __slots__ = ("request", "started_at", "context", "command", "frontend", "seen", "timer")

    def __init__(self, request: Request, started_at: float, context: Any) -> None:
        self.request = request
        self.started_at = started_at
        self.context = context
        self.command: Optional[Command] = None
        self.frontend: Optional[str] = None
        self.seen: set = set()
        self.timer = None


class RequestClient(Process):
    """The request/response core every load generator paces.

    ``frontends`` maps multicast groups to proposer front-end process names
    (it may be updated while running); ``refresh``, when given, re-reads that
    map on a routing miss -- which is what happens mid-re-partitioning, when
    new partitions appear.  Subclasses call :meth:`submit` when their pacing
    says so and override :meth:`on_complete`.
    """

    def __init__(
        self,
        world: Runtime,
        name: str,
        frontends: Dict[GroupId, str],
        *,
        site: Optional[str] = None,
        series: str = "client",
        retry_timeout: float = 0.0,
        refresh: Optional[Callable[[], Dict[GroupId, str]]] = None,
    ) -> None:
        super().__init__(world, name, site)
        if retry_timeout < 0:
            raise WorkloadError("the retry timeout cannot be negative")
        self.frontends = dict(frontends)
        self._refresh = refresh
        self.series = series
        #: When positive, a request outstanding longer than this many seconds
        #: is re-submitted (same command, so replicas stay consistent).  Needed
        #: under fault injection: a command lost to a crash or partition would
        #: otherwise stay outstanding forever.
        self.retry_timeout = retry_timeout
        self._outstanding: Dict[Hashable, _Pending] = {}
        self.completed = 0
        self.issued = 0
        self.retries = 0

    # -- issuing -----------------------------------------------------------
    def submit(self, request: Request, started_at: float, context: Any = None) -> None:
        """Send ``request`` to its group's front-end as a new command.

        Latency is counted from ``started_at`` (the client's clock);
        ``context`` comes back in :meth:`on_complete`.
        """
        frontend = self.frontends.get(request.group)
        if frontend is None and self._refresh is not None:
            self.frontends.update(self._refresh())
            frontend = self.frontends.get(request.group)
        if frontend is None:
            raise WorkloadError(f"no front-end configured for group {request.group!r}")
        command = Command.create(
            client=self.name,
            operation=request.operation,
            size_bytes=request.size_bytes,
            created_at=self.now,
            expected_responses=request.expected_responses,
        )
        pending = self.track(command.command_id, request, started_at, context)
        pending.command = command
        pending.frontend = frontend
        self._send(pending)

    def track(self, key: Hashable, request: Request, started_at: float, context: Any) -> _Pending:
        """Count ``request`` as issued and outstanding under ``key`` until :meth:`finish`."""
        pending = self._outstanding[key] = _Pending(request, started_at, context)
        self.issued += 1
        return pending

    def _send(self, pending: _Pending) -> None:
        """(Re-)send a command; armed again while ``retry_timeout`` is positive.

        A retry re-sends the *same* command object (same command id): replicas
        execute whatever the decided sequence contains, so a duplicate that
        makes it through consensus twice is applied identically everywhere,
        and the client ignores responses after the first completion.
        """
        self.send(pending.frontend, SubmitCommand(group=pending.request.group, command=pending.command))
        if self.retry_timeout > 0:
            pending.timer = self.set_timer(self.retry_timeout, self._maybe_retry, pending)

    def _maybe_retry(self, pending: _Pending) -> None:
        if pending.command.command_id not in self._outstanding or not self.alive:
            return
        self.retries += 1
        self._send(pending)

    # -- completing --------------------------------------------------------
    def on_message(self, sender: str, payload) -> None:
        if not isinstance(payload, Response):
            return
        pending = self._outstanding.get(payload.command_id)
        if pending is None:
            return  # duplicate response after completion
        # For single-partition commands the first response completes the
        # request; for scans the client waits for one response per partition.
        pending.seen.add(payload.partition)
        if len(pending.seen) >= pending.request.expected_responses:
            self.finish(payload.command_id)

    def finish(self, key: Hashable) -> None:
        """Complete the request tracked under ``key``: latency into the monitor, then pacing."""
        pending = self._outstanding.pop(key)
        if pending.timer is not None:
            pending.timer.cancel()
        self.completed += 1
        request = pending.request
        now = self.now
        self.world.monitor.record_operation(
            request.series or self.series,
            completion_time=now,
            latency=now - pending.started_at,
            size_bytes=request.size_bytes,
        )
        self.on_complete(pending.context)

    def on_complete(self, context: Any) -> None:
        """Pacing hook: a request submitted with ``context`` has completed."""

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)


class ClosedLoopClient(RequestClient):
    """A client machine running ``threads`` closed-loop request streams."""

    def __init__(
        self,
        world: Runtime,
        name: str,
        workload: Workload,
        frontends: Dict[GroupId, str],
        threads: int = 1,
        site: Optional[str] = None,
        series: str = "client",
        think_time: float = 0.0,
        rng: Optional[random.Random] = None,
        retry_timeout: float = 0.0,
    ) -> None:
        super().__init__(
            world, name, frontends, site=site, series=series, retry_timeout=retry_timeout
        )
        if threads < 1:
            raise WorkloadError("a client needs at least one thread")
        self.workload = workload
        self.threads = threads
        self.think_time = think_time
        self.rng = rng or world.rng.stream(f"client:{name}")

    def on_start(self) -> None:
        for _ in range(self.threads):
            self._issue_next()

    def _issue_next(self) -> None:
        if self.alive:
            self.submit(self.workload.next_request(self.rng), self.now)

    def on_complete(self, context: Any) -> None:
        if self.think_time > 0:
            self.set_timer(self.think_time, self._issue_next)
        else:
            self._issue_next()
