"""Public entry point: atomic multicast on either backend.

:class:`AtomicMulticast` is the front door to the library: a context-managed
builder of one Multi-Ring Paxos :class:`~repro.multiring.deployment.Deployment`.
The one choice is the **backend** -- where the protocol runs:
``backend="sim"`` (default) is the deterministic simulator;
``backend="live"`` runs every node as an asyncio task with its own TCP server
on localhost, every protocol message crossing a socket through the versioned
codec (the facade runs the event loop on a background thread so the
synchronous API below works unchanged).

Core surface::

    with AtomicMulticast(seed=1) as am:                  # the simulator
        am.ring("ring-1", acceptors=["a1", "a2", "a3"], learners=["L1", "L2"])
        future = am.submit("ring-1", "hello", size_bytes=1024)
        am.run_for(1.0)
        delivery = future.result(timeout=0)              # acked: delivered
        for d in am.deliveries("ring-1"):
            ...

    with AtomicMulticast(backend="live") as am:          # same code, real TCP
        ...

``submit(group, payload)`` returns a :class:`concurrent.futures.Future`
resolved with the :class:`~repro.multiring.merge.Delivery` once the value is
delivered at the group's witness learner (the ack the "zero lost acked
writes" invariant counts).  ``multicast(groups, payload)`` addresses several
groups atomically through the ring declared with ``multi_group_route=True``.
``deliveries(group)`` returns a stream that can be iterated synchronously or
with ``async for``.

Both backends build through one path: ``ring()`` hands a
:class:`~repro.multiring.deployment.RingSpec` to
:meth:`Deployment.add_ring <repro.multiring.deployment.Deployment.add_ring>`,
and ``dlog()`` / ``mrpstore()`` / ``client()`` hand the paper's services the
facade's :class:`~repro.runtime.interfaces.Cluster` -- the simulated world,
or the live cluster's per-node runtimes -- on which every acceptor, replica
and client is placed the same way; ``monitor`` is that cluster's one monitor.
On the live backend all of them -- and ``workload()``, whose load generator
is one more client node -- are declared before entering the context (the
node set fixes the TCP topology); only ``inject_failures()`` is still limited
to the simulator.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import concurrent.futures._base as _futures_base
import itertools
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.config import MultiRingConfig, RingConfig
from repro.errors import ConfigurationError, MulticastError
from repro.multiring.deployment import Deployment, RingSpec
from repro.runtime.interfaces import StorageMode
from repro.types import GroupId, Value

__all__ = ["AtomicMulticast", "DeliveryStream"]

_BACKENDS = ("sim", "live")

_UNSETTLED = (_futures_base.PENDING, _futures_base.RUNNING)


class _AckFuture(concurrent.futures.Future):
    """An ack future sharing one condition with every other ack of its facade.

    A stock ``Future`` builds its own ``threading.Condition`` -- an ``RLock``,
    a waiter ``deque`` and bound methods, three quarters of the future's size
    -- and a closed loop keeps every ack it got.  Here all acks of one
    :class:`AtomicMulticast` share one (re-entrant) condition, so resolving
    any of them wakes every waiter: :meth:`result` and :meth:`exception`
    wait again until *their* future is done or their deadline has passed.
    ``concurrent.futures.wait``/``as_completed`` wait on their own waiter
    objects and hold the condition re-entrantly, so they work unchanged.
    """

    def __init__(self, condition: threading.Condition) -> None:
        # The stock __init__, minus the condition it would build.
        self._condition = condition
        self._state = _futures_base.PENDING
        self._result = None
        self._exception = None
        self._waiters = []
        self._done_callbacks = []

    def _wait(self, timeout: Optional[float]) -> None:
        """Hold the shared condition until this future is done or ``timeout`` passed."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._state in _UNSETTLED:
            if deadline is None:
                self._condition.wait()
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._condition.wait(remaining)

    def result(self, timeout: Optional[float] = None) -> Any:
        with self._condition:
            self._wait(timeout)
            return super().result(0)

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        with self._condition:
            self._wait(timeout)
            return super().exception(0)


class DeliveryStream:
    """Deliveries of one group at its witness learner, oldest first.

    Iterable synchronously (yields what has been delivered so far; on the
    live backend it keeps blocking up to ``idle_timeout`` for more) and
    asynchronously (``async for`` -- the sim backend advances the simulation
    on demand, the live backend awaits real deliveries).
    """

    def __init__(self, api: "AtomicMulticast", group: GroupId) -> None:
        self._api = api
        self._group = group
        self.items: List[Any] = []
        self._closed = False
        #: Live backend: how long a blocking iteration waits for the next
        #: delivery before concluding the stream is idle.
        self.idle_timeout = 1.0

    # -- producer side (called on the backend's execution context) -------
    def _push(self, delivery: Any) -> None:
        self.items.append(delivery)

    def _close(self) -> None:
        self._closed = True

    # -- sync iteration ----------------------------------------------------
    def __iter__(self) -> Iterator[Any]:
        index = 0
        while True:
            while index < len(self.items):
                yield self.items[index]
                index += 1
            if self._api._backend == "sim" or self._closed:
                return
            deadline = time.monotonic() + self.idle_timeout
            while len(self.items) <= index and not self._closed:
                if time.monotonic() > deadline:
                    return
                time.sleep(0.005)

    def __len__(self) -> int:
        return len(self.items)

    # -- async iteration -----------------------------------------------------
    async def __aiter__(self):
        index = 0
        while True:
            while index < len(self.items):
                yield self.items[index]
                index += 1
            if self._closed:
                return
            if self._api._backend == "sim":
                # Advance the simulation until the next delivery materializes.
                self._api.world.start()
                if not self._api.world.sim.step():
                    return
            else:
                await asyncio.sleep(0.005)


class AtomicMulticast:
    """Context-managed atomic multicast on the simulator or over live TCP."""

    #: How long :meth:`__enter__` waits for the live backend to come up.
    #: A class attribute so tests can shrink it; a failed or timed-out
    #: startup tears the loop thread down before raising -- the constructor
    #: never leaks a running background thread.
    _STARTUP_TIMEOUT = 30.0

    def __init__(
        self,
        *,
        backend: str = "sim",
        seed: int = 0,
        config: Optional[MultiRingConfig] = None,
        topology: Any = None,
        network_config: Any = None,
        default_site: Optional[str] = None,
        trace: bool = False,
        host: str = "127.0.0.1",
        storage_dir: Optional[str] = None,
    ) -> None:
        if backend not in _BACKENDS:
            raise ConfigurationError(f"unknown backend {backend!r}; expected one of {_BACKENDS}")

        self._backend = backend
        self.seed = seed
        self.config = config or MultiRingConfig.datacenter()
        self._streams: Dict[GroupId, DeliveryStream] = {}
        self._pending: Dict[int, concurrent.futures.Future] = {}
        #: The one condition every ack future of this facade waits on.
        self._ack_condition = threading.Condition()
        self._workloads = itertools.count()
        #: The ring multi-group messages are ordered on (``ring(multi_group_route=True)``).
        self._multi_route: Optional[GroupId] = None

        if backend == "sim":
            from repro.sim.world import World

            self.world = World(
                topology=topology,
                seed=seed,
                network_config=network_config,
                trace_enabled=trace,
                default_site=default_site,
            )
            self._cluster = self.world
        else:
            if topology is not None or network_config is not None:
                raise ConfigurationError(
                    "topology / network_config model simulated networks; "
                    "the live backend uses the real one"
                )
            from repro.runtime.live import LiveDeployment

            self.world = None
            self._cluster = LiveDeployment(host=host, seed=seed, storage_dir=storage_dir)
            self._loop: Optional[asyncio.AbstractEventLoop] = None
            self._thread: Optional[threading.Thread] = None
            self._main_task: Optional["asyncio.Task"] = None
            self._ready = threading.Event()
            self._stop_event: Optional[asyncio.Event] = None
            self._startup_error: Optional[BaseException] = None
        self.deployment = Deployment(self._cluster, self.config)

    # ------------------------------------------------------------------
    # deployment building
    # ------------------------------------------------------------------
    def ring(
        self,
        group: GroupId,
        members: Optional[Sequence[str]] = None,
        *,
        acceptors: Optional[Sequence[str]] = None,
        proposers: Optional[Sequence[str]] = None,
        learners: Optional[Sequence[str]] = None,
        coordinator: Optional[str] = None,
        storage: StorageMode = StorageMode.MEMORY,
        sites: Optional[Dict[str, str]] = None,
        ring_config: Optional[RingConfig] = None,
        multi_group_route: bool = False,
    ) -> None:
        """Declare one multicast group: one ring of the deployment.

        ``members`` (the ring order) defaults to the acceptors, then the
        proposers, then the learners, each name once; ``proposers`` defaults
        to the acceptors.  ``multi_group_route`` makes this group's ring the
        one every multi-group :meth:`multicast` is ordered on (its learners
        must cover every destination).  On the live backend rings must be
        declared before entering the context (the node set fixes the TCP
        topology).
        """
        if members is None:
            if acceptors is None:
                raise ConfigurationError("a ring needs members or acceptors")
            members = list(dict.fromkeys([*acceptors, *(proposers or ()), *(learners or ())]))
        if proposers is None and acceptors is not None:
            proposers = list(acceptors)
        self.deployment.add_ring(
            RingSpec(
                group=group,
                members=list(members),
                acceptors=list(acceptors) if acceptors is not None else None,
                proposers=list(proposers) if proposers is not None else None,
                learners=list(learners) if learners is not None else None,
                coordinator=coordinator,
                storage_mode=storage,
            ),
            sites=sites,
            ring_config=ring_config,
        )
        if multi_group_route:
            self._multi_route = group

    # -- service builders (live: before entering the context, like ring()) --
    def dlog(self, **kwargs):
        """Build a dLog service deployment on this backend's cluster."""
        from repro.services.dlog import DLog

        return DLog(self._cluster, config=kwargs.pop("config", self.config), **kwargs)

    def mrpstore(self, **kwargs):
        """Build an MRP-Store deployment on this backend's cluster."""
        from repro.services.mrpstore import MRPStore

        return MRPStore(self._cluster, config=kwargs.pop("config", self.config), **kwargs)

    def client(self, name: str, workload, frontends, **kwargs):
        """Attach a closed-loop client machine (its own node on the live backend)."""
        from repro.smr.client import ClosedLoopClient

        return ClosedLoopClient(
            self._cluster.runtime_of(name), name, workload, frontends, **kwargs
        )

    def _require_sim(self, what: str):
        if self._backend != "sim":
            raise ConfigurationError(f"{what} is only available on the sim backend (for now)")

    def inject_failures(self, schedule):
        """Arm a failure schedule (sim backend chaos hook; live crash/restart is open)."""
        self._require_sim("inject_failures()")
        from repro.sim.failure import FailureInjector

        injector = FailureInjector(self.world, schedule)
        injector.arm()
        return injector

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "AtomicMulticast":
        if self._backend == "sim":
            return self
        # Hooked before the loop thread exists, so each stream sees its
        # group's deliveries from the first one.
        for group in self.deployment.rings:
            self._hook_witness(group)
        self._thread = threading.Thread(
            target=self._live_thread_main, name="repro-live", daemon=True
        )
        self._thread.start()
        ready = self._ready.wait(timeout=self._STARTUP_TIMEOUT)
        if self._startup_error is not None:
            self._abort_live()
            raise self._startup_error
        if not ready:
            self._abort_live()
            raise ConfigurationError(
                f"live backend failed to start within {self._STARTUP_TIMEOUT:g}s"
            )
        return self

    def __exit__(self, *exc_info) -> None:
        if self._backend == "sim":
            return
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=self._STARTUP_TIMEOUT)
            if self._thread.is_alive():
                # Graceful stop stalled (e.g. a wedged shutdown path): cancel
                # the loop's main task rather than abandon the thread.
                self._cancel_live_task()
                self._thread.join(timeout=5.0)
            self._thread = None
        for stream in self._streams.values():
            stream._close()
        # The loop is gone: nothing can deliver what is still outstanding.
        for future in self._pending.values():
            if not future.done():
                future.set_exception(MulticastError("deployment closed before delivery"))
        self._pending.clear()

    def _abort_live(self) -> None:
        """Tear down a live loop thread after a failed startup.

        Called before ``__enter__`` re-raises, so a constructor/startup
        failure never leaks a running background thread: the main task is
        cancelled (which unwinds a deployment wedged mid-``__aenter__``) and
        the thread joined.
        """
        self._cancel_live_task()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
        self._thread = None

    def _cancel_live_task(self) -> None:
        loop, task = self._loop, self._main_task
        if loop is None or task is None:
            return
        try:
            loop.call_soon_threadsafe(task.cancel)
        except RuntimeError:
            pass  # loop already closed

    def _live_thread_main(self) -> None:
        try:
            asyncio.run(self._live_main())
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            if self._startup_error is None:
                self._startup_error = exc
            self._ready.set()

    async def _live_main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._main_task = asyncio.current_task()
        self._stop_event = asyncio.Event()
        async with self._cluster:
            self._ready.set()
            await self._stop_event.wait()

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def node(self, name: str):
        """The protocol node (:class:`~repro.multiring.node.MultiRingNode`) named ``name``."""
        return self.deployment.node(name)

    def coordinator_of(self, group: GroupId):
        """The node currently coordinating ``group``'s ring."""
        return self.deployment.coordinator_of(group)

    def _hook_witness(self, group: GroupId) -> None:
        """Feed ``group``'s stream and acks from its witness: the ring's first learner."""
        if group in self._streams:
            return
        learners = self.deployment.ring(group).learners
        if not learners:
            raise MulticastError(f"group {group!r} has no learners to deliver at")
        stream = DeliveryStream(self, group)
        self.deployment.node(learners[0]).on_deliver(
            lambda d: self._on_witness_delivery(stream, d), group=group
        )
        self._streams[group] = stream

    def _on_witness_delivery(self, stream: DeliveryStream, delivery) -> None:
        stream._push(delivery)
        future = self._pending.pop(delivery.value.uid, None)
        if future is not None and not future.done():
            future.set_result(delivery)

    def submit(
        self, group: GroupId, payload: Any, size_bytes: Optional[int] = None
    ) -> "concurrent.futures.Future":
        """Atomically multicast ``payload`` to ``group``.

        Returns a future resolved with the :class:`Delivery` once the value
        is delivered at the group's witness learner.  On the sim backend the
        future resolves while :meth:`run` advances virtual time; on the live
        backend it resolves from the node's event loop and can be awaited
        with ``future.result(timeout=...)``.
        """
        return self._send((group,), payload, size_bytes)

    def multicast(
        self,
        groups: Sequence[GroupId],
        payload: Any,
        size_bytes: Optional[int] = None,
    ) -> "concurrent.futures.Future":
        """Atomically multicast ``payload`` to every group in ``groups``.

        A message to one group is :meth:`submit`.  A message to several is
        ordered on the ring declared with ``multi_group_route=True``, on both
        backends, and its future resolves at that ring's witness; per-group
        streams via :meth:`deliveries` see every delivery.
        """
        dests = tuple(groups)
        if not dests:
            raise MulticastError("multicast() needs at least one destination group")
        for group in dests:
            self._hook_witness(group)
        return self._send(dests, payload, size_bytes)

    def _send(
        self, dests: Tuple[GroupId, ...], payload: Any, size_bytes: Optional[int]
    ) -> "concurrent.futures.Future":
        """Hand one value addressed to ``dests`` to its proposer; future = its ack.

        The value is created here, on the caller's thread.  The simulator
        proposes it at once; the live backend hands it to the proposer on the
        loop thread, through the node's clock.
        """
        if self._backend == "live" and self._loop is None:
            raise ConfigurationError("enter the live context before submitting traffic")
        if size_bytes is None:
            from repro.net.message import estimate_size

            size_bytes = estimate_size(payload)
        route = self._route_of(dests)
        self._hook_witness(route)
        node = self.deployment.node(self.deployment.next_proposer(route))
        node.check_proposer(route)
        clock = node.world.sim
        value = Value.create(payload, size_bytes, proposer=node.name, created_at=clock.now)
        future = _AckFuture(self._ack_condition)
        self._pending[value.uid] = future
        if self._backend == "sim":
            node.propose_value(route, value)
        else:
            self._loop.call_soon_threadsafe(clock.post, node.propose_value, route, value)
        return future

    def _route_of(self, dests: Tuple[GroupId, ...]) -> GroupId:
        """The group whose ring orders a message addressed to ``dests``."""
        if len(dests) == 1:
            return dests[0]
        if self._multi_route is None:
            raise MulticastError(
                "multi-group messages need a designated ring: declare one with "
                "multi_group_route=True whose learners cover every destination"
            )
        return self._multi_route

    def deliveries(self, group: GroupId) -> DeliveryStream:
        """The group's delivery stream at its witness learner (see class doc)."""
        self._hook_witness(group)
        return self._streams[group]

    def workload(
        self,
        target,
        schedule=None,
        *,
        replay=None,
        key_space: int = 10_000,
        users: int = 1_000_000,
        seed: Optional[int] = None,
        op: str = "append",
        size_bytes: int = 512,
        record: bool = False,
    ):
        """Open-loop arrival-sampled traffic against a group or a service, either backend.

        ``target`` is a group id -- raw values go through :meth:`submit` and
        complete at the group's witness learner -- or a service built by
        :meth:`dlog` / :meth:`mrpstore` (anything with ``open_loop_target()``),
        whose commands go to its proposer front-ends and complete when its
        replicas have answered.  Pass either a
        :class:`~repro.workloads.engine.PhaseSchedule` (``schedule=``) to
        sample a fresh Poisson/Zipf arrival stream, or a recorded
        :class:`~repro.workloads.engine.WorkloadTrace` (``replay=``) to
        reproduce a captured storm byte-for-byte -- e.g. one recorded on the
        sim backend, replayed over real TCP.

        The load generator is a client node of the deployment, so on the live
        backend a workload is declared before entering the context, like
        :meth:`ring` and :meth:`client`.  Returns its
        :class:`~repro.workloads.engine.WorkloadManager` (start / stop /
        collect / drain / recent_entries); latency is measured from the
        *intended* arrival instant (no coordinated omission) and also lands in
        :attr:`monitor`.  ``record=True`` captures the submitted stream on
        ``manager.trace`` for later replay.
        """
        from repro.workloads.engine import (
            GroupTarget,
            OpenLoopLoadGenerator,
            OpenLoopSampler,
            WorkloadManager,
            WorkloadTrace,
        )

        if (schedule is None) == (replay is None):
            raise ConfigurationError("pass exactly one of schedule= or replay=")
        if replay is not None:
            events = list(replay)
        else:
            sampler = OpenLoopSampler(
                schedule,
                key_space=key_space,
                users=users,
                seed=self.seed if seed is None else seed,
                op=op,
                size_bytes=size_bytes,
            )
            events = list(sampler.events())
        if hasattr(target, "open_loop_target"):
            target = target.open_loop_target()
        else:
            self._hook_witness(target)
            target = GroupTarget(self.submit, target)
        name = f"openloop-{next(self._workloads)}"
        generator = OpenLoopLoadGenerator(
            self._cluster.runtime_of(name),
            name,
            target,
            events,
            recorder=WorkloadTrace() if record else None,
        )
        return WorkloadManager(self, generator)

    # ------------------------------------------------------------------
    # execution / time
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Advance the deployment: virtual time (sim) or wall-clock sleep (live)."""
        if self._backend == "sim":
            return self.world.run(until=until)
        if until is None:
            raise ConfigurationError("live run() needs an explicit horizon; use run_for")
        remaining = until - self.now
        if remaining > 0:
            time.sleep(remaining)
        return self.now

    def run_for(self, duration: float) -> float:
        return self.run(until=self.now + duration)

    @property
    def now(self) -> float:
        return self._cluster.now

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def monitor(self):
        """The cluster's one metric monitor (clients and replicas record into it)."""
        return self._cluster.monitor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AtomicMulticast(backend={self._backend!r}, rings={list(self.deployment.rings)!r})"
