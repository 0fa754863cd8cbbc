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
with ``async for``; it keeps a window of the last :data:`STREAM_WINDOW`
deliveries, not the run's history.  The witness resolves the acks of one
clock turn together, with one hold of their shared condition (on the
simulator a turn is one event).  Leaving the context, on either backend,
closes the streams and fails every ack still outstanding with
:class:`~repro.errors.MulticastError`.

Both backends build through one path: ``ring()`` hands a
:class:`~repro.multiring.deployment.RingSpec` to
:meth:`Deployment.add_ring <repro.multiring.deployment.Deployment.add_ring>`,
and ``dlog()`` / ``mrpstore()`` / ``client()`` hand the paper's services the
facade's :class:`~repro.runtime.interfaces.Cluster` -- the simulated world,
or the live cluster's per-node runtimes -- on which every acceptor, replica
and client is placed the same way; ``monitor`` is that cluster's one monitor.
On the live backend all of them -- and ``workload()``, whose load generator
is one more client node -- are declared before entering the context (the
node set fixes the TCP topology); only ``inject_failures()``, which arms a
:class:`~repro.scenarios.faults.FaultPlan`, is still limited to the simulator.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures._base as _futures_base
import itertools
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.config import MultiRingConfig, RingConfig
from repro.errors import ConfigurationError, MulticastError
from repro.multiring.deployment import Deployment, RingSpec
from repro.runtime.interfaces import StorageMode
from repro.types import GroupId, Value

if TYPE_CHECKING:  # pragma: no cover - typing only; the sim backend never loads asyncio
    import asyncio

__all__ = ["AtomicMulticast", "DeliveryStream", "STREAM_WINDOW"]

_BACKENDS = ("sim", "live")

_UNSETTLED = (_futures_base.PENDING, _futures_base.RUNNING)

#: Deliveries a :class:`DeliveryStream` keeps per group.  A saturated live
#: ring on one core (``live-closed-mem``) acks 7-21k appends/s on a 2-vCPU
#: VM, so 4 096 give a reader iterating behind it 0.2-0.6 s of slack before
#: it misses one -- and is told so.  Each delivery kept costs its ``Delivery``
#: and its ``Value`` (~1.5 KB with a 1 KB payload), so the window stays a few
#: MB however long the run; keep it at most 8 192.
STREAM_WINDOW = 4096


class _AckFuture(concurrent.futures.Future):
    """An ack future sharing one condition with every other ack of its facade.

    A stock ``Future`` builds its own ``threading.Condition``, a waiter list
    and a callback list, and a closed loop keeps every ack it got.  Here all
    acks of one :class:`AtomicMulticast` share one (re-entrant) condition, so
    resolving any of them wakes every waiter: :meth:`result` and
    :meth:`exception` wait again until *their* future is done or their
    deadline has passed.  The waiter list is made only when
    ``concurrent.futures.wait``/``as_completed`` ask for it, one callback is
    held without a list, and a callback is dropped once it has run: a held,
    resolved ack keeps only itself, its ``Delivery`` and that one's ``Value``.
    The witness settles a turn's acks together (:meth:`DeliveryStream._end_turn`).
    """

    def __init__(self, condition: threading.Condition) -> None:
        # The stock __init__, minus the condition and the two lists.
        self._condition = condition
        self._state = _futures_base.PENDING
        self._result = None
        self._exception = None
        self._waiter_list: Optional[list] = None
        #: None, the one callback, or a list of two or more.
        self._done_callbacks: Any = None

    @property
    def _waiters(self) -> list:
        """The waiters ``wait``/``as_completed`` install, made on first use."""
        if self._waiter_list is None:
            self._waiter_list = []
        return self._waiter_list

    def add_done_callback(self, fn) -> None:
        with self._condition:
            if self._state in _UNSETTLED:
                callbacks = self._done_callbacks
                if callbacks is None:
                    self._done_callbacks = fn
                elif type(callbacks) is list:
                    callbacks.append(fn)
                else:
                    self._done_callbacks = [callbacks, fn]
                return
        super().add_done_callback(fn)  # settled: the stock path runs it at once

    def _invoke_callbacks(self) -> None:
        # Once settled, when nothing can add a callback: each runs once, then goes.
        callbacks, self._done_callbacks = self._done_callbacks, None
        if callbacks is None:
            return
        for fn in callbacks if type(callbacks) is list else (callbacks,):
            try:
                fn(self)
            except Exception:
                _futures_base.LOGGER.exception("exception calling callback for %r", self)

    def _finish(self, result: Any) -> None:
        """Settle with ``result``; the caller holds the condition and notifies it."""
        self._result = result
        self._state = _futures_base.FINISHED
        if self._waiter_list:
            for waiter in self._waiter_list:
                waiter.add_result(self)

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

    The stream keeps the last :data:`STREAM_WINDOW` of them.  Each iteration
    starts at the group's first delivery and yields every one in order; an
    iteration that would have to skip deliveries the window has dropped -- it
    fell more than ``STREAM_WINDOW`` behind, or began after that many --
    raises :class:`~repro.errors.MulticastError` naming how many it missed,
    never a silent gap.  ``len()`` counts every delivery, dropped ones too.

    Iterable synchronously (yields what has been delivered so far; on the
    live backend it keeps blocking up to ``idle_timeout`` for more) and
    asynchronously (``async for`` -- the sim backend advances the simulation
    on demand, the live backend awaits real deliveries).  Once the facade
    has exited, both end after the last delivery.
    """

    def __init__(self, api: "AtomicMulticast", group: GroupId, clock: Any) -> None:
        self._api = api
        self._group = group
        #: The witness's clock: a turn's deliveries are settled at its end.
        self._clock = clock
        self._arrived: List[Any] = []
        self._window: Deque[Any] = deque(maxlen=STREAM_WINDOW)
        self._count = 0
        self._closed = False
        #: Live backend: how long a blocking iteration waits for the next
        #: delivery before concluding the stream is idle.
        self.idle_timeout = 1.0

    # -- producer side (called on the witness's clock) ---------------------
    def _on_delivery(self, delivery: Any) -> None:
        arrived = self._arrived
        arrived.append(delivery)
        if len(arrived) == 1:
            self._clock.at_turn_end(self._end_turn)

    def _end_turn(self) -> None:
        """Keep the turn's deliveries and resolve their acks: one hold, one wake-up."""
        arrived, self._arrived = self._arrived, []
        api, settled = self._api, []
        with api._ack_condition:
            self._window.extend(arrived)
            self._count += len(arrived)
            for delivery in arrived:
                future = api._pending.pop(delivery.value.uid, None)
                if future is not None and future._state in _UNSETTLED:
                    future._finish(delivery)
                    settled.append(future)
            api._ack_condition.notify_all()
        for future in settled:
            future._invoke_callbacks()

    def _get(self, index: int) -> Any:
        """The group's ``index``-th delivery, or None while it has not happened."""
        with self._api._ack_condition:
            if index >= self._count:
                return None
            first = self._count - len(self._window)
            if index < first:
                raise MulticastError(
                    f"{first - index} deliveries of {self._group!r} were dropped before this "
                    f"iteration reached them: the stream keeps the last {STREAM_WINDOW}"
                )
            return self._window[index - first]

    # -- sync iteration ----------------------------------------------------
    def __iter__(self) -> Iterator[Any]:
        index = 0
        while True:
            delivery = self._get(index)
            if delivery is not None:
                yield delivery
                index += 1
                continue
            if self._api._backend == "sim" or self._closed:
                return
            deadline = time.monotonic() + self.idle_timeout
            while self._count <= index and not self._closed:
                if time.monotonic() > deadline:
                    return
                time.sleep(0.005)

    def __len__(self) -> int:
        return self._count

    # -- async iteration -----------------------------------------------------
    async def __aiter__(self):
        index = 0
        while True:
            delivery = self._get(index)
            if delivery is not None:
                yield delivery
                index += 1
                continue
            if self._closed:
                return
            if self._api._backend == "sim":
                # Advance the simulation until the next delivery materializes.
                self._api.world.start()
                if not self._api.world.sim.step():
                    return
            else:
                import asyncio

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
        self._pending: Dict[int, _AckFuture] = {}
        #: The one condition every ack future of this facade waits on; it
        #: also guards the streams' windows.
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

    def inject_failures(self, plan) -> None:
        """Arm a :class:`~repro.scenarios.faults.FaultPlan` on this deployment (sim only for now).

        ``coordinator:`` selectors resolve against :attr:`deployment`; the
        facade holds no store, so a ``replica:`` selector is refused here.
        """
        self._require_sim("inject_failures()")
        plan.arm(self.world, self.deployment)

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
        live = self._backend == "live"
        if live and self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        if live and self._thread is not None:
            self._thread.join(timeout=self._STARTUP_TIMEOUT)
            if self._thread.is_alive():
                # Graceful stop stalled (e.g. a wedged shutdown path): cancel
                # the loop's main task rather than abandon the thread.
                self._cancel_live_task()
                self._thread.join(timeout=5.0)
            self._thread = None
        for stream in self._streams.values():
            stream._closed = True
        # Nothing runs the deployment any more: nothing can deliver what is
        # still outstanding (a callback may submit again: that one stays).
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(MulticastError("deployment closed before delivery"))

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
        import asyncio

        try:
            asyncio.run(self._live_main())
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            if self._startup_error is None:
                self._startup_error = exc
            self._ready.set()

    async def _live_main(self) -> None:
        import asyncio

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
        witness = self.deployment.node(learners[0])
        stream = DeliveryStream(self, group, witness.world.sim)
        witness.on_deliver(stream._on_delivery, group=group)
        self._streams[group] = stream

    def submit(
        self, group: GroupId, payload: Any, size_bytes: Optional[int] = None
    ) -> "concurrent.futures.Future":
        """Atomically multicast ``payload`` to ``group``.

        Returns a future resolved with the :class:`Delivery` once the value
        is delivered at the group's witness learner.  On the sim backend the
        future resolves while :meth:`run` advances virtual time; on the live
        backend it resolves from the node's event loop and can be awaited
        with ``future.result(timeout=...)``.

        A value submitted while the ring's coordinator is down is lost: the
        ring has no coordinator failover yet, so the coordinator's restart
        does not bring it back, and its future stays pending until the
        context closes and fails it with :class:`MulticastError`.
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
