"""Public entry point: backend- and engine-agnostic atomic multicast.

:class:`AtomicMulticast` is the redesigned front door to the library.  It is
a context-managed deployment builder with two orthogonal choices:

* **backend** -- where the protocol runs: ``backend="sim"`` (default) is the
  deterministic simulator; ``backend="live"`` runs every node as an asyncio
  task with its own TCP server on localhost, every protocol message crossing
  a socket through the versioned codec (the facade runs the event loop on a
  background thread so the synchronous API below works unchanged).
* **engine** -- *which protocol orders the messages*: ``engine="multiring"``
  (default) is the paper's Multi-Ring Paxos; ``engine="whitebox"`` is
  White-Box Atomic Multicast (genuine, no global rings).  Engines implement
  the :class:`~repro.engines.base.OrderingEngine` seam and are resolved from
  the :mod:`repro.engines` registry, so tests and downstream code can plug
  in their own with :func:`repro.engines.register`.

Core surface::

    with AtomicMulticast(seed=1) as am:                  # sim + multiring
        am.ring("ring-1", acceptors=["a1", "a2", "a3"], learners=["L1", "L2"])
        future = am.submit("ring-1", "hello", size_bytes=1024)
        am.run_for(1.0)
        delivery = future.result(timeout=0)              # acked: delivered
        for d in am.deliveries("ring-1"):
            ...

    with AtomicMulticast(engine="whitebox", seed=1) as am:   # same code
        ...

    with AtomicMulticast(backend="live") as am:          # same code, real TCP
        ...

``submit(group, payload)`` returns a :class:`concurrent.futures.Future`
resolved with the :class:`~repro.multiring.merge.Delivery` once the value is
delivered at the group's witness learner (the ack the "zero lost acked
writes" invariant counts).  ``multicast(groups, payload)`` addresses several
groups atomically.  ``deliveries(group)`` returns a stream that can be
iterated synchronously or with ``async for``.

Both backends build through one path: ``ring()`` hands the same
:class:`~repro.engines.base.EngineSpec` to the engine, and ``dlog()`` /
``mrpstore()`` / ``client()`` hand the paper's services the facade's
:class:`~repro.runtime.interfaces.Cluster` -- the simulated world, or the live
cluster's per-node runtimes -- on which every acceptor, replica and client is
placed the same way; ``monitor`` is that cluster's one monitor.  On the live
backend all of them -- and ``workload()``, whose load generator is one more
client node -- are declared before entering the context (the node set fixes
the TCP topology).  Engines advertise
:attr:`~repro.engines.base.OrderingEngine.supports_live` and the facade
refuses unsupported combinations up front; only ``inject_failures()`` is
still limited to the simulator.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import concurrent.futures._base as _futures_base
import itertools
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import engines as engine_registry
from repro.config import MultiRingConfig, RingConfig
from repro.engines import EngineSpec
from repro.errors import ConfigurationError, MulticastError
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
    """Context-managed, backend- and engine-agnostic atomic multicast."""

    #: How long :meth:`__enter__` waits for the live backend to come up.
    #: A class attribute so tests can shrink it; a failed or timed-out
    #: startup tears the loop thread down before raising -- the constructor
    #: never leaks a running background thread.
    _STARTUP_TIMEOUT = 30.0

    def __init__(
        self,
        *,
        backend: str = "sim",
        engine: str = "multiring",
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

        # Unknown engine names raise ConfigurationError listing the registry.
        self.engine = engine_registry.create(engine)
        self._engine_name = engine
        if backend == "live" and not self.engine.supports_live:
            raise ConfigurationError(
                f"engine {engine!r} does not support the live backend; "
                f"engines that do: "
                f"{[n for n in engine_registry.available() if engine_registry.create(n).supports_live]}"
            )

        self._backend = backend
        self.seed = seed
        self.config = config or MultiRingConfig.datacenter()
        self._streams: Dict[GroupId, DeliveryStream] = {}
        self._pending: Dict[int, concurrent.futures.Future] = {}
        #: The one condition every ack future of this facade waits on.
        self._ack_condition = threading.Condition()
        self._workloads = itertools.count()

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
        self.deployment = self.engine.build(self._cluster, self.config)

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
        """Declare one multicast group (historically named after the ring).

        ``members`` defaults to ``acceptors + learners`` in that order;
        ``proposers`` defaults to the acceptors.  ``multi_group_route`` marks
        this group's ring as the route for multi-group messages on the
        multiring engine (genuine engines ignore it).  On the live backend
        rings must be declared before entering the context (the node set
        fixes the TCP topology).
        """
        if members is None:
            if acceptors is None:
                raise ConfigurationError("a ring needs members or acceptors")
            members = list(acceptors) + [
                name for name in (learners or []) if name not in set(acceptors)
            ]
        if proposers is None and acceptors is not None:
            proposers = list(acceptors)
        options: Dict[str, Any] = {}
        if ring_config is not None:
            options["ring_config"] = ring_config
        if multi_group_route:
            options["multi_group_route"] = True
        self.engine.add_group(
            EngineSpec(
                group=group,
                members=list(members),
                acceptors=list(acceptors) if acceptors is not None else None,
                proposers=list(proposers) if proposers is not None else None,
                learners=list(learners) if learners is not None else None,
                coordinator=coordinator,
                storage_mode=storage,
                sites=sites,
                options=options,
            )
        )

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
        for group in self.engine.groups():
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
        """The engine's protocol node object named ``name``."""
        return self.engine.node(name)

    def coordinator_of(self, group: GroupId):
        """The node currently coordinating (leading) ``group``."""
        return self.engine.node(self.engine.descriptor(group).coordinator)

    def _hook_witness(self, group: GroupId) -> None:
        if group in self._streams:
            return
        stream = DeliveryStream(self, group)
        self.engine.on_deliver(group, lambda d: self._on_witness_delivery(stream, d))
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
        self._hook_witness(group)
        return self._send((group,), payload, size_bytes)

    def multicast(
        self,
        groups: Sequence[GroupId],
        payload: Any,
        size_bytes: Optional[int] = None,
    ) -> "concurrent.futures.Future":
        """Atomically multicast ``payload`` to every group in ``groups``.

        The future resolves at the first witness delivery (any destination);
        per-group streams via :meth:`deliveries` see every delivery.  The
        multiring engine sends a multi-group message through its
        ``multi_group_route`` ring, on both backends.
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
        """Hand one value addressed to ``dests`` to the engine; future = its ack."""
        if size_bytes is None:
            from repro.net.message import estimate_size

            size_bytes = estimate_size(payload)
        future = _AckFuture(self._ack_condition)
        if self._backend == "sim":
            value = self.engine.multicast(dests, payload, size_bytes)
            self._pending[value.uid] = future
        else:
            if self._loop is None:
                raise ConfigurationError("enter the live context before submitting traffic")
            # The value is created here, on the caller's thread, and handed
            # to its proposer on the loop thread through the node's clock.
            group = self.engine.route_of(dests)
            node = self.engine.node(self.engine.next_proposer(group))
            clock = node.world.sim
            value = Value.create(payload, size_bytes, proposer=node.name, created_at=clock.now)
            self._pending[value.uid] = future
            self._loop.call_soon_threadsafe(clock.post, node.propose_value, group, value)
        return future

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
    def engine_name(self) -> str:
        """The registered name of the ordering engine in use."""
        return self._engine_name

    def engine_stats(self) -> Dict[str, Any]:
        """The ordering engine's counters (see :meth:`OrderingEngine.stats`)."""
        return self.engine.stats()

    @property
    def monitor(self):
        """The cluster's one metric monitor (clients and replicas record into it)."""
        return self._cluster.monitor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AtomicMulticast(backend={self._backend!r}, engine={self._engine_name!r})"
