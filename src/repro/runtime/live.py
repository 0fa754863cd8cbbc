"""Live runtime backend: asyncio callbacks over real localhost TCP.

This is the second implementation of the runtime protocols
(:mod:`repro.runtime.interfaces`).  Where the simulator runs the whole
deployment inside one virtual clock, the live backend gives **each node** a
clock pump, a TCP server and one outbound connection per peer, and ships
every protocol message through the versioned :mod:`repro.runtime.codec`
over length-prefixed TCP.  The protocol stack
(:class:`~repro.multiring.node.MultiRingNode` and everything beneath it)
runs **unchanged**.

A message crossing TCP costs one decode, one handler run and one encode,
with no task woken per message and nothing awaited on the way:

1. the server side's ``data_received`` appends the chunk to that
   connection's receive buffer, decodes every complete frame in it and
   hands ``deliver_message`` to :meth:`LiveClock.post` for each;
2. the clock pump runs the handlers; what they send to a remote process is
   encoded into that peer's send buffer;
3. the first frame buffered in an event-loop turn arms one ``call_soon``
   flush, which hands each filled buffer to its socket in a **single**
   ``write``: a burst of handlers costs one ``send(2)`` per peer, and a lone
   message leaves in the turn that produced it.

What bounds the buffers: a receive buffer holds one partial frame (at most
``MAX_FRAME_BYTES``) beyond the chunk being decoded; a send buffer holds one
turn's frames -- or, while its connection is being (re)dialled or the kernel
pushes back, what the ring's pipeline window lets the node send before it
stalls on the missing replies.

Key pieces:

* :class:`LiveClock` -- a wall-clock pacer sharing the simulator's calendar
  queue contract (``_now`` / ``_queue`` / ``_seq``), so the PR-4 fast paths
  that push heap entries directly keep working.  An asyncio pump executes
  due events and sleeps until the next deadline.
* :class:`LiveTransport` -- FIFO-per-channel messaging: local processes are
  delivered through the clock, remote ones over one ordered TCP connection
  per peer node (mirroring the paper's per-ring TCP connections), dialled on
  first use and dialled again when it is lost.
* :class:`LiveNodeRuntime` -- the per-node :class:`Runtime`: clock +
  transport + monitor/rng/trace + the process registry.
* :class:`LiveFileStore` -- a real append log behind the
  :class:`~repro.runtime.interfaces.StableStore` surface: the synchronous
  writes of one clock turn share one ``fsync`` (a group commit).  Record
  *content* persistence/recovery in live mode is an open item; the store
  provides real durability timing and accounting.
* :class:`LiveDeployment` -- the N-node cluster in one OS process (every
  node still talks TCP to every other through its own server socket; ports
  are ephemeral, so parallel runs never collide).  It only places nodes on
  runtimes, with one monitor between them, and runs them; rings and services
  are built on it by the same builders as on the simulator.
"""

from __future__ import annotations

import asyncio
import heapq
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, NetworkError
from repro.obs import Observability
from repro.obs.http import ObsHTTPServer
from repro.obs.metrics import Histogram
from repro.runtime.codec import CodecError, decode_counts, frame_message, iter_frames
from repro.runtime.cpu import CPUConfig
from repro.runtime.interfaces import StorageMode
from repro.sim.engine import Simulator
from repro.sim.monitor import Monitor
from repro.sim.random import RandomStreams
from repro.sim.trace import Trace

__all__ = [
    "LiveClock",
    "LiveTransport",
    "LiveNodeRuntime",
    "LiveFileStore",
    "LiveDeployment",
]

#: How many due events the clock pump executes before yielding to the event
#: loop so socket reads/writes make progress under bursty load.
_PUMP_BATCH = 512

#: The zeros a :class:`LiveFileStore` appends as its placeholder records.
_ZEROS = memoryview(bytes(1 << 16))


class LiveClock(Simulator):
    """Wall-clock event pacer sharing the simulator's scheduling contract.

    Inherits the calendar queue, the FIFO tie-break, tombstone cancellation
    and the ``call_at``/``call_later``/``schedule`` surface from
    :class:`~repro.sim.engine.Simulator`; instead of ``run()`` jumping the
    clock to each event, an asyncio :meth:`pump` advances ``_now`` with the
    loop's monotonic time and executes events as their deadlines pass.

    A *turn* is one burst of the pump: every event already due when it woke
    (up to ``_PUMP_BATCH``), e.g. all the messages one ``data_received``
    decoded and what their handlers posted in turn.  Callbacks registered
    with :meth:`at_turn_end` run after the burst, before the pump awaits --
    so the sends they make leave in the same socket write as the burst's.
    """

    turn_per_event = False

    def __init__(self) -> None:
        super().__init__()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wakeup: Optional[asyncio.Event] = None
        self._stopped = False
        self._turn_end: List[Callable[[], Any]] = []

    # ------------------------------------------------------------------
    def attach(self, loop: asyncio.AbstractEventLoop, epoch: float) -> None:
        """Bind the clock to ``loop``, mapping loop time ``epoch`` to t=0.

        A shared epoch across all nodes of a deployment keeps their
        monitor timelines comparable.
        """
        self._loop = loop
        self._epoch = epoch
        self._wakeup = asyncio.Event()

    def _wall(self) -> float:
        return self._loop.time() - self._epoch

    def post(self, callback: Callable[..., Any], *args: Any) -> None:
        """Enqueue ``callback`` to run in the pump as soon as possible.

        The only scheduling entry point that may be called from *outside* a
        pump callback (socket readers, the API facade); it wakes the pump.
        """
        heapq.heappush(self._queue, (self._now, next(self._seq), callback, args))
        if self._wakeup is not None:
            self._wakeup.set()

    def at_turn_end(self, callback: Callable[[], Any]) -> None:
        """Run ``callback`` after the current pump burst, before the pump awaits."""
        self._turn_end.append(callback)

    def stop(self) -> None:
        self._stopped = True
        if self._wakeup is not None:
            self._wakeup.set()

    def _end_turn(self) -> None:
        # A callback may register another (it lands in the fresh list): run
        # until none is left, so the pump never sleeps on pending work.
        while self._turn_end:
            callbacks, self._turn_end = self._turn_end, []
            for callback in callbacks:
                try:
                    callback()
                except Exception:  # noqa: BLE001 - as for a handler
                    print(f"[live-clock] turn-end {callback!r} raised:", file=sys.stderr)
                    traceback.print_exc()

    # ------------------------------------------------------------------
    async def pump(self) -> None:
        """Execute events as the wall clock passes their deadlines."""
        queue = self._queue
        tombstones = self._tombstones
        heappop = heapq.heappop
        while not self._stopped:
            now = self._wall()
            if now > self._now:
                self._now = now
            executed = 0
            while queue and executed < _PUMP_BATCH:
                time, seq, callback, args = queue[0]
                if tombstones and seq in tombstones:
                    tombstones.discard(seq)
                    heappop(queue)
                    continue
                if time > self._now:
                    now = self._wall()
                    if now > self._now:
                        self._now = now
                    if time > self._now:
                        break
                heappop(queue)
                self._processed += 1
                try:
                    callback(*args)
                except Exception:  # noqa: BLE001 - a live node must not die on one handler
                    print(f"[live-clock] handler {callback!r} raised:", file=sys.stderr)
                    traceback.print_exc()
                executed += 1
            if self._turn_end:
                self._end_turn()
            if self._stopped:
                return
            if executed >= _PUMP_BATCH:
                await asyncio.sleep(0)  # let socket IO progress mid-burst
                continue
            if queue:
                delay = queue[0][0] - self._wall()
                if delay > 0:
                    try:
                        await asyncio.wait_for(self._wakeup.wait(), timeout=delay)
                    except asyncio.TimeoutError:
                        pass
                else:
                    await asyncio.sleep(0)
            else:
                await self._wakeup.wait()
            self._wakeup.clear()


class _PeerLink(asyncio.Protocol):
    """The one ordered outbound connection to a peer node.

    Frames wait in ``buffer`` until the transport's flush hands the whole
    buffer to the socket: while the connection is being dialled, while the
    kernel pushes back (``pause_writing``), and after a lost connection
    until the redial succeeds.  A buffer is only ever appended to and
    written whole, which is what keeps the channel FIFO.
    """

    def __init__(self, network: "LiveTransport", address: Tuple[str, int]) -> None:
        self.network = network
        self.address = address
        self.buffer = bytearray()
        self.transport: Optional[asyncio.Transport] = None
        self.paused = False
        self.dial: Optional[asyncio.Task] = None

    def flush(self) -> None:
        if self.transport is None:
            if self.dial is None and not self.network.closed:
                self.dial = asyncio.get_running_loop().create_task(self._dial())
        elif self.buffer and not self.paused and not self.transport.is_closing():
            # Ownership of the bytearray moves to the socket transport.  (A
            # transport that is already closing would drop it: keep it for
            # the redial its ``connection_lost`` is about to start.)
            self.transport.write(self.buffer)
            self.buffer = bytearray()

    async def _dial(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                await loop.create_connection(lambda: self, *self.address)
                return
            except OSError:
                await asyncio.sleep(0.05)  # peer server not up (again) yet

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.dial = None  # a later loss starts a fresh one
        self.flush()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.transport = None
        self.paused = False
        if self.network.closed:
            return
        self.network.connections_lost += 1
        if self.buffer:
            self.flush()  # no send may come to arm one

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.flush()

    def close(self) -> None:
        if self.dial is not None:
            self.dial.cancel()
        if self.transport is not None:
            self.transport.close()  # sends what it was handed, then FIN


class _Inbound(asyncio.Protocol):
    """Server side of one peer's connection: decode frames, deliver locally."""

    def __init__(self, network: "LiveTransport") -> None:
        self.network = network
        self.buffer = bytearray()
        self.transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        network = self.network
        processes = network._processes
        self.buffer += data
        try:
            for src, dst, payload in iter_frames(self.buffer):
                network.messages_received += 1
                process = processes.get(dst)
                if process is None or not process.alive:
                    network.messages_dropped += 1
                    continue
                network._clock.post(process.deliver_message, src, payload)
        except CodecError:
            # Whoever sent this does not speak the protocol: drop the
            # connection, keep serving the others.
            network.frames_rejected += 1
            self.transport.close()


class LiveTransport:
    """FIFO-per-channel transport over localhost TCP.

    Local destinations are delivered through the clock (preserving FIFO via
    the calendar queue's tie-break); remote destinations are framed by the
    codec into one buffer per peer node, and every buffer filled during an
    event-loop turn leaves in a single write on that peer's one ordered
    connection, so every ``(src, dst)`` channel is FIFO end to end -- the
    same guarantee the simulator's network model provides and TCP gives the
    paper's system.
    """

    def __init__(self, clock: LiveClock) -> None:
        self._clock = clock
        self._processes: Dict[str, Any] = {}
        self._sites: Dict[str, str] = {}
        #: Node server address -> the one connection to it; remote process
        #: name -> the link of its node.
        self._peers: Dict[Tuple[str, int], _PeerLink] = {}
        self._links: Dict[str, _PeerLink] = {}
        #: Links whose buffer went non-empty since the last flush.
        self._dirty: List[_PeerLink] = []
        self.closed = False
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_received = 0
        self.messages_dropped = 0
        #: Inbound connections closed on a malformed frame.
        self.frames_rejected = 0
        #: Outbound connections that went away under us (each is redialled).
        self.connections_lost = 0
        self.bytes_sent = 0
        self.frames_sent = 0
        self.wire_bytes_sent = 0

    # -- Transport protocol ----------------------------------------------
    def attach(self, process: Any, site: str) -> None:
        self._processes[process.name] = process
        self._sites[process.name] = site

    def detach(self, name: str) -> None:
        self._processes.pop(name, None)
        self._sites.pop(name, None)

    def link_faulted(self, src: str, dst: str) -> bool:
        return False  # live fault injection is an open item

    def send(self, src: str, dst: str, payload: Any, size_bytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        process = self._processes.get(dst)
        if process is not None:
            if process.alive:
                self.messages_delivered += 1
                self._clock.post(process.deliver_message, src, payload)
            else:
                self.messages_dropped += 1
            return
        link = self._links.get(dst)
        if link is None:
            self.messages_dropped += 1
            return
        frame = frame_message(src, dst, payload)
        self.frames_sent += 1
        self.wire_bytes_sent += len(frame)
        if not link.buffer:
            if not self._dirty:
                # Not through the clock: the flush is no protocol event, and
                # it must also run for sends made outside a pump callback.
                asyncio.get_running_loop().call_soon(self._flush)
            self._dirty.append(link)
        link.buffer += frame

    def _flush(self) -> None:
        """Hand every buffer filled this loop turn to its socket, one write each."""
        dirty, self._dirty = self._dirty, []
        for link in dirty:
            link.flush()

    # -- peer wiring ------------------------------------------------------
    def set_peer(self, name: str, address: Tuple[str, int]) -> None:
        """Route ``name`` over the (lazily dialled) connection to ``address``."""
        link = self._peers.get(address)
        if link is None:
            link = self._peers[address] = _PeerLink(self, address)
        self._links[name] = link

    def accept(self) -> asyncio.Protocol:
        """Protocol factory for this node's server (``loop.create_server``)."""
        return _Inbound(self)

    def close(self) -> None:
        """Write out what is buffered and close every connection."""
        self.closed = True  # from here on nothing is dialled
        self._flush()
        for link in self._peers.values():
            link.close()


class LiveFileStore:
    """A real append log behind the :class:`StableStore` surface.

    ``write`` appends without flushing; the first ``write`` of a clock turn
    registers one turn-end commit, which flushes the file, ``fsync``\\ s it
    once (synchronous modes) and posts the callback of every write it
    covered through the clock.  So a vote, which its callback sends on,
    never leaves before the fsync that covers it.  ``write_async`` flushes
    to the OS and leaves syncing to it.  The protocol layer only hands byte
    *counts* to its store (record content is opaque there), so the log
    carries placeholder blocks -- real durability timing and accounting,
    with content-level recovery left as an open item.
    """

    __slots__ = ("sim", "path", "_file", "_fsync", "_fsync_hist", "_waiting", "bytes_written", "ops")

    def __init__(
        self,
        clock: LiveClock,
        path: str,
        fsync: bool = True,
        fsync_hist: Optional[Histogram] = None,
    ) -> None:
        self.sim = clock
        self.path = path
        self._file = open(path, "ab")
        self._fsync = fsync
        #: Optional fsync-latency histogram (off the protocol hot path: the
        #: fsync syscall it times dwarfs the observation).
        self._fsync_hist = fsync_hist
        #: Callbacks of the writes the pending commit covers; ``None`` while
        #: no commit is registered.
        self._waiting: Optional[List[Tuple[Callable[..., Any], tuple]]] = None
        self.bytes_written = 0
        self.ops = 0

    def _append(self, nbytes: int) -> float:
        if nbytes > 0:
            self._file.write(_ZEROS[:nbytes] if nbytes <= len(_ZEROS) else bytes(nbytes))
        self.bytes_written += nbytes
        self.ops += 1
        return self.sim.now

    def _commit(self) -> None:
        waiting, self._waiting = self._waiting, None
        self._file.flush()
        if self._fsync:
            if self._fsync_hist is not None:
                begin = time.perf_counter()
                os.fsync(self._file.fileno())
                self._fsync_hist.observe(time.perf_counter() - begin)
            else:
                os.fsync(self._file.fileno())
        call_later = self.sim.call_later
        for callback, args in waiting:
            call_later(0.0, callback, *args)

    def write(self, nbytes, callback=None, callback_args=()) -> float:
        done = self._append(nbytes)
        waiting = self._waiting
        if waiting is None:
            waiting = self._waiting = []
            self.sim.at_turn_end(self._commit)
        if callback is not None:
            waiting.append((callback, callback_args))
        return done

    def write_async(self, nbytes, callback=None, callback_args=()) -> float:
        done = self._append(nbytes)
        self._file.flush()
        if callback is not None:
            self.sim.call_later(0.0, callback, *callback_args)
        return done

    def read(self, nbytes, callback=None) -> float:
        if callback is not None:
            self.sim.call_later(0.0, callback)
        return self.sim.now

    def close(self) -> None:
        self._file.close()


class LiveNodeRuntime:
    """The :class:`~repro.runtime.interfaces.Runtime` of one live node."""

    #: The real CPU charges for itself.
    cpu_config = CPUConfig.free()

    def __init__(
        self,
        name: str,
        site: str = "local",
        seed: int = 0,
        storage_dir: Optional[str] = None,
        tracing: bool = False,
        trace_sample: int = 64,
        monitor: Optional[Monitor] = None,
    ) -> None:
        self.name = name
        self.sim = LiveClock()
        self.network = LiveTransport(self.sim)
        self.monitor = monitor if monitor is not None else Monitor()
        self.rng = RandomStreams(seed)
        self.trace = Trace(enabled=False)
        # Per-node observability: each live node owns its tracer and metrics
        # registry (nothing is shared between nodes, matching the eventual
        # one-node-per-OS-process deployment).
        self.obs = Observability(
            tracing=tracing, trace_sample=trace_sample, labels={"node": name}
        )
        self.obs.metrics.add_collector(self._transport_samples)
        self.default_site = site
        self.storage_dir = storage_dir
        self._processes: Dict[str, Any] = {}
        self._peers: Set[str] = set()
        self._stores: List[LiveFileStore] = []
        self._started = False

    # -- process registry -------------------------------------------------
    def register(self, process: Any, site: str) -> None:
        if process.name in self._processes:
            raise ConfigurationError(f"a process named {process.name!r} already exists")
        self._processes[process.name] = process
        self.network.attach(process, site)
        if self._started:
            self.sim.call_later(0.0, process.on_start)

    def process(self, name: str) -> Any:
        try:
            return self._processes[name]
        except KeyError:
            raise NetworkError(f"process {name!r} is not hosted on node {self.name!r}") from None

    def has_process(self, name: str) -> bool:
        return name in self._processes or name in self._peers

    def processes(self) -> List[Any]:
        return list(self._processes.values())

    def add_peer(self, name: str, address: Tuple[str, int]) -> None:
        """Make the remote process ``name`` reachable at ``address``."""
        self._peers.add(name)
        self.network.set_peer(name, address)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for process in list(self._processes.values()):
            self.sim.call_later(0.0, process.on_start)

    @property
    def started(self) -> bool:
        return self._started

    @property
    def now(self) -> float:
        return self.sim.now

    # -- storage factory ---------------------------------------------------
    def new_store(self, mode: StorageMode) -> Optional[LiveFileStore]:
        if mode is StorageMode.MEMORY:
            return None
        if self.storage_dir is None:
            # Refuse rather than degrade: without a directory the acceptor
            # would otherwise fall back to the simulator's timing-model disk
            # and the requested durability would silently not exist.
            raise ConfigurationError(
                f"storage mode {mode.value!r} on the live backend needs a "
                "storage directory (pass storage_dir= to the deployment)"
            )
        os.makedirs(self.storage_dir, exist_ok=True)
        path = os.path.join(
            self.storage_dir, f"{self.name}-store-{len(self._stores)}.log"
        )
        store = LiveFileStore(
            self.sim,
            path,
            fsync=mode.synchronous,
            fsync_hist=self.obs.metrics.histogram(
                "mrp_fsync_latency_seconds", "Acceptor-log fsync latency"
            ),
        )
        self._stores.append(store)
        return store

    def close_stores(self) -> None:
        for store in self._stores:
            store.close()

    # -- observability -----------------------------------------------------
    def _transport_samples(self):
        """Pull-collector: transport and store counters, read at snapshot time.

        The codec's decode counters are per process (its learned layouts
        are shared by every node in it), so each node reports the same two.
        """
        network = self.network
        compiled, walked = decode_counts()
        samples = [
            ("mrp_codec_compiled_decodes_total", compiled),
            ("mrp_codec_generic_decodes_total", walked),
            ("mrp_transport_messages_sent_total", network.messages_sent),
            ("mrp_transport_messages_delivered_total", network.messages_delivered),
            ("mrp_transport_messages_received_total", network.messages_received),
            ("mrp_transport_messages_dropped_total", network.messages_dropped),
            ("mrp_transport_frames_rejected_total", network.frames_rejected),
            ("mrp_transport_connections_lost_total", network.connections_lost),
            ("mrp_transport_bytes_sent_total", network.bytes_sent),
            ("mrp_transport_frames_sent_total", network.frames_sent),
            ("mrp_transport_wire_bytes_sent_total", network.wire_bytes_sent),
            ("mrp_store_bytes_written_total", sum(s.bytes_written for s in self._stores)),
            ("mrp_store_ops_total", sum(s.ops for s in self._stores)),
        ]
        return samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LiveNodeRuntime({self.name!r}, t={self.sim.now:.3f})"


# ----------------------------------------------------------------------
# the live cluster
# ----------------------------------------------------------------------
@dataclass
class _LiveNode:
    """One live node: its runtime and its listeners."""

    name: str
    runtime: LiveNodeRuntime
    server: Optional[asyncio.AbstractServer] = None
    address: Optional[Tuple[str, int]] = None
    pump_task: Optional[asyncio.Task] = None
    obs_server: Optional[ObsHTTPServer] = None
    obs_address: Optional[Tuple[str, int]] = None


class LiveDeployment:
    """An N-node live cluster inside one OS process.

    The :class:`~repro.runtime.interfaces.Cluster` of the live backend: it
    places every node on its own runtime (clock pump, TCP server, peers), so
    all inter-node traffic crosses real localhost TCP.  What runs on the
    nodes is declared through the same
    :class:`~repro.multiring.deployment.Deployment` and service builders the
    simulator uses, built on this cluster *before* it starts: the node set
    fixes the TCP topology.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        seed: int = 0,
        storage_dir: Optional[str] = None,
        tracing: bool = False,
        trace_sample: int = 64,
        serve_http: bool = False,
    ) -> None:
        self.host = host
        self.seed = seed
        self.storage_dir = storage_dir
        self.tracing = tracing
        self.trace_sample = trace_sample
        #: When set, each node serves /metrics, /healthz and /spans/<id> on
        #: an ephemeral localhost port (``node.obs_address``).
        self.serve_http = serve_http
        #: The one monitor every node's runtime records into (all nodes share
        #: one interpreter and one loop thread, so it needs no lock).
        self.monitor = Monitor()
        self.nodes: Dict[str, _LiveNode] = {}
        self._started = False

    # ------------------------------------------------------------------
    def runtime_of(self, name: str) -> LiveNodeRuntime:
        """Place node ``name`` (once) and return the runtime hosting it."""
        if self._started:
            raise ConfigurationError(
                "live rings, services and clients must be declared before "
                "entering the context "
                "(the node set fixes the TCP topology)"
            )
        live = self.nodes.get(name)
        if live is None:
            runtime = LiveNodeRuntime(
                name,
                seed=self.seed,
                storage_dir=self.storage_dir,
                tracing=self.tracing,
                trace_sample=self.trace_sample,
                monitor=self.monitor,
            )
            live = self.nodes[name] = _LiveNode(name=name, runtime=runtime)
        return live.runtime

    def node(self, name: str) -> _LiveNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise ConfigurationError(f"unknown live node {name!r}") from None

    @property
    def now(self) -> float:
        """Wall seconds since :meth:`start`, the epoch every node's clock shares."""
        if not self._started:
            return 0.0
        return next(iter(self.nodes.values())).runtime.sim._wall()

    async def start(self) -> None:
        """Bind every node's server, connect peers, start pumps."""
        if self._started:
            return
        if not self.nodes:
            raise ConfigurationError("declare at least one ring before starting live nodes")
        self._started = True
        loop = asyncio.get_running_loop()
        epoch = loop.time()

        for live in self.nodes.values():
            runtime = live.runtime
            runtime.sim.attach(loop, epoch)
            server = await loop.create_server(runtime.network.accept, self.host, 0)
            live.server = server
            live.address = server.sockets[0].getsockname()[:2]
            if self.serve_http:
                live.obs_server = ObsHTTPServer(
                    runtime.obs, live.name, now=lambda rt=runtime: rt.now
                )
                live.obs_address = await live.obs_server.start(self.host, 0)

        # Everyone knows everyone: process name -> hosting node's address.
        for live in self.nodes.values():
            for other in self.nodes.values():
                if other.name != live.name:
                    live.runtime.add_peer(other.name, other.address)

        for live in self.nodes.values():
            live.pump_task = loop.create_task(
                live.runtime.sim.pump(), name=f"pump-{live.name}"
            )
            live.runtime.start()

    async def stop(self) -> None:
        if not self._started:
            return
        for live in self.nodes.values():
            if live.server is not None:
                live.server.close()
            if live.obs_server is not None:
                await live.obs_server.close()
            live.runtime.network.close()
        for live in self.nodes.values():
            live.runtime.sim.stop()
            if live.pump_task is not None:
                try:
                    await asyncio.wait_for(live.pump_task, timeout=1.0)
                except (asyncio.TimeoutError, asyncio.CancelledError):
                    live.pump_task.cancel()
            live.runtime.close_stores()
        for live in self.nodes.values():
            if live.server is not None:
                await live.server.wait_closed()
        self._started = False

    async def __aenter__(self) -> "LiveDeployment":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()
