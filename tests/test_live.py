"""Tests for the live asyncio/TCP runtime backend."""

from __future__ import annotations

import asyncio
import itertools
import os
import re
import socket
import threading
import time
from pathlib import Path

import pytest

from repro import AtomicMulticast
from repro.errors import ConfigurationError
from repro.multiring.deployment import Deployment, RingSpec
from repro.runtime.actor import Process
from repro.runtime.codec import frame_message
from repro.runtime.interfaces import Clock, StorageMode, Transport
from repro.runtime.live import (
    LiveClock,
    LiveDeployment,
    LiveFileStore,
    LiveNodeRuntime,
    RemotePeer,
)
from repro.live import run_live_dlog
from repro.scenarios.invariants import check_no_acked_write_lost, check_replica_convergence
from repro.services.dlog import DLog
from repro.services.mrpstore import MRPStore
from repro.smr.client import ClosedLoopClient
from repro.workloads.engine import PhaseSchedule
from repro.workloads.simple import AppendWorkload
from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBWorkload


def _run(coro, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


# ----------------------------------------------------------------------
# LiveClock
# ----------------------------------------------------------------------
def test_live_clock_fires_events_in_deadline_order():
    fired = []

    async def scenario():
        loop = asyncio.get_running_loop()
        clock = LiveClock()
        clock.attach(loop, loop.time())
        pump = loop.create_task(clock.pump())
        clock.call_later(0.02, fired.append, "later")
        clock.call_later(0.0, fired.append, "now")
        handle = clock.schedule(0.01, fired.append, "cancelled")
        handle.cancel()
        clock.post(fired.append, "posted")
        await asyncio.sleep(0.08)
        clock.stop()
        await pump

    _run(scenario())
    # "now" and "posted" share deadline t=0 and fall back to FIFO insertion
    # order; the cancelled handle never fires.
    assert fired == ["now", "posted", "later"]


def test_live_clock_periodic_timer_reschedules():
    ticks = []

    async def scenario():
        loop = asyncio.get_running_loop()
        clock = LiveClock()
        clock.attach(loop, loop.time())
        runtime = LiveNodeRuntime("t0")
        runtime.sim = clock
        pump = loop.create_task(clock.pump())

        class Ticker(Process):
            def on_start(self):
                self.set_periodic_timer(0.01, ticks.append, "tick")

        Ticker(runtime, "ticker")
        runtime.start()
        await asyncio.sleep(0.12)
        clock.stop()
        await pump

    _run(scenario())
    assert len(ticks) >= 3


# ----------------------------------------------------------------------
# runtime compliance + transport
# ----------------------------------------------------------------------
def as_runtime(world):
    """Check that ``world`` provides the ``Runtime`` surface and return it.

    Structural, like the protocols themselves: what a new backend is
    validated with.  The simulator ``World`` and ``LiveNodeRuntime`` pass.
    """
    for attr in ("sim", "network", "monitor", "rng", "trace", "default_site", "cpu_config"):
        assert hasattr(world, attr), f"{type(world).__name__} lacks {attr!r}"
    assert isinstance(world.sim, Clock)
    assert isinstance(world.network, Transport)
    for method in ("register", "get_process", "has_process", "start", "new_store"):
        assert callable(getattr(world, method, None)), f"{type(world).__name__}.{method}"
    return world


def test_live_runtime_satisfies_runtime_protocol():
    from repro.sim.world import World

    world = World(seed=1)
    assert as_runtime(world) is world
    runtime = LiveNodeRuntime("n0")
    assert as_runtime(runtime) is runtime
    runtime.add_peer("far-away", ("127.0.0.1", 1))
    assert runtime.has_process("far-away")
    peer = runtime.get_process("far-away")
    assert isinstance(peer, RemotePeer) and peer.alive
    assert runtime.get_process("nobody") is None
    assert runtime.new_store(StorageMode.MEMORY) is None
    # Durable modes need a storage directory; without one the runtime must
    # refuse loudly rather than silently skip the requested durability.
    with pytest.raises(ConfigurationError, match="storage directory"):
        runtime.new_store(StorageMode.SYNC_SSD)


class _Recorder(Process):
    """Appends ``(sender, payload)`` of every message it gets to ``received``."""

    def __init__(self, runtime, name, received) -> None:
        self.received = received
        super().__init__(runtime, name)

    def on_message(self, sender, payload):
        self.received.append((sender, payload))


class _Pair:
    """Sender node ``a`` and recording receiver node ``b`` joined by real TCP."""

    def __init__(self) -> None:
        self.received = []
        #: Server-side protocol objects of ``b``, one per accepted connection.
        self.accepted = []
        self.sender_rt = LiveNodeRuntime("node-a")
        self.receiver_rt = LiveNodeRuntime("node-b")

    async def __aenter__(self) -> "_Pair":
        loop = asyncio.get_running_loop()
        epoch = loop.time()

        def accept():
            self.accepted.append(self.receiver_rt.network.accept())
            return self.accepted[-1]

        for runtime in (self.sender_rt, self.receiver_rt):
            runtime.sim.attach(loop, epoch)
        self.server = await loop.create_server(accept, "127.0.0.1", 0)
        self.address = self.server.sockets[0].getsockname()[:2]
        self.sender = Process(self.sender_rt, "a")
        _Recorder(self.receiver_rt, "b", self.received)
        self.sender_rt.add_peer("b", self.address)
        self.pumps = [
            loop.create_task(self.sender_rt.sim.pump()),
            loop.create_task(self.receiver_rt.sim.pump()),
        ]
        self.sender_rt.start()
        self.receiver_rt.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.server.close()
        for runtime in (self.sender_rt, self.receiver_rt):
            runtime.network.close()
            runtime.sim.stop()
        await asyncio.gather(*self.pumps)
        await self.server.wait_closed()

    def send(self, *indices: int) -> None:
        for index in indices:
            self.sender.send("b", ("seq", index), size_bytes=64)

    async def until(self, condition, timeout: float = 10.0) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while not condition() and loop.time() < deadline:
            await asyncio.sleep(0.005)
        assert condition()

    def payloads(self):
        return [payload for _, payload in self.received]


def test_live_transport_is_fifo_per_channel_over_tcp():
    async def scenario():
        async with _Pair() as pair:
            # Sent from this coroutine, i.e. outside any pump callback, and
            # before the connection exists: the flush still runs.
            pair.send(*range(200))
            await pair.until(lambda: len(pair.received) == 200)
            return pair

    pair = _run(scenario())
    assert pair.payloads() == [("seq", i) for i in range(200)]
    assert all(sender == "a" for sender, _ in pair.received)
    assert pair.sender_rt.network.frames_sent == 200
    assert pair.receiver_rt.network.messages_received == 200


def test_sends_of_one_loop_turn_leave_in_one_write_per_peer():
    class CountingTransport:
        def __init__(self, inner):
            self.inner = inner
            self.writes = []

        def write(self, data):
            self.writes.append(len(data))
            self.inner.write(data)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    async def scenario():
        async with _Pair() as pair:
            pair.send(0)  # dials
            await pair.until(lambda: len(pair.received) == 1)
            network = pair.sender_rt.network
            (link,) = network._peers.values()
            link.transport = counting = CountingTransport(link.transport)
            wire_before = network.wire_bytes_sent
            pair.send(*range(1, 201))  # one turn: nothing awaited in between
            await pair.until(lambda: len(pair.received) == 201)
            assert counting.writes == [network.wire_bytes_sent - wire_before]
            # The next turn's sends are the next write, not appended to a
            # buffer the socket already owns.
            pair.send(201)
            await pair.until(lambda: len(pair.received) == 202)
            assert len(counting.writes) == 2
            return pair

    pair = _run(scenario())
    assert pair.payloads() == [("seq", i) for i in range(202)]


def test_lost_outbound_connection_is_redialled():
    async def scenario():
        async with _Pair() as pair:
            network = pair.sender_rt.network
            pair.send(*range(10))
            await pair.until(lambda: len(pair.received) == 10)
            assert network.connections_lost == 0
            pair.accepted[0].transport.abort()  # the receiver's end goes away
            await pair.until(lambda: network.connections_lost == 1)
            pair.send(*range(10, 20))
            await pair.until(lambda: len(pair.received) == 20)
            assert len(pair.accepted) == 2 and network.connections_lost == 1
            snapshot = dict(pair.sender_rt._transport_samples())
            assert snapshot["mrp_transport_connections_lost_total"] == 1
            return pair

    pair = _run(scenario())
    assert pair.payloads() == [("seq", i) for i in range(20)]


def _feed(chunks, expect):
    """Hand ``chunks`` to one accepted connection of a recording node.

    Returns ``(payloads delivered, the node's transport, connection closed?)``.
    """
    received = []

    class FakeSocketTransport:
        closed = False

        def close(self):
            self.closed = True

    async def scenario():
        loop = asyncio.get_running_loop()
        runtime = LiveNodeRuntime("node-b")
        runtime.sim.attach(loop, loop.time())
        _Recorder(runtime, "b", received)
        pump = loop.create_task(runtime.sim.pump())
        runtime.start()
        connection = runtime.network.accept()
        transport = FakeSocketTransport()
        connection.connection_made(transport)
        for chunk in chunks:
            if transport.closed:
                break  # a closed socket transport reads no more
            connection.data_received(chunk)
        deadline = loop.time() + 10.0
        while len(received) < expect and loop.time() < deadline:
            await asyncio.sleep(0.005)
        await asyncio.sleep(0.02)  # anything beyond ``expect`` would show now
        runtime.sim.stop()
        await pump
        return runtime.network, transport.closed

    network, closed = _run(scenario())
    return [payload for _, payload in received], network, closed


def test_frame_arriving_byte_by_byte_is_delivered_once():
    frame = frame_message("a", "b", ("seq", 0))
    received, network, closed = _feed([frame[i : i + 1] for i in range(len(frame))], expect=1)
    assert received == [("seq", 0)] and not closed
    assert network.messages_received == 1 and network.frames_rejected == 0


def test_thousand_frames_in_one_chunk_are_delivered_in_order():
    chunk = b"".join(frame_message("a", "b", ("seq", i)) for i in range(1000))
    received, network, closed = _feed([chunk], expect=1000)
    assert received == [("seq", i) for i in range(1000)] and not closed
    assert network.messages_received == 1000


def test_garbage_after_a_split_frame_closes_the_connection_after_delivering_it():
    frame = frame_message("a", "b", ("seq", 0))
    late = frame_message("a", "b", ("seq", 1))
    chunks = [frame[:9], frame[9:] + b"\xff\xff\xff\xffnot a frame", late]
    received, network, closed = _feed(chunks, expect=1)
    assert received == [("seq", 0)] and closed
    assert network.frames_rejected == 1 and network.messages_received == 1


def test_frame_for_an_unknown_or_dead_process_is_counted_as_dropped():
    frames = frame_message("a", "nobody", "x") + frame_message("a", "b", "y")
    received, network, closed = _feed([frames], expect=1)
    assert received == ["y"] and not closed
    assert network.messages_received == 2 and network.messages_dropped == 1


def test_live_file_store_appends_and_counts(tmp_path):
    async def scenario():
        loop = asyncio.get_running_loop()
        clock = LiveClock()
        clock.attach(loop, loop.time())
        store = LiveFileStore(clock, str(tmp_path / "acceptor.log"), fsync=True)
        fired = []
        store.write(128, fired.append, ("sync",))
        store.write_async(64, fired.append, ("async",))
        pump = loop.create_task(clock.pump())
        await asyncio.sleep(0.05)
        clock.stop()
        await pump
        store.close()
        return fired

    fired = _run(scenario())
    # The synchronous callback waits for the turn's commit; the asynchronous
    # one is posted at once.
    assert fired == ["async", "sync"]
    assert (tmp_path / "acceptor.log").stat().st_size == 192


def test_live_file_store_commits_one_turn_with_one_fsync(tmp_path, monkeypatch):
    events = []
    real_fsync = os.fsync

    def fsync(fd):
        real_fsync(fd)
        events.append("fsync")

    monkeypatch.setattr("repro.runtime.live.os.fsync", fsync)

    async def scenario():
        loop = asyncio.get_running_loop()
        clock = LiveClock()
        clock.attach(loop, loop.time())
        store = LiveFileStore(clock, str(tmp_path / "acceptor.log"), fsync=True)

        def first_turn():
            for tag in ("a", "b", "c"):
                store.write(64, events.append, (tag,))
            # Registered after the store's commit: it runs after the fsync,
            # but before any callback the commit posted through the clock.
            clock.at_turn_end(lambda: events.append("turn end"))

        clock.post(first_turn)
        pump = loop.create_task(clock.pump())
        await asyncio.sleep(0.05)
        clock.post(store.write, 64, events.append, ("d",))
        await asyncio.sleep(0.05)
        clock.stop()
        await pump
        store.close()

    _run(scenario())
    assert events == ["fsync", "turn end", "a", "b", "c", "fsync", "d"]
    assert (tmp_path / "acceptor.log").stat().st_size == 256


def test_no_vote_leaves_an_acceptor_before_its_fsync_returns(tmp_path, monkeypatch):
    """A SYNC_SSD live ring whose fsync blocks: each Phase2 or Decision an
    acceptor sends after voting leaves once its vote's bytes are synced."""
    from repro.config import MultiRingConfig
    from repro.ringpaxos.messages import Decision, Phase2
    from repro.ringpaxos.role import RingRole
    from repro.runtime.live import LiveTransport

    synced = {}  # inode -> file size covered by the last fsync that returned
    votes = {}  # (acceptor, instance) -> (inode, log size once its vote was appended)
    early = []

    def fsync(fd):
        time.sleep(0.0002)
        status = os.fstat(fd)
        synced[status.st_ino] = status.st_size

    def log_vote(self, msg, done, *done_args):
        inner_log_vote(self, msg, done, *done_args)
        disk = self.storage.disk
        votes[(self.name, msg.instance)] = (os.stat(disk.path).st_ino, disk.bytes_written)

    def send(self, src, dst, payload, size_bytes):
        if payload.__class__ in (Phase2, Decision) and (src, payload.instance) in votes:
            inode, end = votes[(src, payload.instance)]
            if synced.get(inode, 0) < end:
                early.append((src, payload.__class__.__name__, payload.instance))
        inner_send(self, src, dst, payload, size_bytes)

    inner_log_vote, inner_send = RingRole._log_vote, LiveTransport.send
    monkeypatch.setattr("repro.runtime.live.os.fsync", fsync)
    monkeypatch.setattr(RingRole, "_log_vote", log_vote)
    monkeypatch.setattr(LiveTransport, "send", send)

    am = AtomicMulticast(
        backend="live",
        config=MultiRingConfig.datacenter(rate_leveling=False),
        storage_dir=str(tmp_path),
    )
    am.ring("g", ["n0", "n1", "n2"], coordinator="n0", storage=StorageMode.SYNC_SSD)
    with am:
        _closed_loop(am, "g", total=400)
    assert {"n0", "n1"} <= {acceptor for acceptor, _ in votes}
    assert len(synced) >= 3
    assert early == []


# ----------------------------------------------------------------------
# end-to-end: the dLog service (client + 3 acceptors + 3 replicas) over
# real localhost TCP, built by the same DLog the simulator uses
# ----------------------------------------------------------------------
def test_live_dlog_smoke_zero_lost_acked_writes():
    result = _run(run_live_dlog(nodes=3, values=60, window=16, timeout=20.0), timeout=60.0)
    assert result["passed"], result["report"]
    metrics = result["metrics"]
    assert metrics["lost_acked_writes"] == 0
    # The client stops itself at the 60th ack; the up to 15 appends still in
    # flight are executed by the replicas but never acked.
    assert metrics["acked"] == 60
    assert metrics["sequences_identical"] and metrics["state_identical"]
    # Every protocol hop crossed a real socket: client -> front-end, the
    # Phase2 / Decision circulation over six ring members, replica -> client.
    assert metrics["wire_frames"] > 60
    # The default run serves and self-scrapes /metrics + /healthz per node.
    obs = result["observability"]
    assert obs["endpoints_ok"], obs["endpoints"]
    # One node per process: the client, three acceptors and three replicas
    # (it was three collocated nodes while the launcher wired its own ring).
    assert len(obs["endpoints"]) == 7


def test_live_dlog_observability_end_to_end(tmp_path):
    """Tracing + /metrics + /healthz over real TCP, waterfall renderable."""
    trace_log = tmp_path / "trace.jsonl"
    result = _run(
        run_live_dlog(
            nodes=3,
            values=40,
            window=8,
            timeout=20.0,
            tracing=True,
            trace_sample=4,
            serve_http=True,
            trace_log=str(trace_log),
        ),
        timeout=60.0,
    )
    assert result["passed"], result["report"]
    obs = result["observability"]
    # Every node's endpoints answered 200 with real samples.
    assert obs["endpoints_ok"]
    for entry in obs["endpoints"].values():
        assert entry["healthz_status"] == 200 and entry["healthz_ok"]
        assert entry["metrics_status"] == 200
        assert entry["metrics_samples"] > 0
    # The sampled traces cover the full protocol path.
    assert set(obs["stages_seen"]) == {
        "propose", "phase2", "decide", "merge-wait", "apply",
    }
    assert obs["trace_ids"] and obs["span_count"] > 0
    # Per-node snapshots carry the transport counters.
    for snapshot in obs["nodes"].values():
        assert snapshot["metrics"]["mrp_transport_messages_sent_total"] > 0
    # The span log renders with the report CLI.
    from repro.obs.report import main as report_main

    assert report_main([str(trace_log), "--limit", "1"]) == 0


def test_live_dlog_observability_can_be_disabled():
    result = _run(
        run_live_dlog(
            nodes=3,
            values=20,
            window=8,
            timeout=20.0,
            tracing=False,
            serve_http=False,
        ),
        timeout=60.0,
    )
    assert result["passed"], result["report"]
    obs = result["observability"]
    assert obs["endpoints"] == {} and obs["span_count"] == 0


def test_live_dlog_smoke_with_file_storage(tmp_path):
    result = _run(
        run_live_dlog(
            nodes=3,
            values=30,
            window=8,
            storage="sync-ssd",
            storage_dir=str(tmp_path),
            timeout=20.0,
        ),
        timeout=60.0,
    )
    assert result["passed"], result["report"]
    # One real log per acceptor, and -- now that the replicas are the
    # service's own -- the spill disk DLog gives each of them.
    assert len(list(tmp_path.glob("log-0-acc*-store-*.log"))) == 3
    assert len(list(tmp_path.glob("dlog-rep*-store-*.log"))) == 3
    assert all(path.stat().st_size > 0 for path in tmp_path.glob("*-store-*.log"))


def test_live_nodes_share_nothing_but_tcp():
    async def scenario():
        cluster = LiveDeployment()
        deployment = Deployment(cluster)
        deployment.add_ring(RingSpec(group="g", members=["n0", "n1", "n2"], coordinator="n0"))
        runtimes = [cluster.node(f"n{i}").runtime for i in range(3)]
        # Each node runs on its own runtime and clock ...
        assert len({id(runtime) for runtime in runtimes}) == 3
        assert len({id(runtime.sim) for runtime in runtimes}) == 3
        assert [deployment.node(f"n{i}").world for i in range(3)] == runtimes
        delivered = asyncio.get_running_loop().create_future()
        async with cluster:
            # ... where the other members are peer stubs, not objects ...
            assert isinstance(runtimes[0].get_process("n1"), RemotePeer)
            deployment.node("n2").on_deliver(delivered.set_result, group="g")
            runtimes[1].sim.post(deployment.multicast, "g", "append", 64, "n1")
            assert (await asyncio.wait_for(delivered, 10.0)).value.payload == "append"
            # ... so everything between them crossed a socket.
            assert all(runtime.network.frames_sent > 0 for runtime in runtimes)

    _run(scenario())


def test_coordinator_packs_what_reached_it_in_one_turn():
    """32 appends outstanding on a default live ring: instances carry several each."""
    from repro.config import MultiRingConfig

    nodes = ("n0", "n1", "n2")
    am = AtomicMulticast(backend="live", config=MultiRingConfig.datacenter(rate_leveling=False))
    am.ring("g", list(nodes), coordinator="n0")
    sequences = {name: [] for name in nodes}
    total, depth = 1500, 32
    tags = itertools.count()
    acked = []
    done = threading.Event()

    def submit():
        tag = next(tags)
        if tag < total:
            future = am.submit("g", ("append", tag), size_bytes=1024)
            future.add_done_callback(lambda _, tag=tag: on_ack(tag))

    def on_ack(tag):  # on the loop thread: the next append replaces the acked one
        acked.append(tag)
        if len(acked) == total:
            done.set()
        submit()

    with am:
        for name in nodes:
            am.node(name).on_deliver(
                lambda delivery, seq=sequences[name]: seq.append(delivery.value.payload[1]),
                group="g",
            )
        for _ in range(depth):
            submit()
        assert done.wait(30.0), f"only {len(acked)} of {total} appends acked"
        am.run_for(0.2)  # the last decisions reach every learner
        batcher = am.coordinator_of("g").role("g").batcher
        frames = sum(live.runtime.network.frames_sent for live in am._cluster.nodes.values())
    assert batcher.batches_flushed < batcher.values_offered == total
    assert frames / total < 2
    assert sequences["n0"] == sequences["n1"] == sequences["n2"]
    assert set(acked) <= set(sequences["n0"]) and len(set(acked)) == total


@pytest.fixture
def body_decodes(monkeypatch):
    """Every batch-body decode, as ``(node, message being handled, learner?, body)``.

    The message is named by the ring-role step that handles it (the steps
    the CPU model and the acceptor log may run as events of their own);
    ``(None, None, None)`` marks a decode outside all of them.
    """
    from repro.ringpaxos.role import RingRole
    from repro.runtime import codec

    handling = [(None, None, None)]
    decodes = []
    inner_decode = codec.decode_batch_body
    monkeypatch.setattr(
        codec,
        "decode_batch_body",
        lambda count, body: decodes.append((*handling[-1], body)) or inner_decode(count, body),
    )

    def step_of(inner, message):
        def step(self, *args):
            handling.append((self.name, message, self.is_learner))
            try:
                return inner(self, *args)
            finally:
                handling.pop()

        return step

    for name, message in (
        ("_intake", "Proposal"),
        ("_after_vote", "Phase2"),
        ("_apply_decision", "Decision"),
        ("on_repair_reply", "RetransmitReply"),
    ):
        monkeypatch.setattr(RingRole, name, step_of(getattr(RingRole, name), message))
    return decodes


def _closed_loop(am, group, total=1500, depth=32):
    """Inside ``with am``: keep ``depth`` appends outstanding until ``total`` are acked."""
    futures = []
    done = threading.Event()

    def submit(_=None):  # on the loop thread after the first: an ack sends the next append
        if len(futures) < total:
            futures.append(am.submit(group, ("append", len(futures)), size_bytes=1024))
            futures[-1].add_done_callback(submit)
        elif all(future.done() for future in futures):
            done.set()

    for _ in range(depth):
        submit()
    assert done.wait(30.0), f"only {sum(f.done() for f in futures)} of {total} appends acked"
    am.run_for(0.2)  # the last decisions reach every learner
    return futures


def test_a_batch_is_decoded_once_per_node_that_delivers_it(body_decodes):
    """32 appends outstanding on a default live ring: bodies are decoded only where delivered."""
    from repro.config import MultiRingConfig
    from repro.types import is_batch

    am = AtomicMulticast(backend="live", config=MultiRingConfig.datacenter(rate_leveling=False))
    am.ring("g", ["n0", "n1", "n2"], coordinator="n0")
    with am:
        futures = _closed_loop(am, "g")
        role = am.coordinator_of("g").role("g")
        proposers = [am.node(name).role("g").batcher for name in ("n1", "n2")]
        # The coordinator is the witness, and learned each batch from its own
        # record: the ack of a batched append is an object its log holds.
        records = [role.storage.accepted_value(f.result().instance) for f in futures]
        assert sum(is_batch(record) for record in records) > len(futures) / 10
        for future, record in zip(futures, records):
            if is_batch(record):
                assert any(value is future.result().value for value in record.payload.values)
    assert all(batcher.batches_flushed < batcher.values_offered for batcher in proposers)
    assert body_decodes, "no batch crossed the wire"
    assert all(node is not None for node, *_ in body_decodes), "decoded outside a handler"
    # At most one decode per node per batch ...
    per_node = [(node, body) for node, _, _, body in body_decodes]
    assert len(per_node) == len(set(per_node))
    # ... none of a decision at the coordinator that started it, and none
    # at a proposer that only forwards a proposal; the coordinator decodes
    # the proposers' batches it splices in, since it delivers them.
    assert {(node, message) for node, message, _, _ in body_decodes} <= {
        ("n0", "Proposal"), ("n1", "Phase2"), ("n1", "Decision"), ("n2", "Phase2"), ("n2", "Decision"),
    }


def test_after_warm_up_a_live_ring_decodes_by_learned_layouts(monkeypatch):
    """32 appends outstanding: >= 99 % of frame and body-value decodes take a layout."""
    from repro.config import MultiRingConfig
    from repro.runtime import codec

    # Empty tables: the shapes earlier tests taught this process count
    # against each class's cap, and this ring must learn its own.
    monkeypatch.setattr(codec, "_FRAMES", codec._LayoutTable())
    monkeypatch.setattr(codec, "_VALUES", codec._LayoutTable())
    am = AtomicMulticast(backend="live", config=MultiRingConfig.datacenter(rate_leveling=False))
    am.ring("g", ["n0", "n1", "n2"], coordinator="n0")

    def counts():  # what every node's /metrics reports, read as a scrape would
        snapshot = am._cluster.node("n1").runtime.obs.metrics.snapshot()["metrics"]
        return snapshot["mrp_codec_compiled_decodes_total"], snapshot["mrp_codec_generic_decodes_total"]

    with am:
        _closed_loop(am, "g", total=300)  # warm-up: every shape of the run is learned
        compiled, walked = counts()
        assert walked > 0  # the first of each shape took the walk
        _closed_loop(am, "g", total=1500)
        compiled, walked = (after - before for after, before in zip(counts(), (compiled, walked)))
    assert compiled > 1500
    assert compiled >= 0.99 * (compiled + walked), (compiled, walked)


def test_a_service_rings_pure_acceptors_never_decode(body_decodes):
    """Acceptors that propose but do not learn, as the services build rings: bytes only."""
    from repro.config import MultiRingConfig

    am = AtomicMulticast(backend="live", config=MultiRingConfig.datacenter(rate_leveling=False))
    am.ring("g", acceptors=["a0", "a1", "a2"], learners=["l0", "l1"])
    with am:
        _closed_loop(am, "g")
        batchers = {name: am.node(name).role("g").batcher for name in ("a0", "a1", "a2")}
    # The proposers packed, and the coordinator spliced what they sent ...
    assert all(b.batches_flushed < b.values_offered for b in batchers.values())
    assert body_decodes, "no batch crossed the wire"
    # ... but only the learners decoded a body.
    assert {node for node, _, _, _ in body_decodes} == {"l0", "l1"}


def test_malformed_frame_closes_that_connection_only():
    am = AtomicMulticast(backend="live")
    am.ring("g", acceptors=["n0", "n1", "n2"], learners=["n0", "n1", "n2"])
    with am:
        target = am._cluster.node("n0")
        with socket.create_connection(target.address, timeout=5.0) as raw:
            raw.sendall(b"\xff\xff\xff\xffnot a frame")  # length prefix past the cap
            assert raw.recv(1) == b""  # the node hung up on us
        assert target.runtime.network.frames_rejected == 1
        assert am.submit("g", "still serving", size_bytes=64).result(timeout=10.0)


# ----------------------------------------------------------------------
# the paper's services, unmodified, on a LiveDeployment
# ----------------------------------------------------------------------
async def _until(condition, timeout=15.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.01)


def _assert_placed_on(cluster, replicas):
    """Before the cluster starts: one construction path, one monitor."""
    for replica in replicas:
        assert replica.world is cluster.runtime_of(replica.name)
    assert all(live.runtime.monitor is cluster.monitor for live in cluster.nodes.values())


class _Tally:
    """A workload wrapper counting what a client is handed to issue."""

    def __init__(self, workload, store):
        self.workload, self.store = workload, store
        self.by_group, self.updates = {}, {}

    def next_request(self, rng):
        request = self.workload.next_request(rng)
        self.by_group[request.group] = self.by_group.get(request.group, 0) + 1
        if request.operation[0] == "update":
            partition = self.store.current_map.partition_of(request.operation[1])
            self.updates[partition] = self.updates.get(partition, 0) + 1
        return request


def test_live_dlog_multi_ring_with_multi_appends(tmp_path):
    async def scenario():
        cluster = LiveDeployment(storage_dir=str(tmp_path))
        dlog = DLog(
            cluster,
            logs=("log-0", "log-1"),
            replicas=2,
            acceptors_per_log=3,
            storage_mode=StorageMode.MEMORY,
            use_global_ring=True,
        )
        workload = AppendWorkload(dlog, dlog.logs, append_size=256, multi_append_fraction=0.1)
        client = ClosedLoopClient(
            cluster.runtime_of("client"), "client", workload, dlog.frontends_for_client(0),
            threads=8,
        )
        replicas = dlog.replica_nodes
        _assert_placed_on(cluster, replicas)
        async with cluster:
            await _until(lambda: client.completed >= 500)
            client.world.sim.post(client.crash)
            await _until(lambda: not client.alive)
            await _until(lambda: all(r.commands_executed >= client.issued for r in replicas))
        # Cross-ring order, observed: both replicas merged three rings into
        # the same state, and the multi-appends moved both tails at once.
        states = [replica.state_machine.snapshot()[0] for replica in replicas]
        assert states[0] == states[1]
        assert all(r.commands_executed >= client.completed >= 500 for r in replicas)
        machine = replicas[0].state_machine
        singles = workload._next  # single-log appends alternate between the logs
        multis = client.issued - singles
        assert multis > 0
        assert machine.next_position("log-0") == (singles + 1) // 2 + multis
        assert machine.next_position("log-1") == singles // 2 + multis
        assert cluster.monitor.latencies("append-log-1")

    _run(scenario(), timeout=60.0)


@pytest.mark.parametrize("mix", ["A", "E"])
def test_live_mrpstore_three_partitions_under_ycsb(mix):
    async def scenario():
        cluster = LiveDeployment()
        store = MRPStore(
            cluster,
            partitions=3,
            replicas_per_partition=3,
            acceptors_per_partition=3,
            use_global_ring=True,
            storage_mode=StorageMode.MEMORY,
            key_space=500,
        )
        store.load(500, value_size=128)
        ycsb = YCSBWorkload(store, YCSB_WORKLOADS[mix].scaled(500))
        tally = _Tally(ycsb, store)
        client = ClosedLoopClient(
            cluster.runtime_of("client"), "client", tally, store.frontends_for_client(0),
            threads=8,
        )
        _assert_placed_on(cluster, store.all_replicas())
        assert len(cluster.nodes) == 19  # 3 x (3 acceptors + 3 replicas) + the client

        def drained():
            # A replica executes what was sent to its partition's ring and,
            # scans being multi-partition, everything sent to the global one.
            shared = tally.by_group.get(store.GLOBAL_GROUP, 0)
            return all(
                replica.commands_executed >= tally.by_group.get(partition.group, 0) + shared
                for partition in store.partitions.values()
                for replica in partition.replicas
            )

        async with cluster:
            await _until(lambda: client.completed >= 200)
            client.world.sim.post(client.crash)
            await _until(lambda: not client.alive)
            await _until(drained)
        assert check_replica_convergence(store).passed
        # Every update handed to the client -- a superset of the acked ones.
        assert check_no_acked_write_lost(store, tally.updates).passed
        assert all(cluster.monitor.counter(f"executed/{name}") > 0 for name in store.partitions)
        assert len(cluster.monitor.latencies(ycsb.series)) == client.completed
        if mix == "E":
            # A scan is answered once per partition, through the global ring.
            assert tally.by_group[store.GLOBAL_GROUP] > 0

    _run(scenario(), timeout=60.0)


# ----------------------------------------------------------------------
# one load path: am.workload() against the paper's services, either backend
# ----------------------------------------------------------------------
def _two_partition_store(am):
    store = am.mrpstore(
        partitions=2,
        replicas_per_partition=2,
        acceptors_per_partition=3,
        use_global_ring=False,
        storage_mode=StorageMode.MEMORY,
        key_space=100,
    )
    store.load(100, value_size=64)
    return store


def _drained(am, manager):
    """Everything the stream held was served, timed from its intended instant."""
    with am:
        completed = manager.drain()
        assert manager.recent_entries()
        am.run_for(0.3)  # the replicas that did not answer first catch up
    assert completed == manager.issued == len(manager.trace.events) > 0
    assert all(latency >= 0.0 for latency in manager.latencies())
    assert sorted(e.issued_at for e in manager.entries) == [e.time for e in manager.trace.events]
    assert len(am.monitor.latencies("openloop")) == completed


@pytest.mark.parametrize("backend", ["sim", "live"])
def test_workload_drives_an_mrpstore_on_either_backend(backend):
    am = AtomicMulticast(backend=backend, seed=3)
    store = _two_partition_store(am)
    manager = am.workload(
        store, PhaseSchedule.constant(150.0, duration=1.0), key_space=100, record=True
    )
    _drained(am, manager)
    assert check_replica_convergence(store).passed
    assert all(am.monitor.counter(f"executed/{name}") > 0 for name in store.partitions)


@pytest.mark.parametrize("backend", ["sim", "live"])
def test_workload_drives_a_dlog_on_either_backend(backend, tmp_path):
    am = AtomicMulticast(backend=backend, seed=3, storage_dir=str(tmp_path))  # replicas spill to disk
    dlog = am.dlog(
        logs=("log-0", "log-1"),
        replicas=2,
        acceptors_per_log=3,
        storage_mode=StorageMode.MEMORY,
        use_global_ring=False,
    )
    manager = am.workload(dlog, PhaseSchedule.constant(150.0, duration=1.0), record=True)
    _drained(am, manager)
    first, second = (replica.state_machine for replica in dlog.replica_nodes)
    assert first.snapshot()[0] == second.snapshot()[0]
    assert first.next_position("log-0") + first.next_position("log-1") == manager.issued


def test_storm_recorded_on_the_simulator_replays_on_a_live_store():
    schedule = PhaseSchedule.flash_crowd(
        60.0, 400.0, at=0.4, spike_duration=0.3, duration=1.0, spike_hotspot=0.5
    )
    am = AtomicMulticast(backend="sim", seed=9)
    recorder = am.workload(_two_partition_store(am), schedule, key_space=100, record=True)
    with am:
        assert recorder.drain() == recorder.issued > 100
    trace = recorder.trace

    am = AtomicMulticast(backend="live", seed=1)
    store = _two_partition_store(am)
    replayer = am.workload(store, replay=trace.events, record=True)
    with am:
        assert replayer.drain() == len(trace.events)
        am.run_for(0.3)
    assert replayer.trace.events == trace.events  # event for event, float.hex instants included
    assert check_replica_convergence(store).passed


def test_live_workload_is_declared_before_entering_the_context():
    am = AtomicMulticast(backend="live")
    am.ring("g", acceptors=["n0", "n1", "n2"], learners=["n0", "n1", "n2"])
    with am:
        with pytest.raises(ConfigurationError, match="before entering the context"):
            am.workload("g", PhaseSchedule.constant(10.0, duration=1.0))


# ----------------------------------------------------------------------
# layering: protocol packages are written against repro.runtime only
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "package", ["paxos", "ringpaxos", "multiring", "smr", "services", "recovery"]
)
def test_protocol_package_never_imports_the_simulator(package):
    import repro

    sim_import = re.compile(
        r"^\s*(from|import)\s+repro\.sim\b|^\s*from\s+repro\s+import\s+sim\b", re.M
    )
    offenders = [
        str(path)
        for path in (Path(repro.__file__).parent / package).rglob("*.py")
        if sim_import.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


@pytest.mark.slow
def test_live_dlog_larger_run():
    result = _run(run_live_dlog(nodes=5, values=500, window=32, timeout=60.0), timeout=120.0)
    assert result["passed"], result["report"]
    assert result["metrics"]["throughput_ops"] > 50
