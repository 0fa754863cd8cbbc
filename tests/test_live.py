"""Tests for the live asyncio/TCP runtime backend."""

from __future__ import annotations

import asyncio
import re
import socket
from pathlib import Path

import pytest

from repro import AtomicMulticast
from repro.multiring.deployment import Deployment, RingSpec
from repro.runtime.actor import Process
from repro.runtime.interfaces import StorageMode
from repro.runtime.live import (
    LiveClock,
    LiveDeployment,
    LiveFileStore,
    LiveNodeRuntime,
    RemotePeer,
)
from repro.runtime.simbackend import as_runtime
from repro.live import run_live_dlog


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
def test_live_runtime_satisfies_runtime_protocol():
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
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="storage directory"):
        runtime.new_store(StorageMode.SYNC_SSD)


def test_live_transport_is_fifo_per_channel_over_tcp():
    received = []

    class Recorder(Process):
        def on_message(self, sender, payload):
            received.append((sender, payload))

    async def scenario():
        loop = asyncio.get_running_loop()
        epoch = loop.time()
        sender_rt = LiveNodeRuntime("node-a")
        receiver_rt = LiveNodeRuntime("node-b")
        for runtime in (sender_rt, receiver_rt):
            runtime.sim.attach(loop, epoch)
        server = await asyncio.start_server(
            receiver_rt.network.handle_connection, "127.0.0.1", 0
        )
        address = server.sockets[0].getsockname()[:2]

        sender = Process(sender_rt, "a")
        Recorder(receiver_rt, "b")
        sender_rt.add_peer("b", address)
        pumps = [
            loop.create_task(sender_rt.sim.pump()),
            loop.create_task(receiver_rt.sim.pump()),
        ]
        sender_rt.start()
        receiver_rt.start()
        for index in range(200):
            sender.send("b", ("seq", index), size_bytes=64)
        deadline = loop.time() + 10
        while len(received) < 200 and loop.time() < deadline:
            await asyncio.sleep(0.01)
        await sender_rt.network.close()
        await receiver_rt.network.close()
        for runtime in (sender_rt, receiver_rt):
            runtime.sim.stop()
        await asyncio.gather(*pumps)
        server.close()
        await server.wait_closed()

    _run(scenario())
    assert [payload for _, payload in received] == [("seq", i) for i in range(200)]
    assert all(sender == "a" for sender, _ in received)


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
    assert fired == ["sync", "async"]
    assert (tmp_path / "acceptor.log").stat().st_size == 192


# ----------------------------------------------------------------------
# end-to-end: the 3-node dLog ring over real localhost TCP
# ----------------------------------------------------------------------
def test_live_dlog_smoke_zero_lost_acked_writes():
    result = _run(run_live_dlog(nodes=3, values=60, window=16, timeout=20.0), timeout=60.0)
    assert result["passed"], result["report"]
    metrics = result["metrics"]
    assert metrics["lost_acked_writes"] == 0
    assert metrics["acked"] == 60
    assert metrics["sequences_identical"] and metrics["state_identical"]
    # Every protocol hop crossed a real socket: with 3 nodes each Phase2 /
    # Decision circulation produces wire frames on every inter-node edge.
    assert metrics["wire_frames"] > 60
    # The default run serves and self-scrapes /metrics + /healthz per node.
    obs = result["observability"]
    assert obs["endpoints_ok"], obs["endpoints"]
    assert len(obs["endpoints"]) == 3


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
    logs = list(tmp_path.glob("*-store-*.log"))
    assert len(logs) == 3  # one real acceptor log per node
    assert all(path.stat().st_size > 0 for path in logs)


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
