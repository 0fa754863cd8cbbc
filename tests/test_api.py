"""Tests for the backend- and engine-agnostic :mod:`repro.api` facade."""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time

import pytest

from repro import AtomicMulticast, engines
from repro.engines.multiring import MultiRingEngine
from repro.config import MultiRingConfig
from repro.errors import ConfigurationError, MulticastError
from repro.runtime.interfaces import StorageMode
from repro.sim.failure import FailureSchedule
from repro.workloads.simple import AppendWorkload


def _three_node_ring(am: AtomicMulticast, group: str = "ring-1") -> None:
    am.ring(
        group,
        acceptors=["a1", "a2", "a3"],
        learners=["L1", "L2"],
        storage=StorageMode.MEMORY,
    )


# ----------------------------------------------------------------------
# sim backend
# ----------------------------------------------------------------------
def test_sim_submit_future_resolves_on_delivery():
    with AtomicMulticast(seed=1) as am:
        _three_node_ring(am)
        futures = [am.submit("ring-1", f"m{i}", size_bytes=512) for i in range(5)]
        assert all(not f.done() for f in futures)
        am.run_for(1.0)
        deliveries = [f.result(timeout=0) for f in futures]
        assert [d.value.payload for d in deliveries] == [f"m{i}" for i in range(5)]
        assert all(d.group == "ring-1" for d in deliveries)


def test_sim_delivery_stream_sync_iteration():
    with AtomicMulticast(seed=2) as am:
        _three_node_ring(am)
        for i in range(4):
            am.submit("ring-1", i, size_bytes=128)
        am.run_for(1.0)
        stream = am.deliveries("ring-1")
        # Submissions round-robin across proposers, so the *consensus* order
        # (arrival at the coordinator) need not match submission order; the
        # stream reports exactly the witness learner's delivery sequence.
        delivered = [d.value.payload for d in stream]
        assert sorted(delivered) == [0, 1, 2, 3]
        # Iterating again replays from the start (the stream is a recording).
        assert [d.value.payload for d in stream] == delivered


def test_sim_delivery_stream_async_iteration_drives_the_simulation():
    async def consume() -> list:
        am = AtomicMulticast(seed=3)
        with am:
            _three_node_ring(am)
            for i in range(3):
                am.submit("ring-1", f"x{i}", size_bytes=64)
            seen = []
            async for delivery in am.deliveries("ring-1"):
                seen.append(delivery.value.payload)
                if len(seen) == 3:
                    break
            return seen

    assert sorted(asyncio.run(consume())) == ["x0", "x1", "x2"]


def test_sim_two_rings_and_node_access():
    with AtomicMulticast(seed=4) as am:
        am.ring("ring-1", acceptors=["a1", "a2", "a3"], learners=["L1", "L2"])
        am.ring("ring-2", acceptors=["b1", "b2", "b3"], learners=["L1", "L2", "L3"])
        collected = []
        am.node("L3").on_deliver(lambda d: collected.append(d.value.payload), group="ring-2")
        am.submit("ring-1", "one", size_bytes=64)
        am.submit("ring-2", "two", size_bytes=64)
        am.run_for(1.0)
        assert collected == ["two"]
        # L1 subscribes to both rings and delivered both messages.
        assert am.node("L1").deliveries_count == 2


def test_sim_services_and_monitor_accessors():
    with AtomicMulticast(seed=5) as am:
        dlog = am.dlog(logs=("log-a",), replicas=1, acceptors_per_log=3,
                       storage_mode=StorageMode.MEMORY, use_global_ring=False)
        assert dlog.world is am.world
        assert am.monitor is am.world.monitor


# ----------------------------------------------------------------------
# engine selection
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["multiring", "whitebox"])
def test_submit_works_identically_on_both_engines(engine):
    with AtomicMulticast(engine=engine, seed=6) as am:
        assert am.engine_name == engine
        _three_node_ring(am)
        futures = [am.submit("ring-1", f"m{i}", size_bytes=128) for i in range(4)]
        am.run_for(1.0)
        payloads = [f.result(timeout=0).value.payload for f in futures]
        assert sorted(payloads) == [f"m{i}" for i in range(4)]


def test_whitebox_multicast_reaches_every_group_genuinely():
    with AtomicMulticast(engine="whitebox", seed=8) as am:
        am.ring("r1", acceptors=["a1", "a2", "a3"], learners=["a1", "a2", "a3"])
        am.ring("r2", acceptors=["b1", "b2", "b3"], learners=["b1", "b2", "b3"])
        future = am.multicast(("r1", "r2"), "both", size_bytes=64)
        am.run_for(1.0)
        assert future.result(timeout=0).value.payload == "both"
        seen = [
            [d.value.payload for d in am.deliveries(group)] for group in ("r1", "r2")
        ]
        assert seen == [["both"], ["both"]]
        stats = am.engine_stats()
        assert stats["genuine"] is True
        assert stats["non_destination_deliveries"] == 0


def test_unknown_engine_error_names_the_registered_ones():
    with pytest.raises(ConfigurationError, match="multiring"):
        AtomicMulticast(engine="flexcast")


def test_live_backend_refuses_sim_only_engines():
    with pytest.raises(ConfigurationError, match="does not support the live backend"):
        AtomicMulticast(backend="live", engine="whitebox")


def test_rejects_unknown_backend_and_missing_ring():
    with pytest.raises(ConfigurationError, match="unknown backend"):
        AtomicMulticast(backend="quantum")
    am = AtomicMulticast(backend="live")
    with pytest.raises(ConfigurationError, match="at least one ring"):
        am.__enter__()


# ----------------------------------------------------------------------
# live backend (real localhost TCP under the same API)
# ----------------------------------------------------------------------
def test_live_submit_and_stream_match_sim_semantics():
    am = AtomicMulticast(backend="live", seed=7)
    am.ring("ring-1", acceptors=["a1", "a2", "a3"], learners=["a1", "a2", "a3"])
    with am:
        futures = [am.submit("ring-1", f"m{i}", size_bytes=256) for i in range(20)]
        done, not_done = concurrent.futures.wait(futures, timeout=20.0)
        assert not not_done, f"{len(not_done)} submissions never acked"
        payloads = [f.result().value.payload for f in futures]
        assert sorted(payloads) == sorted(f"m{i}" for i in range(20))
        stream = am.deliveries("ring-1")
        seen = [d.value.payload for d in stream]
        # The stream is the witness's delivery order; every acked payload is in it.
        assert set(payloads) <= set(seen)
    # After exit the stream is closed and iteration terminates immediately.
    assert len(list(am.deliveries("ring-1"))) >= 20


def _wait_for(condition, timeout=15.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def test_live_dlog_client_and_monitor_serve_appends_end_to_end(tmp_path):
    am = AtomicMulticast(
        backend="live",
        storage_dir=str(tmp_path),  # the replicas' spill disks
        config=MultiRingConfig.datacenter(rate_leveling=False),
    )
    dlog = am.dlog(logs=("log-a",), replicas=2, acceptors_per_log=3,
                   storage_mode=StorageMode.MEMORY, use_global_ring=False)
    client = am.client(
        "c0", AppendWorkload(dlog, ("log-a",), append_size=256), dlog.frontends_for_client(0),
        threads=4,
    )
    # One construction path: the facade handed the service its cluster.
    assert dlog.world is am._cluster and am.monitor is am._cluster.monitor
    assert client.world is am._cluster.runtime_of("c0")
    with am:
        _wait_for(lambda: client.completed >= 100)
        # Stopped on the loop thread through its node's clock, like submit().
        am._loop.call_soon_threadsafe(client.world.sim.post, client.crash)
        _wait_for(lambda: not client.alive)
        _wait_for(lambda: all(r.commands_executed >= client.issued for r in dlog.replica_nodes))
    tails = {r.state_machine.next_position("log-a") for r in dlog.replica_nodes}
    assert tails == {client.issued}
    # The client's latencies and the replicas' counters share one monitor.
    assert len(am.monitor.latencies("append-log-a")) == client.completed >= 100
    assert am.monitor.counter("executed/dlog") == 2 * client.issued


def test_live_rejects_sim_only_features_and_late_rings():
    am = AtomicMulticast(backend="live")
    am.ring("g", acceptors=["n0", "n1", "n2"], learners=["n0", "n1", "n2"])
    # Live crash/restart is an open item: the chaos hook is the one guard left.
    with pytest.raises(ConfigurationError, match="sim backend"):
        am.inject_failures(FailureSchedule())
    with am:
        # The node set fixed the TCP topology: nothing joins a started cluster.
        with pytest.raises(ConfigurationError, match="before entering"):
            am.ring("late", acceptors=["n0"], learners=["n0"])
        with pytest.raises(ConfigurationError, match="before entering"):
            am.dlog(storage_mode=StorageMode.MEMORY)
        with pytest.raises(ConfigurationError, match="before entering"):
            am.mrpstore(partitions=1, storage_mode=StorageMode.MEMORY)
        with pytest.raises(ConfigurationError, match="before entering"):
            am.client("late-client", workload=None, frontends={})


def test_live_multicast_resolves_at_the_route_rings_witness():
    am = AtomicMulticast(backend="live")
    acceptors = ["a0", "a1", "a2"]
    am.ring("r1", acceptors=acceptors, learners=["L1", "L3"])
    am.ring("r2", acceptors=acceptors, learners=["L2", "L3"])
    am.ring("both", acceptors=acceptors, learners=["L3", "L1", "L2"], multi_group_route=True)
    with am:
        future = am.multicast(("r1", "r2"), "to-both", size_bytes=64)
        delivery = future.result(timeout=10.0)
        # The multiring engine orders a multi-group message on its route
        # ring; the ack is the delivery at that ring's witness.
        assert (delivery.group, delivery.value.payload) == ("both", "to-both")
        assert [d.value.payload for d in am.deliveries("both")] == ["to-both"]
        assert am.node("L3").deliveries_count == 1
        # A one-group multicast is submit().
        assert am.multicast(("r1",), "one", size_bytes=64).result(timeout=10.0).group == "r1"
    with pytest.raises(MulticastError, match="at least one destination"):
        am.multicast((), "nowhere")


def test_live_topology_arguments_are_rejected():
    from repro.sim.topology import lan_topology

    with pytest.raises(ConfigurationError, match="real one"):
        AtomicMulticast(backend="live", topology=lan_topology())


def _live_threads() -> list:
    return [t for t in threading.enumerate() if t.name == "repro-live" and t.is_alive()]


def test_failed_live_startup_never_leaks_the_loop_thread():
    # 240.0.0.0 is not a local address, so binding the node servers fails
    # immediately; __enter__ must re-raise *after* tearing the thread down.
    am = AtomicMulticast(backend="live", host="240.0.0.0")
    am.ring("g", acceptors=["n0"], learners=["n0"])
    with pytest.raises(OSError):
        am.__enter__()
    assert am._thread is None
    assert not _live_threads()


def test_wedged_live_startup_times_out_and_reaps_the_thread(monkeypatch):
    from repro.runtime import live as live_mod

    async def wedged_aenter(self):
        await asyncio.sleep(3600)

    monkeypatch.setattr(live_mod.LiveDeployment, "__aenter__", wedged_aenter)
    monkeypatch.setattr(AtomicMulticast, "_STARTUP_TIMEOUT", 0.3)
    am = AtomicMulticast(backend="live")
    am.ring("g", acceptors=["n0"], learners=["n0"])
    with pytest.raises(ConfigurationError, match="failed to start"):
        am.__enter__()
    # The wedged deployment was cancelled, not abandoned: no thread survives.
    assert am._thread is None
    assert not _live_threads()


# ----------------------------------------------------------------------
# both backends reach the protocol only through the engine seam
# ----------------------------------------------------------------------
class RecordingEngine(MultiRingEngine):
    """Multi-Ring Paxos with every seam call noted by name."""

    name = "recording"
    RECORDED = ("add_group", "descriptor", "node", "on_deliver", "multicast", "next_proposer")

    def __init__(self) -> None:
        super().__init__()
        self.calls = set()

    def __getattribute__(self, name):
        if name in RecordingEngine.RECORDED:
            object.__getattribute__(self, "calls").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("backend", ["sim", "live"])
def test_both_backends_build_and_run_through_the_engine_seam(backend):
    engines.register(RecordingEngine.name, RecordingEngine)
    try:
        am = AtomicMulticast(backend=backend, engine=RecordingEngine.name, seed=5)
        am.ring("g", acceptors=["n0", "n1", "n2"], learners=["n0", "n1", "n2"])
        assert "add_group" in am.engine.calls
        with am:
            future = am.submit("g", "through-the-seam", size_bytes=128)
            if backend == "sim":
                am.run_for(1.0)
            assert future.result(timeout=10.0).value.payload == "through-the-seam"
            assert [d.value.payload for d in am.deliveries("g")] == ["through-the-seam"]
            assert am.coordinator_of("g") is am.node("n0")
        assert {"add_group", "descriptor", "node", "on_deliver"} <= am.engine.calls
        # The hand-off differs (time is the backend's), the seam does not.
        assert ("multicast" if backend == "sim" else "next_proposer") in am.engine.calls
    finally:
        engines.unregister(RecordingEngine.name)


# ----------------------------------------------------------------------
# ack futures: one condition per facade, stock Future semantics
# ----------------------------------------------------------------------
def test_live_ack_futures_are_stock_futures_sharing_one_condition():
    am = AtomicMulticast(backend="live")
    am.ring("g", acceptors=["n0", "n1", "n2"], learners=["n0", "n1", "n2"])
    with am:
        futures = [am.submit("g", f"m{i}", size_bytes=64) for i in range(300)]
        assert all(isinstance(f, concurrent.futures.Future) for f in futures)
        assert len({id(f._condition) for f in futures}) == 1
        done, not_done = concurrent.futures.wait(futures, timeout=20.0)
        assert not not_done and len(done) == 300
        more = [am.submit("g", f"n{i}", size_bytes=64) for i in range(300)]
        completed = list(concurrent.futures.as_completed(more, timeout=20.0))
        assert set(completed) == set(more)
        assert {f.result().value.payload for f in more} == {f"n{i}" for i in range(300)}
        # A callback added after completion runs at once, on the caller's thread.
        ran = []
        futures[0].add_done_callback(lambda f: ran.append(threading.current_thread()))
        assert ran == [threading.current_thread()]


def test_result_timeout_is_not_cut_short_by_other_futures_resolving():
    import sys

    from repro.api import _AckFuture

    condition = threading.Condition()
    never = _AckFuture(condition)
    futures = [_AckFuture(condition) for _ in range(2000)]
    got = {}

    def resolve(part):  # stands in for the loop thread
        for index in range(part, len(futures), 2):
            futures[index].set_result(index)
            time.sleep(0.0001)

    def wait_for(part):  # callers blocked in result(timeout) meanwhile
        for index in range(part, len(futures), 50):
            got[index] = futures[index].result(timeout=20.0)

    threads = [threading.Thread(target=resolve, args=(p,)) for p in range(2)]
    threads += [threading.Thread(target=wait_for, args=(p,)) for p in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        started = time.monotonic()
        for thread in threads:
            thread.start()
        # Thousands of notify_all for other futures cut no wait short ...
        with pytest.raises(concurrent.futures.TimeoutError):
            never.result(timeout=0.2)
        assert time.monotonic() - started >= 0.2
        started = time.monotonic()
        with pytest.raises(concurrent.futures.TimeoutError):
            never.exception(timeout=0.05)
        assert time.monotonic() - started >= 0.05
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    # ... and every waiter got its own future's result.
    assert got == {index: index for part in range(4) for index in range(part, 2000, 50)}
    never.set_exception(MulticastError("never delivered"))
    assert isinstance(never.exception(timeout=0), MulticastError)


def test_live_exit_fails_futures_that_can_no_longer_be_delivered(monkeypatch):
    from repro.ringpaxos.node import RingHost

    # Proposers that swallow the value: no instance is ever started for it.
    monkeypatch.setattr(RingHost, "propose_value", lambda self, group, value: value)
    am = AtomicMulticast(backend="live")
    am.ring("g", acceptors=["n0", "n1", "n2"], learners=["n0", "n1", "n2"])
    with am:
        stranded = am.submit("g", "never-delivered", size_bytes=64)
    with pytest.raises(MulticastError, match="closed before delivery"):
        stranded.result(timeout=5.0)
