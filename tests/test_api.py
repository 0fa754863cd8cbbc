"""Tests for the backend- and engine-agnostic :mod:`repro.api` facade."""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading

import pytest

from repro import AtomicMulticast, engines
from repro.engines.multiring import MultiRingEngine
from repro.errors import ConfigurationError, MulticastError
from repro.runtime.interfaces import StorageMode


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


def test_live_rejects_sim_only_features_and_late_rings():
    am = AtomicMulticast(backend="live")
    am.ring("g", acceptors=["n0", "n1", "n2"], learners=["n0", "n1", "n2"])
    with pytest.raises(ConfigurationError, match="sim backend"):
        am.dlog()
    with pytest.raises(ConfigurationError, match="sim backend"):
        _ = am.monitor
    with am:
        with pytest.raises(ConfigurationError, match="before entering"):
            am.ring("late", acceptors=["n0"], learners=["n0"])


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
    RECORDED = ("add_group", "descriptor", "node", "on_deliver", "submit", "next_proposer")

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
        assert ("submit" if backend == "sim" else "next_proposer") in am.engine.calls
    finally:
        engines.unregister(RecordingEngine.name)


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
