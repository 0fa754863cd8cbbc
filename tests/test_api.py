"""Tests for the :mod:`repro.api` facade on both backends."""

from __future__ import annotations

import ast
import asyncio
import concurrent.futures
import gc
import logging
import os
import subprocess
import sys
import textwrap
import threading
import time
from functools import partial
from pathlib import Path

import pytest

import repro
from repro import AtomicMulticast, api
from repro.config import MultiRingConfig
from repro.errors import ConfigurationError, MulticastError
from repro.multiring.deployment import Deployment
from repro.runtime.interfaces import StorageMode
from repro.scenarios import FaultPlan
from repro.workloads.simple import AppendWorkload


def _three_node_ring(am: AtomicMulticast, group: str = "ring-1") -> None:
    am.ring(
        group,
        acceptors=["a1", "a2", "a3"],
        learners=["L1", "L2"],
        storage=StorageMode.MEMORY,
    )


# ----------------------------------------------------------------------
# what a process loads
# ----------------------------------------------------------------------
#: Modules a simulated process never needs: the live backend's event loop and
#: TLS stack, the live runtime, and the figure harness.
_LIVE_OR_HARNESS = ("asyncio", "ssl", "repro.runtime.live", "repro.bench")


def _loaded_after(script: str, modules=_LIVE_OR_HARNESS) -> list:
    """Which of ``modules`` a fresh interpreter holds after running ``script``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = f"{textwrap.dedent(script)}\nimport sys\nprint(sorted(set({modules!r}) & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_a_sim_ring_to_its_first_ack_loads_no_live_runtime_or_harness():
    script = """
        import repro.api
        with repro.api.AtomicMulticast(seed=1) as am:
            am.ring("ring-1", acceptors=["a1", "a2", "a3"], learners=["a1", "a2", "a3"])
            future = am.submit("ring-1", "m", size_bytes=512)
            am.run_for(1.0)
            assert future.result(timeout=0).value.payload == "m"
    """
    assert _loaded_after(script) == []


def test_the_scenario_topologies_and_invariants_load_no_live_runtime_or_harness():
    # Nor the services, the SMR layer or the campaign runner that drives them.
    modules = _LIVE_OR_HARNESS + ("repro.services", "repro.smr", "repro.scenarios.campaign")
    script = "import repro.scenarios.topologies, repro.scenarios.invariants"
    assert _loaded_after(script, modules) == []


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
        # Iterating again replays from the start: the stream keeps a window of
        # the last STREAM_WINDOW deliveries, and these four are all in it.
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


def test_ring_members_default_to_acceptors_then_proposers_then_learners():
    with AtomicMulticast(seed=6) as am:
        am.ring("g", acceptors=["a1", "a2", "a3"], proposers=["p1"], learners=["l1"])
        assert am.deployment.ring_specs["g"].members == ["a1", "a2", "a3", "p1", "l1"]
        future = am.submit("g", "via-p1", size_bytes=64)
        am.run_for(1.0)
        delivery = future.result(timeout=0)
        assert (delivery.value.payload, delivery.value.proposer) == ("via-p1", "p1")


def test_sim_multicast_resolves_at_the_route_rings_witness():
    with AtomicMulticast(seed=8) as am:
        acceptors = ["a0", "a1", "a2"]
        am.ring("r1", acceptors=acceptors, learners=["L1", "L3"])
        am.ring("r2", acceptors=acceptors, learners=["L2", "L3"])
        am.ring("both", acceptors=acceptors, learners=["L3", "L1", "L2"], multi_group_route=True)
        future = am.multicast(("r1", "r2"), "to-both", size_bytes=64)
        am.run_for(1.0)
        delivery = future.result(timeout=0)
        assert (delivery.group, delivery.value.payload) == ("both", "to-both")
        assert am.node("L3").deliveries_count == 1


def test_sim_inject_failures_takes_the_registered_coordinator_down_and_up():
    with AtomicMulticast(seed=5) as am:
        am.ring("g", acceptors=["a1", "a2", "a3"], learners=["L1", "L2"], coordinator="a2")
        am.inject_failures(FaultPlan("coordinator").crash_coordinator("g", at=0.5, restart_at=1.0))
        before = [am.submit("g", f"b{i}", size_bytes=64) for i in range(3)]
        up = {}
        for instant in (0.45, 0.5, 0.95, 1.0):
            am.run(until=instant)
            up[instant] = [am.world.process(name).alive for name in ("a1", "a2", "a3")]
        assert up == {
            0.45: [True, True, True],
            0.5: [True, False, True],
            0.95: [True, False, True],
            1.0: [True, True, True],
        }
        assert all(future.done() for future in before)
        after = [am.submit("g", f"a{i}", size_bytes=64) for i in range(3)]
        am.run_for(1.0)
        assert sorted(future.result(timeout=0).value.payload for future in after) == ["a0", "a1", "a2"]
        assert am.world.obs.metrics.events() == [
            {"time": 0.5, "kind": "fault/crash", "detail": "coordinator:g -> a2"},
            {"time": 1.0, "kind": "fault/restart", "detail": "coordinator:g -> a2"},
        ]


def test_sim_inject_failures_refuses_a_plan_it_cannot_resolve():
    with AtomicMulticast(seed=5) as am:
        _three_node_ring(am)
        # The facade holds no MRP-Store, so a replica selector never resolves.
        with pytest.raises(ConfigurationError, match="without a store"):
            am.inject_failures(FaultPlan("replica").crash_replica("p0", 0, at=0.5))
        am.run_for(1.0)
        assert am.world.obs.metrics.events() == []


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
        am.inject_failures(FaultPlan("none"))
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
        # A multi-group message is ordered on the route ring; the ack is
        # the delivery at that ring's witness.
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
# both backends build one Deployment and drive it directly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["sim", "live"])
def test_both_backends_build_and_run_through_the_engine_seam(backend):
    """The seam between the facade and the protocol is one ``Deployment``."""
    am = AtomicMulticast(backend=backend, seed=5)
    am.ring("g", acceptors=["n0", "n1", "n2"], learners=["n0", "n1", "n2"])
    assert isinstance(am.deployment, Deployment)
    assert list(am.deployment.rings) == ["g"]
    with am:
        assert all(am.node(n) is am.deployment.node(n) for n in ("n0", "n1", "n2"))
        future = am.submit("g", "through-the-deployment", size_bytes=128)
        if backend == "sim":
            am.run_for(1.0)
        assert future.result(timeout=10.0).value.payload == "through-the-deployment"
        assert [d.value.payload for d in am.deliveries("g")] == ["through-the-deployment"]
        assert am.coordinator_of("g") is am.node("n0")


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


def test_sim_exit_fails_outstanding_acks_and_closes_the_streams():
    with AtomicMulticast(seed=14) as am:
        _three_node_ring(am)
        stranded = am.submit("ring-1", "never-run", size_bytes=64)
        stream = am.deliveries("ring-1")
    # Nothing runs the world after the block, so nothing can deliver it.
    with pytest.raises(MulticastError, match="closed before delivery"):
        stranded.result(timeout=0)
    assert not am._pending

    async def drain() -> list:
        return [delivery async for delivery in stream]

    # The closed stream ends at once instead of stepping the world.
    assert asyncio.run(drain()) == []
    assert am.world.sim.processed_events == 0


# ----------------------------------------------------------------------
# the facade keeps a window, not a history
# ----------------------------------------------------------------------
def test_stream_keeps_a_window_and_a_reader_behind_it_fails_loudly(monkeypatch):
    monkeypatch.setattr(api, "STREAM_WINDOW", 8)
    with AtomicMulticast(seed=13) as am:
        _three_node_ring(am)
        stream = am.deliveries("ring-1")
        reader = iter(stream)
        for i in range(5):
            am.submit("ring-1", i, size_bytes=64)
        am.run_for(1.0)
        assert sorted(next(reader).value.payload for _ in range(5)) == [0, 1, 2, 3, 4]
        for i in range(5, 25):
            am.submit("ring-1", i, size_bytes=64)
        am.run_for(1.0)
        assert len(stream) == 25
        # Deliveries 5..16 left the window before the reader got to them.
        with pytest.raises(MulticastError, match=r"^12 deliveries of 'ring-1' were dropped"):
            next(reader)
        # A fresh iteration starts at the first delivery, which is gone too.
        with pytest.raises(MulticastError, match=r"^17 deliveries .* keeps the last 8"):
            list(stream)


@pytest.mark.parametrize("hold, bound", [(True, 3.0), (False, 0.05)], ids=["held", "dropped"])
def test_acked_submits_retain_a_bounded_number_of_objects(hold, bound):
    """GC-tracked objects left per acked submit, between 20k and 40k of them.

    A held ack keeps itself, its Delivery and that delivery's Value (3) --
    no waiter list, no callback list, not the callback once it has run; a
    dropped one keeps nothing once the stream's window is full.
    """
    am = AtomicMulticast(seed=11)
    _three_node_ring(am)
    held, marks, submitted, acked = [], [], 0, [0]

    def count_ack(index, future) -> None:
        acked[0] += 1

    with am:
        for target in (20_000, 40_000):
            while submitted < target:
                for _ in range(1000):
                    future = am.submit("ring-1", submitted, size_bytes=64)
                    future.add_done_callback(partial(count_ack, submitted))
                    if hold:
                        held.append(future)
                    submitted += 1
                am.run_for(0.05)
            while acked[0] < submitted:
                am.run_for(0.05)
            gc.collect()
            marks.append(len(gc.get_objects()))
    # To two places: what is in flight at either mark (a Phase2, a few
    # timers) moves the total by a handful, 0.0003 per submit.
    assert round((marks[1] - marks[0]) / 20_000, 2) <= bound


# ----------------------------------------------------------------------
# _AckFuture overrides concurrent.futures internals: stock behaviour holds
# ----------------------------------------------------------------------
def _sim_ring(seed: int) -> AtomicMulticast:
    am = AtomicMulticast(seed=seed)
    am.ring("g", acceptors=["n0", "n1", "n2"], learners=["n0", "n1", "n2"])
    return am


def _drive_later(am: AtomicMulticast) -> threading.Thread:
    """Run the simulation from another thread once the caller is blocked waiting."""

    def drive() -> None:
        time.sleep(0.05)
        am.run_for(1.0)

    thread = threading.Thread(target=drive)
    thread.start()
    return thread


@pytest.mark.parametrize("return_when", [concurrent.futures.FIRST_COMPLETED,
                                         concurrent.futures.ALL_COMPLETED])
def test_wait_over_done_and_pending_acks(return_when):
    with _sim_ring(21) as am:
        settled = [am.submit("g", f"d{i}", size_bytes=64) for i in range(3)]
        am.run_for(1.0)
        pending = [am.submit("g", f"p{i}", size_bytes=64) for i in range(3)]
        done, not_done = concurrent.futures.wait(
            settled + pending, timeout=0, return_when=return_when
        )
        assert (done, not_done) == (set(settled), set(pending))
        later = [am.submit("g", f"l{i}", size_bytes=64) for i in range(3)]
        driver = _drive_later(am)
        done, not_done = concurrent.futures.wait(later, timeout=10.0, return_when=return_when)
        driver.join()
        assert done and done <= set(later)
        if return_when == concurrent.futures.ALL_COMPLETED:
            assert not not_done
        # Every waiter was taken out again.
        assert all(not f._waiter_list for f in settled + pending + later)


def test_as_completed_yields_done_acks_then_pending_ones():
    with _sim_ring(22) as am:
        settled = [am.submit("g", f"d{i}", size_bytes=64) for i in range(3)]
        am.run_for(1.0)
        pending = [am.submit("g", f"p{i}", size_bytes=64) for i in range(3)]
        driver = _drive_later(am)
        order = list(concurrent.futures.as_completed(settled + pending, timeout=10.0))
        driver.join()
        assert set(order[:3]) == set(settled) and set(order[3:]) == set(pending)


def test_wrap_future_awaits_an_ack_and_cancels_it():
    async def main(am: AtomicMulticast):
        acked = asyncio.wrap_future(am.submit("g", "awaited", size_bytes=64))
        dropped = am.submit("g", "cancelled", size_bytes=64)
        asyncio.wrap_future(dropped).cancel()
        await asyncio.sleep(0)  # the wrapper's cancel reaches the ack
        am.run_for(1.0)
        return (await acked).value.payload, dropped

    with _sim_ring(23) as am:
        payload, dropped = asyncio.run(main(am))
    assert payload == "awaited"
    assert dropped.cancelled()


def test_callbacks_added_before_and_after_resolution_run_exactly_once():
    with _sim_ring(24) as am:
        one, two = am.submit("g", "one", size_bytes=64), am.submit("g", "two", size_bytes=64)
        calls = []
        one.add_done_callback(lambda f: calls.append(("one", "before")))
        two.add_done_callback(lambda f: calls.append(("two", "first")))
        two.add_done_callback(lambda f: calls.append(("two", "second")))
        am.run_for(1.0)
        one.add_done_callback(lambda f: calls.append(("one", "after")))
        am.run_for(1.0)
    assert sorted(calls) == [("one", "after"), ("one", "before"),
                             ("two", "first"), ("two", "second")]
    # A callback that has run is not kept.
    assert one._done_callbacks is None and two._done_callbacks is None


def test_a_raising_callback_is_logged_not_propagated(caplog):
    with _sim_ring(25) as am:
        future = am.submit("g", "x", size_bytes=64)
        ran = []

        def boom(f):
            raise RuntimeError("callback failed")

        future.add_done_callback(boom)
        future.add_done_callback(ran.append)
        with caplog.at_level(logging.ERROR, logger="concurrent.futures"):
            am.run_for(1.0)
            future.add_done_callback(boom)  # after resolution: run at once
    assert ran == [future] and future.result(timeout=0).value.payload == "x"
    failures = [r for r in caplog.records if "exception calling callback" in r.getMessage()]
    assert len(failures) == 2


def test_cancel_and_set_exception_on_a_pending_ack():
    with _sim_ring(26) as am:
        cancelled = am.submit("g", "c", size_bytes=64)
        failed = am.submit("g", "f", size_bytes=64)
        calls = []
        cancelled.add_done_callback(calls.append)
        failed.add_done_callback(calls.append)
        assert cancelled.cancel() and cancelled.cancelled()
        failed.set_exception(MulticastError("given up"))
        assert calls == [cancelled, failed]
        # Their values are still delivered; the acks stay as they were set.
        am.run_for(1.0)
        assert len(am.deliveries("g")) == 2 and calls == [cancelled, failed]
        assert cancelled.cancelled() and not failed.cancelled()
        with pytest.raises(MulticastError, match="given up"):
            failed.result(timeout=0)


def test_stream_readers_racing_the_witness_see_each_delivery_at_its_place(monkeypatch):
    """Reader threads index the window while the witness fills it, turns at a time."""
    import sys
    from types import SimpleNamespace

    monkeypatch.setattr(api, "STREAM_WINDOW", 64)
    am = _sim_ring(27)
    stream = am.deliveries("g")
    total, torn = 20_000, []

    def witness() -> None:  # stands in for the loop thread: turns of 1..7 deliveries
        index = 0
        while index < total:
            for _ in range(1 + index % 7):
                stream._arrived.append(SimpleNamespace(n=index, value=SimpleNamespace(uid=-1)))
                index += 1
            stream._end_turn()

    def reader() -> None:
        index = 0
        while index < total:
            try:
                delivery = stream._get(index)
            except MulticastError as exc:
                index += int(str(exc).split()[0])  # skip what it says was dropped
                continue
            if delivery is not None:
                if delivery.n != index:
                    torn.append((index, delivery.n))
                index += 1

    threads = [threading.Thread(target=witness)]
    threads += [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not torn and len(stream) == total
