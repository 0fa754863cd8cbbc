"""Tests for the network model, topologies, processes and the world container."""

import pytest

from repro.errors import ConfigurationError, NetworkError, ProcessCrashedError
from repro.sim.network import NetworkConfig
from repro.runtime.actor import Process
from repro.sim.topology import EC2_REGIONS, Topology, lan_topology, wan_topology
from repro.sim.world import World


class Recorder(Process):
    """A process that records every message it receives with its arrival time."""

    def __init__(self, world, name, site=None):
        super().__init__(world, name, site)
        self.received = []

    def on_message(self, sender, payload):
        self.received.append((self.now, sender, payload))


class TestTopology:
    def test_lan_latency_is_half_rtt(self):
        topo = lan_topology(rtt=0.1e-3)
        assert topo.latency("lan", "lan") == pytest.approx(0.05e-3)

    def test_wan_has_all_regions(self):
        topo = wan_topology()
        assert set(EC2_REGIONS) <= set(topo.sites)

    def test_wan_inter_region_latency_larger_than_intra(self):
        topo = wan_topology()
        intra = topo.latency("eu-west-1", "eu-west-1")
        inter = topo.latency("eu-west-1", "us-east-1")
        assert inter > intra * 10

    def test_wan_latency_is_symmetric(self):
        topo = wan_topology()
        assert topo.latency("eu-west-1", "us-west-2") == topo.latency("us-west-2", "eu-west-1")

    def test_unknown_link_site_raises(self):
        topo = Topology(["a"])
        with pytest.raises(ConfigurationError):
            topo.set_link("a", "missing", 1e-3)

    def test_empty_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology([])

    def test_inter_region_bandwidth_lower_than_intra(self):
        topo = wan_topology()
        assert topo.bandwidth("eu-west-1", "us-east-1") < topo.bandwidth("eu-west-1", "eu-west-1")


class TestNetworkDelivery:
    def test_message_is_delivered_with_latency(self, world):
        a = Recorder(world, "a")
        b = Recorder(world, "b")
        world.start()
        a.send("b", "hello", size_bytes=100)
        world.run(until=1.0)
        assert len(b.received) == 1
        time, sender, payload = b.received[0]
        assert sender == "a" and payload == "hello"
        assert time > 0.0

    def test_larger_messages_take_longer(self, world):
        a = Recorder(world, "a")
        b = Recorder(world, "b")
        world.start()
        a.send("b", "small", size_bytes=100)
        small_time = None
        world.run(until=1.0)
        small_time = b.received[0][0]

        world2 = World(seed=123)
        a2 = Recorder(world2, "a")
        b2 = Recorder(world2, "b")
        world2.start()
        a2.send("b", "big", size_bytes=10 * 1024 * 1024)
        world2.run(until=1.0)
        big_time = b2.received[0][0]
        assert big_time > small_time

    def test_fifo_per_sender_receiver_pair(self, world):
        a = Recorder(world, "a")
        b = Recorder(world, "b")
        world.start()
        # A huge message followed by a tiny one: FIFO must preserve order.
        a.send("b", "first", size_bytes=5 * 1024 * 1024)
        a.send("b", "second", size_bytes=10)
        world.run(until=2.0)
        assert [payload for _, _, payload in b.received] == ["first", "second"]

    def test_messages_to_crashed_process_are_dropped(self, world):
        a = Recorder(world, "a")
        b = Recorder(world, "b")
        world.start()
        b.crash()
        a.send("b", "lost", size_bytes=10)
        world.run(until=1.0)
        assert b.received == []
        assert world.network.messages_dropped == 1

    def test_unknown_destination_raises(self, world):
        a = Recorder(world, "a")
        world.start()
        with pytest.raises(NetworkError):
            a.send("ghost", "hello", size_bytes=10)

    def test_nic_bytes_accounting(self, world):
        a = Recorder(world, "a")
        b = Recorder(world, "b")
        world.start()
        a.send("b", "x", size_bytes=1000)
        world.run(until=1.0)
        tx, _ = world.network.nic_bytes("a")
        _, rx = world.network.nic_bytes("b")
        assert tx == rx
        assert tx >= 1000

    def test_wan_delivery_slower_than_lan(self, wan_world):
        a = Recorder(wan_world, "a", site="eu-west-1")
        b = Recorder(wan_world, "b", site="us-west-2")
        wan_world.start()
        a.send("b", "x", size_bytes=100)
        wan_world.run(until=1.0)
        assert b.received[0][0] > 0.05  # at least ~half the configured RTT

    def test_min_delivery_delay_applies(self):
        world = World(network_config=NetworkConfig(min_delivery_delay=5e-3), seed=1)
        a = Recorder(world, "a")
        b = Recorder(world, "b")
        world.start()
        a.send("b", "x", size_bytes=1)
        world.run(until=1.0)
        assert b.received[0][0] >= 5e-3


class TestProcessLifecycle:
    def test_crashed_process_cannot_send(self, world):
        a = Recorder(world, "a")
        Recorder(world, "b")
        world.start()
        a.crash()
        with pytest.raises(ProcessCrashedError):
            a.send("b", "x", size_bytes=1)

    def test_timers_fire_and_periodic_timers_repeat(self, world):
        a = Recorder(world, "a")
        ticks = []
        world.start()
        a.set_timer(0.5, lambda: ticks.append("once"))
        a.set_periodic_timer(1.0, lambda: ticks.append("tick"))
        world.run(until=3.4)
        assert ticks.count("once") == 1
        assert ticks.count("tick") == 3

    def test_crash_cancels_timers(self, world):
        a = Recorder(world, "a")
        ticks = []
        world.start()
        a.set_periodic_timer(0.5, lambda: ticks.append("tick"))
        world.run(until=1.2)
        a.crash()
        world.run(until=5.0)
        assert ticks.count("tick") == 2

    def test_recover_marks_process_alive_again(self, world):
        a = Recorder(world, "a")
        b = Recorder(world, "b")
        world.start()
        b.crash()
        assert not b.alive
        b.recover()
        assert b.alive
        a.send("b", "again", size_bytes=10)
        world.run(until=1.0)
        assert len(b.received) == 1

    def test_on_start_called_once_per_process(self, world):
        calls = []

        class Starter(Process):
            def on_start(self):
                calls.append(self.name)

        Starter(world, "s1")
        Starter(world, "s2")
        world.start()
        world.run(until=0.1)
        world.start()  # idempotent
        assert sorted(calls) == ["s1", "s2"]

    def test_late_joining_process_is_started(self, world):
        calls = []

        class Starter(Process):
            def on_start(self):
                calls.append((self.name, self.now))

        world.start()
        world.run(until=1.0)
        Starter(world, "late")
        world.run(until=2.0)
        assert calls and calls[0][0] == "late"
        assert calls[0][1] >= 1.0


class TestWorld:
    def test_duplicate_process_name_rejected(self, world):
        Recorder(world, "dup")
        with pytest.raises(ConfigurationError):
            Recorder(world, "dup")

    def test_unknown_process_lookup_raises(self, world):
        with pytest.raises(NetworkError):
            world.process("nobody")

    def test_default_site_must_be_in_topology(self):
        with pytest.raises(ConfigurationError):
            World(default_site="atlantis")

    def test_random_streams_are_deterministic(self):
        w1 = World(seed=5)
        w2 = World(seed=5)
        assert [w1.rng.stream("x").random() for _ in range(5)] == [
            w2.rng.stream("x").random() for _ in range(5)
        ]

    def test_random_streams_are_independent_by_name(self):
        w = World(seed=5)
        a = [w.rng.stream("a").random() for _ in range(3)]
        b = [w.rng.stream("b").random() for _ in range(3)]
        assert a != b

    def test_trace_records_when_enabled(self):
        world = World(seed=1, trace_enabled=True)
        a = Recorder(world, "a")
        world.start()
        a.log("hello trace")
        assert len(world.trace.records(process="a", containing="hello")) == 1

    def test_trace_disabled_by_default(self, world):
        a = Recorder(world, "a")
        world.start()
        a.log("nothing")
        assert len(world.trace) == 0


class TestFaultPlanCrash:
    def test_schedule_crash_and_recover(self, world):
        from repro.scenarios.faults import FaultPlan

        a = Recorder(world, "a")
        FaultPlan("restart").crash("a", at=1.0, restart_at=2.0).arm(world)
        world.run(until=0.5)
        assert a.alive
        world.run(until=1.5)
        assert not a.alive
        world.run(until=3.0)
        assert a.alive
        assert world.obs.metrics.events() == [
            {"time": 1.0, "kind": "fault/crash", "detail": "a"},
            {"time": 2.0, "kind": "fault/restart", "detail": "a"},
        ]

    def test_invalid_schedule_rejected(self):
        from repro.scenarios.faults import FaultPlan

        with pytest.raises(ConfigurationError):
            FaultPlan("bad").crash("a", at=5.0, restart_at=2.0)
