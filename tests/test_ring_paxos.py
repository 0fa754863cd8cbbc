"""Tests for Ring Paxos atomic broadcast (single ring)."""

import pytest

from conftest import SingleRing
from repro.config import RingConfig
from repro.errors import MulticastError
from repro.ringpaxos.messages import RetransmitReply, RetransmitRequest
from repro.sim.disk import StorageMode
from repro.runtime.actor import Process
from repro.sim.world import World


def _run_broadcasts(world, ring, payloads, via=None, until=2.0):
    world.start()
    for index, payload in enumerate(payloads):
        ring.broadcast(payload, 1024, via=via)
    world.run(until=until)


class TestBasicBroadcast:
    def test_all_learners_deliver_all_messages_in_order(self, world):
        ring = SingleRing(world, ["n1", "n2", "n3"])
        _run_broadcasts(world, ring, [f"m{i}" for i in range(10)])
        for learner in ("n1", "n2", "n3"):
            assert ring.delivered_payloads(learner) == [f"m{i}" for i in range(10)]

    def test_learners_deliver_in_the_same_order_with_multiple_proposers(self, world):
        ring = SingleRing(world, ["n1", "n2", "n3"])
        world.start()
        for index in range(12):
            ring.broadcast(f"m{index}", 512, via=f"n{index % 3 + 1}")
        world.run(until=2.0)
        orders = [ring.delivered_payloads(name) for name in ("n1", "n2", "n3")]
        assert orders[0] == orders[1] == orders[2]
        assert sorted(orders[0]) == sorted(f"m{i}" for i in range(12))

    def test_instance_numbers_are_consecutive(self, world):
        ring = SingleRing(world, ["n1", "n2", "n3"])
        _run_broadcasts(world, ring, ["a", "b", "c"])
        instances = [instance for instance, _value in ring.deliveries("n2")]
        assert instances == [0, 1, 2]

    def test_single_node_ring_works(self, world):
        ring = SingleRing(world, ["solo"])
        _run_broadcasts(world, ring, ["only"])
        assert ring.delivered_payloads("solo") == ["only"]

    def test_five_node_ring_with_separate_roles(self, world):
        ring = SingleRing(
            world,
            ["p1", "a1", "a2", "a3", "l1"],
            acceptors=["a1", "a2", "a3"],
            proposers=["p1"],
            learners=["l1", "p1"],
        )
        _run_broadcasts(world, ring, ["x", "y"], via="p1")
        assert ring.delivered_payloads("l1") == ["x", "y"]
        assert ring.delivered_payloads("p1") == ["x", "y"]

    def test_non_proposer_cannot_propose(self, world):
        ring = SingleRing(
            world,
            ["p1", "a1", "a2", "a3", "l1"],
            acceptors=["a1", "a2", "a3"],
            proposers=["p1"],
            learners=["l1"],
        )
        world.start()
        with pytest.raises(MulticastError):
            ring.hosts["l1"].propose("broadcast", "nope", 100)

    def test_delivery_callback_invoked(self, world):
        ring = SingleRing(world, ["n1", "n2", "n3"])
        events = []
        ring.on_deliver(lambda learner, instance, value: events.append((learner, instance)))
        _run_broadcasts(world, ring, ["a"])
        assert len(events) == 3  # one delivery per learner


class TestDurabilityAndCpu:
    def test_sync_storage_increases_latency(self):
        latencies = {}
        for mode in (StorageMode.MEMORY, StorageMode.SYNC_HDD):
            world = World(seed=3)
            ring = SingleRing(world, ["n1", "n2", "n3"], storage_mode=mode)
            done = {}
            value_holder = {}
            ring.on_deliver(
                lambda learner, instance, value: done.setdefault(value.uid, world.now)
            )
            world.start()
            value = ring.broadcast("x", 1024, via="n1")
            value_holder["uid"] = value.uid
            world.run(until=2.0)
            latencies[mode] = done[value_holder["uid"]] - value.created_at
        assert latencies[StorageMode.SYNC_HDD] > latencies[StorageMode.MEMORY] * 5

    def test_acceptors_log_votes(self, world):
        ring = SingleRing(world, ["n1", "n2", "n3"])
        _run_broadcasts(world, ring, ["a", "b"])
        coordinator = ring.coordinator
        role = coordinator.role("broadcast")
        assert role.storage is not None
        assert len(role.storage) >= 2

    def test_coordinator_cpu_is_charged(self, world):
        ring = SingleRing(world, ["n1", "n2", "n3"])
        _run_broadcasts(world, ring, ["a"] * 20)
        assert ring.coordinator.cpu.total_busy_time > 0


class TestFaultTolerance:
    def test_crashed_learner_is_skipped_and_others_still_deliver(self, world):
        ring = SingleRing(
            world,
            ["a1", "a2", "a3", "l1", "l2"],
            acceptors=["a1", "a2", "a3"],
            proposers=["a1"],
            learners=["l1", "l2"],
        )
        world.start()
        world.process("l1").crash()
        ring.broadcast("after-crash", 256, via="a1")
        world.run(until=2.0)
        assert ring.delivered_payloads("l2") == ["after-crash"]
        assert ring.delivered_payloads("l1") == []

    def test_messages_survive_one_acceptor_crash(self, world):
        # With 3 acceptors a majority of 2 remains after one crash; the ring
        # skips the dead member when forwarding.
        ring = SingleRing(
            world,
            ["a1", "a2", "a3", "l1"],
            acceptors=["a1", "a2", "a3"],
            proposers=["a1"],
            learners=["l1"],
        )
        world.start()
        world.process("a3").crash()
        ring.broadcast("resilient", 256, via="a1")
        world.run(until=2.0)
        assert ring.delivered_payloads("l1") == ["resilient"]

    def test_restarted_learner_without_recovery_redelivers_through_gap_repair(self, world):
        # No recovery manager: the restarted node's merge starts over at
        # instance 0, and gap repair refills it from the acceptors' logs
        # before the values decided after the restart follow.
        ring = SingleRing(world, ["n1", "n2", "n3"], ring_config=RingConfig(repair_interval=0.05))
        world.start()
        for index in range(20):
            ring.broadcast(f"a{index}", 256)
        world.run(until=0.5)
        ring.hosts["n3"].crash()
        world.run(until=0.6)
        ring.hosts["n3"].recover()
        for index in range(20):
            ring.broadcast(f"b{index}", 256)
        world.run(until=2.5)
        before = [f"a{index}" for index in range(20)]
        after = [f"b{index}" for index in range(20)]
        assert ring.delivered_payloads("n3") == before + before + after
        assert ring.hosts["n3"].merge.pending(SingleRing.GROUP) == 0

    def test_retransmit_request_returns_logged_values(self, world):
        ring = SingleRing(world, ["n1", "n2", "n3"])
        _run_broadcasts(world, ring, ["a", "b", "c"])

        replies = []

        class Requester(Process):
            def on_message(self, sender, payload):
                if isinstance(payload, RetransmitReply):
                    replies.append(payload)

        requester = Requester(world, "requester")
        requester.send(
            "n1",
            RetransmitRequest(group="broadcast", first=0, last=10, reply_to="requester"),
            size_bytes=64,
        )
        world.run(until=3.0)
        assert replies
        payloads = [value.payload for _instance, value in replies[0].entries]
        assert payloads == ["a", "b", "c"]

    def test_retransmit_after_trim_reports_trimmed(self, world):
        ring = SingleRing(world, ["n1", "n2", "n3"])
        _run_broadcasts(world, ring, ["a", "b", "c"])
        ring.coordinator.role("broadcast").storage.trim(1)

        replies = []

        class Requester(Process):
            def on_message(self, sender, payload):
                if isinstance(payload, RetransmitReply):
                    replies.append(payload)

        coordinator_name = ring.descriptor.coordinator
        Requester(world, "requester").send(
            coordinator_name,
            RetransmitRequest(group="broadcast", first=0, last=10, reply_to="requester"),
            size_bytes=64,
        )
        world.run(until=3.0)
        assert replies
        assert replies[0].trimmed_up_to == 1
        assert replies[0].entries == ()

    def test_in_memory_acceptor_state_is_lost_on_crash(self, world):
        ring = SingleRing(world, ["n1", "n2", "n3"], storage_mode=StorageMode.MEMORY)
        _run_broadcasts(world, ring, ["a", "b"])
        node = ring.hosts["n2"]
        assert len(node.role("broadcast").storage) > 0
        node.crash()
        assert len(node.role("broadcast").storage) == 0
