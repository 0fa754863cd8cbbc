"""Tests for the ring overlay, coordinator election and the coordination registry."""

import pytest

from repro.coordination.election import elect_coordinator
from repro.coordination.registry import Registry
from repro.errors import ConfigurationError, CoordinationError
from repro.net.message import HEADER_BYTES, ProtocolMessage, estimate_size
from repro.net.ring import RingOverlay
from repro.types import Value


class TestRingOverlay:
    def test_successor_and_predecessor_wrap_around(self):
        ring = RingOverlay(["a", "b", "c"])
        assert ring.successor("a") == "b"
        assert ring.successor("c") == "a"
        assert ring.predecessor("a") == "c"

    def test_distance(self):
        ring = RingOverlay(["a", "b", "c", "d"])
        assert ring.distance("a", "a") == 0
        assert ring.distance("a", "d") == 3
        assert ring.distance("d", "a") == 1

    def test_membership_operations(self):
        ring = RingOverlay(["a", "b"])
        assert "a" in ring and "z" not in ring
        assert ring.without_member("a").members == ["b"]
        assert len(ring) == 2

    def test_duplicates_are_removed_preserving_order(self):
        ring = RingOverlay(["a", "b", "a", "c"])
        assert ring.members == ["a", "b", "c"]

    def test_unknown_member_raises(self):
        with pytest.raises(ConfigurationError):
            RingOverlay(["a"]).position("b")

    def test_empty_ring_rejected(self):
        with pytest.raises(ConfigurationError):
            RingOverlay([])


class TestElection:
    def test_first_alive_acceptor_wins(self):
        assert elect_coordinator(["a1", "a2", "a3"]) == "a1"
        assert elect_coordinator(["a1", "a2", "a3"], lambda n: n != "a1") == "a2"

    def test_no_live_acceptor_raises(self):
        with pytest.raises(CoordinationError):
            elect_coordinator(["a1"], lambda n: False)
        with pytest.raises(CoordinationError):
            elect_coordinator([])


class TestRegistry:
    def _register(self, registry: Registry, group="g1"):
        return registry.register_ring(
            group,
            members_in_ring_order=["a1", "a2", "a3", "l1", "l2"],
            proposers=["a1", "a2"],
            acceptors=["a1", "a2", "a3"],
            learners=["l1", "l2"],
        )

    def test_register_and_lookup(self):
        registry = Registry()
        descriptor = self._register(registry)
        assert registry.ring("g1") is descriptor
        assert descriptor.coordinator == "a1"
        assert descriptor.quorum_size == 2
        assert registry.groups() == ["g1"]

    def test_roles_of(self):
        registry = Registry()
        descriptor = self._register(registry)
        assert descriptor.roles_of("a1") == {"proposer", "acceptor", "coordinator"}
        assert descriptor.roles_of("l1") == {"learner"}
        assert descriptor.roles_of("a3") == {"acceptor"}

    def test_duplicate_group_rejected(self):
        registry = Registry()
        self._register(registry)
        with pytest.raises(CoordinationError):
            self._register(registry)

    def test_member_consistency_checked(self):
        registry = Registry()
        with pytest.raises(CoordinationError):
            registry.register_ring(
                "bad", ["a1"], proposers=["ghost"], acceptors=["a1"], learners=["a1"]
            )
        with pytest.raises(CoordinationError):
            registry.register_ring("bad2", ["a1"], proposers=["a1"], acceptors=[], learners=["a1"])

    def test_coordinator_must_be_acceptor(self):
        registry = Registry()
        with pytest.raises(CoordinationError):
            registry.register_ring(
                "bad",
                ["a1", "l1"],
                proposers=["a1"],
                acceptors=["a1"],
                learners=["l1"],
                coordinator="l1",
            )

    def test_reelection_skips_dead_coordinator(self):
        registry = Registry()
        self._register(registry)
        new_coordinator = registry.reelect_coordinator("g1", lambda n: n != "a1")
        assert new_coordinator == "a2"
        assert registry.ring("g1").coordinator == "a2"

    def test_unknown_group_raises(self):
        with pytest.raises(CoordinationError):
            Registry().ring("none")

    def test_subscriptions_and_partitions(self):
        registry = Registry()
        self._register(registry, "g1")
        self._register(registry, "g2")
        registry.subscribe("l1", ["g1", "g2"])
        registry.subscribe("l2", ["g2", "g1"])
        registry.subscribe("l3", ["g2"])
        assert set(registry.subscribers_of("g2")) == {"l1", "l2", "l3"}
        # l1 and l2 subscribe to the same groups: same partition.
        assert registry.partition_of("l1") == registry.partition_of("l2")
        assert registry.partition_peers("l1") == ["l2"]
        assert registry.partition_peers("l3") == []

    def test_subscribe_unknown_group_rejected(self):
        registry = Registry()
        with pytest.raises(CoordinationError):
            registry.subscribe("l1", ["nope"])

    def test_subscribe_is_idempotent(self):
        registry = Registry()
        self._register(registry)
        registry.subscribe("l1", ["g1"])
        registry.subscribe("l1", ["g1"])
        assert registry.partition_of("l1") == ["g1"]

    def test_partition_map_storage(self):
        registry = Registry()
        registry.store_partition_map("svc", {"p0": "ring-0"})
        assert registry.partition_map("svc") == {"p0": "ring-0"}
        with pytest.raises(CoordinationError):
            registry.partition_map("other")

    def test_kv_and_watches(self):
        registry = Registry()
        seen = []
        registry.watch("config/x", lambda key, value: seen.append((key, value)))
        registry.set("config/x", 42)
        assert registry.get("config/x") == 42
        assert registry.get("missing", "default") == "default"
        assert seen == [("config/x", 42)]


class TestMessageSizing:
    def test_estimate_size_of_primitives(self):
        assert estimate_size(None) == 0
        assert estimate_size(b"12345") == 5
        assert estimate_size("abc") == 3
        assert estimate_size(7) == 8
        assert estimate_size(3.14) == 8
        assert estimate_size([1, 2, 3]) == 8 + 24
        assert estimate_size({"k": 1}) == 8 + 1 + 8

    def test_estimate_size_uses_value_size(self):
        value = Value.create("payload", 4096)
        assert estimate_size(value) == 4096

    def test_protocol_message_includes_header(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Ping(ProtocolMessage):
            payload: bytes

        assert Ping(b"abcd").size_bytes == HEADER_BYTES + 4
