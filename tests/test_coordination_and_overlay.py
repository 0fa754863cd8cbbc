"""Tests for the ring overlay, coordinator election and the coordination registry."""

import pytest
from hypothesis import example, given, strategies as st

from repro import AtomicMulticast
from repro.coordination.election import elect_coordinator
from repro.coordination.registry import Registry
from repro.errors import ConfigurationError, CoordinationError
from repro.net.message import HEADER_BYTES, ProtocolMessage, estimate_size
from repro.net.ring import RingOverlay
from repro.ringpaxos.node import RingHost
from repro.scenarios import FaultPlan
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
        for name in ("a1", "a2", "a3"):
            registry.set_up(name, True)
        registry.set_up("a1", False)
        new_coordinator = registry.reelect_coordinator("g1")
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


def _walk(ring: RingOverlay, down, name: str, origin: str):
    """The forward walk the view replaced: the next member clockwise from
    ``name`` that is not down, or ``None`` once it meets ``origin`` or
    comes back to ``name``."""
    candidate = ring.successor(name)
    while candidate != origin and candidate != name:
        if candidate not in down:
            return candidate
        candidate = ring.successor(candidate)
    return None


@st.composite
def _memberships(draw):
    """A ring of 1-7 members, a down set, an up forwarder and any origin."""
    members = [f"m{i}" for i in range(draw(st.integers(1, 7)))]
    name = draw(st.sampled_from(members))
    down = draw(st.sets(st.sampled_from(members))) - {name}
    origin = draw(st.sampled_from(members))
    return members, down, name, origin, draw(st.booleans())


class TestMembershipView:
    @given(_memberships())
    # The origin is down, before and after the next up member.
    @example((["m0", "m1", "m2", "m3", "m4"], {"m1", "m3"}, "m0", "m1", False))
    @example((["m0", "m1", "m2", "m3", "m4"], {"m1", "m3"}, "m0", "m3", True))
    # The forwarder is the lone up member.
    @example((["m0", "m1", "m2"], {"m1", "m2"}, "m0", "m2", False))
    @example((["m0"], set(), "m0", "m0", True))
    def test_next_hop_is_the_walk_past_down_members(self, case):
        members, down, name, origin, up_before_ring = case
        registry = Registry()
        up = [member for member in members if member not in down]

        def mark_up():
            for member in up:
                registry.set_up(member, True)

        if up_before_ring:
            mark_up()
        registry.register_ring("g", members, proposers=[], acceptors=members, learners=[])
        if not up_before_ring:
            mark_up()
        assert registry.next_hop("g", name, origin) == _walk(RingOverlay(members), down, name, origin)

    def test_a_name_that_never_registered_is_down(self):
        registry = Registry()
        registry.register_ring("g", ["a", "b"], proposers=["a"], acceptors=["a", "b"], learners=["b"])
        registry.set_up("b", True)
        assert not registry.is_up("a")
        assert registry.first_up(["a", "b"]) == "b"
        assert registry.next_hop("g", "b", "b") is None

    def test_a_crashed_member_leaves_the_view_and_decisions_skip_it(self, monkeypatch):
        hops = []
        ring_send = RingHost.ring_send

        def recorded(host, dest, msg):
            hops.append((host.now, host.name, dest, type(msg).__name__))
            ring_send(host, dest, msg)

        monkeypatch.setattr(RingHost, "ring_send", recorded)
        with AtomicMulticast(seed=5) as am:
            am.ring("g", ["a1", "a2", "a3"], acceptors=["a1", "a2", "a3"], proposers=["a1"])
            am.inject_failures(FaultPlan("member").crash("a3", at=0.5, restart_at=1.0))
            registry = am.deployment.registry
            view = {}
            futures = []
            for instant in (0.45, 0.5, 0.7, 0.95, 1.0, 1.2):
                am.run(until=instant)
                view[instant] = (registry.is_up("a3"), registry.next_hop("g", "a2", "a2"))
                futures.append(am.submit("g", instant, size_bytes=64))
            am.run(until=1.5)
        assert view == {
            0.45: (True, "a3"),
            0.5: (False, "a1"),
            0.7: (False, "a1"),
            0.95: (False, "a1"),
            1.0: (True, "a3"),
            1.2: (True, "a3"),
        }
        assert all(future.done() for future in futures)
        down = [(src, dest, kind) for now, src, dest, kind in hops if 0.5 <= now < 1.0]
        assert ("a2", "a1", "Decision") in down
        assert not [hop for hop in down if "a3" in hop[:2]]
        after = [(src, dest, kind) for now, src, dest, kind in hops if now >= 1.0]
        assert ("a2", "a3", "Decision") in after


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
