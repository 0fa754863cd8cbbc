"""Tests for the dynamic reconfiguration subsystem.

Covers the three layers of the subsystem:

* the merge-level splice (versioned subscriptions, round-boundary joins),
* live ring addition through the controller (existing learners splice in
  deterministically),
* elastic MRP-Store re-partitioning (key-range migration under load, epoch
  routing, checkpoint/recovery of the partition-map version), including the
  full acceptance scenario via the ``reconfig`` bench.
"""

import pytest

from conftest import recorded_merge
from repro.config import MultiRingConfig
from repro.coordination.reconfig import ReconfigController
from repro.errors import MulticastError, PartitioningError
from repro.multiring.deployment import Deployment, RingSpec
from repro.reconfig.elastic import migrations_installed, scale_out
from repro.services.mrpstore import MRPStore, PartitionMap
from repro.sim.topology import lan_topology
from repro.sim.world import World
from repro.smr.command import Command, SubmitCommand
from repro.types import Value


def _value(payload):
    return Value.create(payload, 100)


class TestMergeSplice:
    def test_pending_group_buffers_without_delivering(self):
        merge, deliveries = recorded_merge(["g1"], m=1)
        merge.add_pending_group("g2")
        merge.on_decision("g2", 0, _value("early"))
        merge.on_decision("g1", 0, _value("a"))
        assert [d.value.payload for d in deliveries] == ["a"]
        assert merge.pending("g2") == 1
        assert merge.active_groups == ["g1"]
        assert merge.groups == ["g1", "g2"]

    def test_splice_starts_delivery_at_the_join_round(self):
        merge, deliveries = recorded_merge(["g1"], m=1)
        for i in range(3):
            merge.on_decision("g1", i, _value(f"g1-{i}"))
        assert merge.current_round == 3
        merge.add_pending_group("g0")  # sorts before g1
        merge.on_decision("g0", 0, _value("g0-0"))
        merge.set_join_round("g0", 4)
        # Round 3 still belongs to g1 alone; g0 enters at round 4.
        merge.on_decision("g1", 3, _value("g1-3"))
        merge.on_decision("g1", 4, _value("g1-4"))
        assert [d.value.payload for d in deliveries] == [
            "g1-0", "g1-1", "g1-2", "g1-3", "g0-0", "g1-4",
        ]

    def test_splice_is_deterministic_across_arrival_orders(self):
        import random

        decisions = [("g1", i, _value(f"g1-{i}")) for i in range(6)] + [
            ("g2", i, _value(f"g2-{i}")) for i in range(4)
        ]

        def build(order_seed):
            merge, deliveries = recorded_merge(["g1"], m=1)
            merge.add_pending_group("g2")
            merge.set_join_round("g2", 2)
            # Any interleaving of the two rings; each stays in instance order.
            turns = [group for group, _, _ in decisions]
            random.Random(order_seed).shuffle(turns)
            streams = {g: iter([d for d in decisions if d[0] == g]) for g in ("g1", "g2")}
            for group in turns:
                merge.on_decision(*next(streams[group]))
            return [(d.group, d.instance) for d in deliveries]

        reference = build(0)
        assert reference == build(1) == build(7)
        # g2's first instance is delivered in round 2, after g1's instance 2.
        assert reference.index(("g2", 0)) == reference.index(("g1", 2)) + 1

    def test_join_round_must_be_in_the_future(self):
        merge, _ = recorded_merge(["g1"], m=1)
        for i in range(3):
            merge.on_decision("g1", i, _value(str(i)))
        merge.add_pending_group("g2")
        with pytest.raises(MulticastError):
            merge.set_join_round("g2", merge.current_round)

    def test_conflicting_join_round_rejected(self):
        merge, _ = recorded_merge(["g1"], m=1)
        merge.add_pending_group("g2")
        merge.set_join_round("g2", 3)
        merge.set_join_round("g2", 3)  # idempotent
        with pytest.raises(MulticastError):
            merge.set_join_round("g2", 4)

    def test_fast_forward_restores_round_structure_after_splice(self):
        def build():
            merge, deliveries = recorded_merge(["g1"], m=1)
            merge.add_pending_group("g2")
            merge.set_join_round("g2", 2)
            return merge, deliveries

        reference, reference_deliveries = build()
        decisions = [("g1", i, _value(f"g1-{i}")) for i in range(6)] + [
            ("g2", i, _value(f"g2-{i}")) for i in range(4)
        ]
        for group, instance, value in decisions:
            reference.on_decision(group, instance, value)
        cursor = reference.delivery_cursor()

        # A rebuilt merge (e.g. after a crash) fast-forwarded to the cursor
        # continues with exactly the suffix the reference would deliver next.
        rebuilt, rebuilt_deliveries = recorded_merge(
            ["g1", "g2"], m=1, join_rounds={"g1": 0, "g2": 2}
        )
        rebuilt.fast_forward(cursor)
        for group, instance, value in decisions:
            rebuilt.on_decision(group, instance, value)  # duplicates ignored
        more = [("g1", 6, _value("g1-6")), ("g2", 4, _value("g2-4"))]
        for group, instance, value in more:
            reference.on_decision(group, instance, value)
            rebuilt.on_decision(group, instance, value)
        suffix = [(d.group, d.instance) for d in rebuilt_deliveries]
        assert suffix == [(d.group, d.instance) for d in reference_deliveries][-len(suffix):]

    def test_subscription_version_bumps_on_changes(self):
        merge, _ = recorded_merge(["g1"], m=1)
        version = merge.subscription_version
        merge.add_pending_group("g2")
        assert merge.subscription_version > version
        version = merge.subscription_version
        merge.set_join_round("g2", 1)
        assert merge.subscription_version > version


class TestLiveRingAddition:
    def _single_ring_deployment(self, world):
        deployment = Deployment(world, MultiRingConfig.datacenter())
        deployment.add_ring(
            RingSpec(
                group="ring-1",
                members=["a1", "a2", "a3", "L1", "L2"],
                acceptors=["a1", "a2", "a3"],
                proposers=["a1", "a2", "a3"],
                learners=["L1", "L2"],
            )
        )
        return deployment

    def test_existing_learners_splice_new_ring_identically(self, world):
        deployment = self._single_ring_deployment(world)
        deliveries = {name: [] for name in ("L1", "L2")}
        for name in deliveries:
            deployment.node(name).on_deliver(
                lambda d, name=name: deliveries[name].append((d.group, d.instance, d.value.payload))
            )
        world.start()
        for index in range(4):
            deployment.multicast("ring-1", f"r1-{index}", 256)
        world.run(until=0.5)

        controller = ReconfigController(world, deployment)
        controller.add_ring(
            RingSpec(
                group="ring-2",
                members=["b1", "b2", "b3", "L1", "L2"],
                acceptors=["b1", "b2", "b3"],
                proposers=["b1", "b2", "b3"],
                learners=["L1", "L2"],
            ),
            splice_via="ring-1",
        )
        world.run(until=1.0)
        for index in range(4):
            deployment.multicast("ring-2", f"r2-{index}", 256)
            deployment.multicast("ring-1", f"r1-late-{index}", 256)
        world.run(until=2.5)

        assert deliveries["L1"] == deliveries["L2"]
        payloads = [p for _g, _i, p in deliveries["L1"]]
        assert {f"r2-{i}" for i in range(4)} <= set(payloads)
        assert {f"r1-late-{i}" for i in range(4)} <= set(payloads)
        l1 = deployment.node("L1")
        assert l1.subscriptions == ["ring-1", "ring-2"]
        assert l1.merge.join_round("ring-2") is not None
        assert l1.merge.join_round("ring-2") > 0

    def test_add_ring_requires_carrier_for_spliced_learners(self, world):
        from repro.errors import CoordinationError

        deployment = self._single_ring_deployment(world)
        world.start()
        world.run(until=0.2)
        controller = ReconfigController(world, deployment)
        with pytest.raises(CoordinationError):
            controller.add_ring(
                RingSpec(
                    group="ring-2",
                    members=["b1", "L1"],
                    acceptors=["b1"],
                    proposers=["b1"],
                    learners=["L1"],
                )
            )

    def test_brand_new_learners_need_no_splice(self, world):
        deployment = self._single_ring_deployment(world)
        world.start()
        world.run(until=0.2)
        controller = ReconfigController(world, deployment)
        controller.add_ring(
            RingSpec(
                group="ring-2",
                members=["b1", "b2", "b3", "L9"],
                acceptors=["b1", "b2", "b3"],
                proposers=["b1", "b2", "b3"],
                learners=["L9"],
            )
        )
        received = []
        deployment.node("L9").on_deliver(lambda d: received.append(d.value.payload))
        deployment.multicast("ring-2", "hello", 256)
        world.run(until=1.0)
        assert received == ["hello"]


class TestPartitionMapVersioning:
    def _map(self):
        return PartitionMap.ranged(
            ["p0", "p1"], {"p0": "r0", "p1": "r0"}, bounds=["m"]
        )

    def test_split_moves_upper_range_to_new_partition(self):
        pmap = self._map()
        split = pmap.split_partition("p0", "g", "p2", "r1")
        assert split.version == pmap.version + 1
        assert split.partitions == ("p0", "p2", "p1")
        assert split.partition_of("apple") == "p0"
        assert split.partition_of("goat") == "p2"
        assert split.partition_of("zebra") == "p1"
        assert split.group_of_partition("p2") == "r1"
        # The original map is untouched (it is the previous epoch).
        assert pmap.partition_of("goat") == "p0"

    def test_split_validates_scheme_key_and_name(self):
        pmap = self._map()
        with pytest.raises(PartitioningError):
            pmap.split_partition("p0", "z", "p2", "r1")  # outside p0's range
        with pytest.raises(PartitioningError):
            pmap.split_partition("p0", "g", "p1", "r1")  # name collision
        hashed = PartitionMap.hashed(["p0"], {"p0": "r0"})
        with pytest.raises(PartitioningError):
            hashed.split_partition("p0", "g", "p2", "r1")

    def test_partition_range(self):
        pmap = self._map()
        assert pmap.partition_range("p0") == ("", "m")
        assert pmap.partition_range("p1") == ("m", None)


class TestElasticStore:
    def _store(self, world, **overrides):
        params = dict(
            partitions=2,
            rings=1,
            replicas_per_partition=2,
            acceptors_per_partition=3,
            use_global_ring=False,
            scheme="range",
            key_space=200,
            config=MultiRingConfig.datacenter(),
        )
        params.update(overrides)
        return MRPStore(world, **params)

    def test_partitions_share_one_ring_and_filter_by_ownership(self, world):
        store = self._store(world)
        assert store.partitions["p0"].group == store.partitions["p1"].group == "ring-g0"
        store.load(200, value_size=64)
        totals = [len(store.partitions[p].replicas[0].state_machine) for p in ("p0", "p1")]
        assert sum(totals) == 200
        assert all(count > 0 for count in totals)

    def test_live_scale_out_migrates_and_keeps_replicas_consistent(self, world):
        store = self._store(world)
        store.load(200, value_size=64)
        world.run(until=0.5)
        controller = ReconfigController(world, store.deployment)
        scale_out(
            store,
            controller,
            new_group="ring-g1",
            splits=[("p0", "p2", store.key(50)), ("p1", "p3", store.key(150))],
        )
        world.run(until=2.0)
        assert migrations_installed(store, ["p2", "p3"])
        final_map = store.current_map
        assert final_map.version == 2
        assert sorted(store.partitions) == ["p0", "p1", "p2", "p3"]
        # Every loaded key lives exactly on its final owner, on all replicas.
        for index in range(200):
            key = store.key(index)
            owner = final_map.partition_of(key)
            for partition, info in store.partitions.items():
                for replica in info.replicas:
                    assert replica.state_machine.contains(key) == (partition == owner)

    def test_stale_epoch_command_is_forwarded_to_the_new_owner(self, world):
        store = self._store(world)
        store.load(200, value_size=64)
        world.run(until=0.5)
        old_map = store.current_map
        controller = ReconfigController(world, store.deployment)
        scale_out(store, controller, "ring-g1", [("p0", "p2", store.key(50))])
        world.run(until=2.0)
        assert migrations_installed(store, ["p2"])

        # A client that never refreshed its map submits a write for a moved
        # key through the old ring's front-end.
        key = store.key(60)
        assert old_map.partition_of(key) == "p0"
        assert store.current_map.partition_of(key) == "p2"
        command = Command.create(
            client="stale-client", operation=("update", key, 99), size_bytes=64, created_at=world.now
        )
        acks = []

        from repro.runtime.actor import Process

        class _Client(Process):
            def on_message(self, sender, payload):
                acks.append(payload)

        client = _Client(world, "stale-client")
        frontend_node = store.partitions["p0"].acceptors[0]
        client.send(frontend_node, SubmitCommand(group=old_map.group_of_key(key), command=command))
        world.run(until=3.0)
        assert acks, "the forwarded command must be answered by the new owner"
        assert acks[0].partition == "p2"
        for replica in store.partitions["p2"].replicas:
            assert replica.state_machine.value_size_of(key) == 99

    def test_partition_map_version_survives_checkpoint_and_recovery(self, world):
        from repro.config import RecoveryConfig

        store = self._store(
            world,
            enable_recovery=True,
            recovery_config=RecoveryConfig(
                checkpoint_interval=0.5, trim_interval=1.0, max_replay_instances=0
            ),
        )
        store.load(200, value_size=64)
        world.run(until=0.5)
        controller = ReconfigController(world, store.deployment)
        scale_out(store, controller, "ring-g1", [("p0", "p2", store.key(50))])
        world.run(until=2.5)
        assert migrations_installed(store, ["p2"])

        victim = store.partitions["p2"].replicas[0]
        peer = store.partitions["p2"].replicas[1]
        assert victim.state_machine.partition_map.version == 1
        victim.crash()
        world.run(until=3.0)
        victim.recover()
        world.run(until=4.5)
        assert victim.recovery.recoveries_completed == 1
        assert victim.state_machine.partition_map.version == 1
        assert victim.state_machine._entries == peer.state_machine._entries


class TestAcceptanceScenario:
    def test_live_scale_out_under_ycsb_load_loses_nothing(self):
        from repro.bench.reconfig import run_reconfig

        result = run_reconfig(
            duration=6.0,
            reconfig_at=2.0,
            settle=1.5,
            record_count=240,
            client_threads=4,
            client_machines=1,
            writer_interval=0.01,
        )
        assert result["consistency"]["consistent"]
        assert result["lost_writes"] == []
        assert result["events"]["migrations installed everywhere"]
        assert result["events"]["acked tracked writes"] > 100
        assert result["partitions"] == ["p0", "p1", "p2", "p3"]
        assert result["phases"]["throughput before (ops/s)"] > 0
        assert result["phases"]["throughput during (ops/s)"] > 0
        assert result["phases"]["throughput after (ops/s)"] > 0
