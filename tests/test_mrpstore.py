"""Tests for MRP-Store: partitioning, the state machine, and the full service."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MultiRingConfig
from repro.errors import PartitioningError, ServiceError
from repro.scenarios.invariants import replica_digest
from repro.services.mrpstore import MRPStore, MRPStoreStateMachine, PartitionMap
from repro.sim.world import World
from repro.smr.client import ClosedLoopClient, Request
from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBWorkload


class TestPartitionMap:
    def _hash_map(self, partitions=3, global_group="g"):
        names = [f"p{i}" for i in range(partitions)]
        return PartitionMap.hashed(names, {n: f"ring-{n}" for n in names}, global_group)

    def test_hash_partitioning_is_deterministic_and_covers_all_partitions(self):
        pmap = self._hash_map()
        keys = [f"user{i:012d}" for i in range(200)]
        assignments = {key: pmap.partition_of(key) for key in keys}
        assert assignments == {key: pmap.partition_of(key) for key in keys}
        assert set(assignments.values()) == {"p0", "p1", "p2"}

    def test_group_of_key_follows_partition(self):
        pmap = self._hash_map()
        key = "user000000000007"
        assert pmap.group_of_key(key) == f"ring-{pmap.partition_of(key)}"

    def test_range_partitioning_respects_bounds(self):
        pmap = PartitionMap.ranged(
            ["p0", "p1", "p2"],
            {"p0": "r0", "p1": "r1", "p2": "r2"},
            bounds=["g", "p"],
        )
        assert pmap.partition_of("apple") == "p0"
        assert pmap.partition_of("grape") == "p1"
        assert pmap.partition_of("zebra") == "p2"

    def test_range_scan_targets_only_overlapping_partitions(self):
        pmap = PartitionMap.ranged(
            ["p0", "p1", "p2"],
            {"p0": "r0", "p1": "r1", "p2": "r2"},
            bounds=["g", "p"],
        )
        assert pmap.partitions_for_scan("a", "b") == ["p0"]
        assert pmap.partitions_for_scan("h", "q") == ["p1", "p2"]
        assert pmap.partitions_for_scan("a", "z") == ["p0", "p1", "p2"]

    def test_hash_scan_targets_every_partition(self):
        pmap = self._hash_map()
        assert pmap.partitions_for_scan("a", "b") == ["p0", "p1", "p2"]

    def test_scan_group_with_and_without_global_ring(self):
        with_global = self._hash_map(global_group="global")
        group, expected = with_global.scan_group("a", "z")
        assert group == "global" and expected == 3
        without_global = PartitionMap.hashed(["p0"], {"p0": "r0"})
        group, expected = without_global.scan_group("a", "z")
        assert group == "r0" and expected == 1

    def test_validation_errors(self):
        with pytest.raises(PartitioningError):
            PartitionMap.hashed([], {})
        with pytest.raises(PartitioningError):
            PartitionMap.hashed(["p0"], {})
        with pytest.raises(PartitioningError):
            PartitionMap.ranged(["p0", "p1"], {"p0": "r0", "p1": "r1"}, bounds=[])

    @settings(max_examples=50, deadline=None)
    @given(key=st.text(min_size=1, max_size=20))
    def test_every_key_maps_to_exactly_one_partition(self, key):
        pmap = self._hash_map()
        partition = pmap.partition_of(key)
        assert partition in pmap.partitions
        assert sum(1 for p in pmap.partitions if pmap.owns(p, key)) == 1


class TestMRPStoreStateMachine:
    def _machine(self):
        pmap = PartitionMap.hashed(["p0"], {"p0": "r0"})
        return MRPStoreStateMachine("p0", pmap)

    def test_insert_read_update_delete_cycle(self):
        machine = self._machine()
        assert machine.execute(("insert", "k1", 100), "r0")[0] == ("ok", "k1", 1)
        assert machine.execute(("read", "k1"), "r0")[0] == ("value", "k1", 1)
        assert machine.execute(("update", "k1", 200), "r0")[0] == ("ok", "k1", 2)
        assert machine.version_of("k1") == 2
        assert machine.value_size_of("k1") == 200
        assert machine.execute(("delete", "k1"), "r0")[0] == ("ok", "k1", 0)
        assert machine.execute(("read", "k1"), "r0")[0] == ("miss", "k1")

    def test_update_of_missing_key_is_a_miss(self):
        machine = self._machine()
        assert machine.execute(("update", "nope", 10), "r0")[0] == ("miss", "nope")

    def test_rmw_bumps_version_once(self):
        machine = self._machine()
        machine.execute(("insert", "k", 10), "r0")
        machine.execute(("rmw", "k", 20), "r0")
        assert machine.version_of("k") == 2

    def test_scan_counts_keys_in_range_and_result_size_reflects_data(self):
        machine = self._machine()
        for index in range(10):
            machine.execute(("insert", f"k{index:02d}", 100), "r0")
        result, size = machine.execute(("scan", "k02", "k05"), "r0")
        assert result == ("scan", "p0", 4)
        assert size == 400

    def test_snapshot_and_install_round_trip(self):
        machine = self._machine()
        for index in range(5):
            machine.execute(("insert", f"k{index}", 50), "r0")
        state, size = machine.snapshot()
        assert size > 0
        other = self._machine()
        other.install(state)
        assert other.keys() == machine.keys()
        other.install(None)
        assert len(other) == 0

    def test_non_owner_partition_stays_silent(self):
        pmap = PartitionMap.hashed(["p0", "p1"], {"p0": "r0", "p1": "r1"}, "global")
        key = "user000000000001"
        owner = pmap.partition_of(key)
        other = "p0" if owner == "p1" else "p1"
        machine = MRPStoreStateMachine(other, pmap)
        result, _size = machine.execute(("read", key), "global")
        assert result is None

    def test_malformed_operation_rejected(self):
        machine = self._machine()
        with pytest.raises(ServiceError):
            machine.execute(("fly-to-the-moon", "k"), "r0")
        with pytest.raises(ServiceError):
            machine.execute("not-a-tuple", "r0")


def _run_store(world, store, requests, threads=4, until=4.0, series="kv"):
    class _Workload:
        def __init__(self):
            self._queue = list(requests)

        def next_request(self, rng):
            if self._queue:
                return self._queue.pop(0)
            return store.read(store.key(0), series=series)

    client = ClosedLoopClient(
        world, "client", _Workload(), store.frontends_for_client(0), threads=threads, series=series
    )
    world.run(until=until)
    return client


class TestMRPStoreService:
    def test_operations_reach_the_owning_partition_and_replicas_agree(self, world):
        store = MRPStore(world, partitions=2, replicas_per_partition=2, use_global_ring=True)
        store.load(50, value_size=100)
        requests = [store.update(store.key(i), 300, series="kv") for i in range(20)]
        client = _run_store(world, store, requests)
        assert client.completed >= 20
        for partition in ("p0", "p1"):
            replicas = store.replicas_of(partition)
            assert replicas[0].state_machine._entries == replicas[1].state_machine._entries

    def test_scan_with_global_ring_waits_for_all_partitions(self, world):
        store = MRPStore(world, partitions=3, replicas_per_partition=1, use_global_ring=True)
        store.load(30, value_size=100)
        request = store.scan(store.key(0), store.key(29), series="scan")
        assert request.group == MRPStore.GLOBAL_GROUP
        assert request.expected_responses == 3
        client = _run_store(world, store, [request], threads=1, until=3.0, series="scan")
        assert client.completed >= 1

    def test_independent_rings_have_no_global_group(self, world):
        store = MRPStore(world, partitions=3, replicas_per_partition=1, use_global_ring=False)
        assert MRPStore.GLOBAL_GROUP not in store.groups()
        request = store.scan(store.key(0), store.key(10))
        assert request.expected_responses == 1

    def test_load_populates_only_owning_partition(self, world):
        store = MRPStore(world, partitions=2, replicas_per_partition=1, use_global_ring=False)
        store.load(40, value_size=64)
        totals = [len(store.replicas_of(p)[0].state_machine) for p in ("p0", "p1")]
        assert sum(totals) == 40
        assert all(count > 0 for count in totals)

    @settings(max_examples=30, deadline=None)
    @given(
        scheme=st.sampled_from(["hash", "range"]),
        partitions=st.integers(min_value=1, max_value=4),
        key_space=st.integers(min_value=1, max_value=400),
        loads=st.lists(
            st.tuples(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=4096)),
            min_size=1,
            max_size=2,
        ),
    )
    def test_load_equals_inserting_record_by_record(self, scheme, partitions, key_space, loads):
        """A bulk load leaves every replica as one ``insert`` per record would.

        The reference hands every record to every replica through ``execute``,
        which keeps what its partition owns; a second load over keys already
        present bumps their versions.  The bulk load routes each key once.
        """

        def store() -> MRPStore:
            return MRPStore(
                World(seed=1), partitions=partitions, replicas_per_partition=2,
                use_global_ring=False, scheme=scheme, key_space=key_space,
            )  # fmt: skip

        bulk, reference = store(), store()
        for record_count, value_size in loads:
            routing = PartitionMap.partition_of
            with mock.patch.object(PartitionMap, "partition_of", autospec=True, side_effect=routing) as routed:
                bulk.load(record_count, value_size)
            assert routed.call_count == record_count
            for index in range(record_count):
                for name in reference.partitions:
                    for replica in reference.replicas_of(name):
                        replica.state_machine.execute(("insert", reference.key(index), value_size), "load")
        for name in reference.partitions:
            for got, want in zip(bulk.replicas_of(name), reference.replicas_of(name)):
                got, want = got.state_machine, want.state_machine
                assert list(got._entries.items()) == list(want._entries.items())
                assert got._keys == want._keys
            assert [replica_digest(r) for r in bulk.replicas_of(name)] == [
                replica_digest(r) for r in reference.replicas_of(name)
            ]

    def test_range_partitioned_store(self, world):
        store = MRPStore(
            world, partitions=2, replicas_per_partition=1, use_global_ring=True, scheme="range"
        )
        assert store.partition_map.scheme == "range"
        store.load(20, value_size=64)
        request = store.scan(store.key(0), store.key(5))
        assert request.group in (MRPStore.GLOBAL_GROUP,)

    def test_sequential_consistency_for_a_single_client(self, world):
        """Operations of one client are applied in issue order (version grows by one)."""
        store = MRPStore(world, partitions=1, replicas_per_partition=2, use_global_ring=False)
        store.load(1, value_size=10)
        requests = [store.update(store.key(0), 10 + i, series="seq") for i in range(10)]
        _run_store(world, store, requests, threads=1, until=5.0, series="seq")
        replica = store.replicas_of("p0")[0]
        assert replica.state_machine.version_of(store.key(0)) == 11  # initial insert + 10 updates

    def test_ycsb_workload_drives_the_store(self, world):
        store = MRPStore(world, partitions=2, replicas_per_partition=1, use_global_ring=True)
        store.load(100, value_size=100)
        workload = YCSBWorkload(store, YCSB_WORKLOADS["A"].scaled(100), series="ycsb")
        client = ClosedLoopClient(
            world, "yc", workload, store.frontends_for_client(0), threads=4, series="ycsb"
        )
        world.run(until=3.0)
        assert client.completed > 50
        assert world.monitor.throughput_ops("ycsb") > 0

    def test_unknown_partition_lookup_raises(self, world):
        store = MRPStore(world, partitions=1, replicas_per_partition=1)
        with pytest.raises(ServiceError):
            store.replicas_of("p42")
