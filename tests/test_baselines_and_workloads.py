"""Tests for the baseline systems and the workload generators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.ensemble_log import EnsembleLog
from repro.baselines.eventual_store import EventualStore
from repro.baselines.single_server import SingleServerStore
from repro.errors import WorkloadError
from repro.sim.world import World
from repro.smr.client import ClosedLoopClient
from repro.workloads.distributions import (
    LatestChooser,
    UniformChooser,
    ZipfianChooser,
)
from repro.workloads.simple import AppendWorkload, UpdateWorkload
from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBConfig, YCSBWorkload


class TestDistributions:
    def test_uniform_stays_in_range(self):
        chooser = UniformChooser(100)
        rng = random.Random(1)
        assert all(0 <= chooser.next_index(rng) < 100 for _ in range(500))

    def test_zipfian_is_skewed_towards_small_indices(self):
        chooser = ZipfianChooser(1000)
        rng = random.Random(1)
        samples = [chooser.next_index(rng) for _ in range(2000)]
        assert all(0 <= index < 1000 for index in samples)
        top_ten_share = sum(1 for index in samples if index < 10) / len(samples)
        assert top_ten_share > 0.3  # heavily skewed

    def test_latest_is_skewed_towards_recent_indices(self):
        chooser = LatestChooser(1000)
        rng = random.Random(1)
        samples = [chooser.next_index(rng) for _ in range(2000)]
        recent_share = sum(1 for index in samples if index >= 990) / len(samples)
        assert recent_share > 0.3

    def test_grow_extends_the_range(self):
        chooser = ZipfianChooser(10)
        chooser.grow(100)
        assert chooser.count == 100
        uniform = UniformChooser(10)
        uniform.grow(5)
        assert uniform.count == 10

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            UniformChooser(0)
        with pytest.raises(ValueError):
            ZipfianChooser(0)


class _FakeKV:
    """Records which client-library method the YCSB generator called."""

    def __init__(self):
        self.calls = []

    def key(self, index):
        return f"user{index:012d}"

    def _request(self, op, *args, series=None):
        from repro.smr.client import Request

        self.calls.append(op)
        return Request((op,) + args, 64, "g", 1, series)

    def read(self, key, series=None):
        return self._request("read", key, series=series)

    def update(self, key, size, series=None):
        return self._request("update", key, size, series=series)

    def insert(self, key, size, series=None):
        return self._request("insert", key, size, series=series)

    def scan(self, start, end, series=None):
        return self._request("scan", start, end, series=series)

    def read_modify_write(self, key, size, series=None):
        return self._request("rmw", key, size, series=series)


class TestYCSB:
    def test_all_six_workloads_are_defined_with_valid_mixes(self):
        assert set(YCSB_WORKLOADS) == {"A", "B", "C", "D", "E", "F"}

    def test_invalid_mix_rejected(self):
        with pytest.raises(WorkloadError):
            YCSBConfig("bad", read_proportion=0.5)
        with pytest.raises(WorkloadError):
            YCSBConfig("bad", read_proportion=1.0, request_distribution="nope")

    def test_workload_c_is_read_only(self):
        service = _FakeKV()
        workload = YCSBWorkload(service, YCSB_WORKLOADS["C"].scaled(100))
        rng = random.Random(0)
        for _ in range(200):
            workload.next_request(rng)
        assert set(service.calls) == {"read"}

    def test_workload_a_mix_is_roughly_half_updates(self):
        service = _FakeKV()
        workload = YCSBWorkload(service, YCSB_WORKLOADS["A"].scaled(100))
        rng = random.Random(0)
        for _ in range(1000):
            workload.next_request(rng)
        update_share = service.calls.count("update") / len(service.calls)
        assert 0.4 < update_share < 0.6

    def test_workload_e_is_scan_heavy(self):
        service = _FakeKV()
        workload = YCSBWorkload(service, YCSB_WORKLOADS["E"].scaled(100))
        rng = random.Random(0)
        for _ in range(400):
            workload.next_request(rng)
        assert service.calls.count("scan") / len(service.calls) > 0.85
        assert "insert" in service.calls

    def test_workload_f_contains_rmw(self):
        service = _FakeKV()
        workload = YCSBWorkload(service, YCSB_WORKLOADS["F"].scaled(100))
        rng = random.Random(0)
        for _ in range(400):
            workload.next_request(rng)
        assert service.calls.count("rmw") > 100

    def test_inserts_grow_the_key_space(self):
        service = _FakeKV()
        workload = YCSBWorkload(service, YCSB_WORKLOADS["D"].scaled(50))
        rng = random.Random(0)
        for _ in range(500):
            workload.next_request(rng)
        assert workload._insert_cursor > 50

    def test_split_series_by_operation(self):
        service = _FakeKV()
        workload = YCSBWorkload(service, YCSB_WORKLOADS["F"].scaled(50), series="f")
        workload.split_series_by_operation = True
        rng = random.Random(0)
        series = {workload.next_request(rng).series for _ in range(100)}
        assert series <= {"f/read", "f/update", "f/read-modify-write"}
        assert len(series) >= 2

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_requests_always_reference_existing_or_new_keys(self, seed):
        service = _FakeKV()
        workload = YCSBWorkload(service, YCSB_WORKLOADS["D"].scaled(20))
        rng = random.Random(seed)
        for _ in range(50):
            request = workload.next_request(rng)
            assert request.size_bytes > 0
            assert request.expected_responses >= 1


class TestSimpleWorkloads:
    def test_append_workload_round_robins_over_logs(self):
        class _FakeDLog:
            def __init__(self):
                self.calls = []

            def append(self, log, size, series=None):
                from repro.smr.client import Request

                self.calls.append(log)
                return Request(("append", log, size), size, f"ring-{log}", 1, series)

            def multi_append(self, logs, size, series=None):
                from repro.smr.client import Request

                self.calls.append(tuple(logs))
                return Request(("multi-append", tuple(logs), size), size, "global", 1, series)

        dlog = _FakeDLog()
        workload = AppendWorkload(dlog, logs=["a", "b"], append_size=10)
        rng = random.Random(0)
        for _ in range(4):
            workload.next_request(rng)
        assert dlog.calls == ["a", "b", "a", "b"]

    def test_empty_workloads_rejected(self):
        with pytest.raises(WorkloadError):
            AppendWorkload(None, logs=[])
        with pytest.raises(WorkloadError):
            UpdateWorkload(None, key_indices=[])


class TestBaselines:
    def test_eventual_store_serves_ycsb_and_replicates_asynchronously(self, world):
        store = EventualStore(world, partitions=2, replication_factor=2)
        store.load(50, value_size=100)
        workload = YCSBWorkload(store, YCSB_WORKLOADS["A"].scaled(50), series="cass")
        client = ClosedLoopClient(
            world, "client", workload, store.frontends_for_client(0), threads=4, series="cass"
        )
        world.run(until=3.0)
        assert client.completed > 100
        # Asynchronous replication eventually applies writes on the peer replica.
        any_partition = store.replicas["c0"]
        assert any_partition[1].state.operations > 0

    def test_eventual_store_scan_fans_out_to_all_partitions(self, world):
        store = EventualStore(world, partitions=3, replication_factor=1)
        store.load(30, value_size=50)
        workload_calls = [store.scan(store.key(0), store.key(29), series="scan")]

        class _One:
            def next_request(self, rng):
                return workload_calls[0]

        client = ClosedLoopClient(
            world, "client", _One(), store.frontends_for_client(0), threads=1, series="scan"
        )
        world.run(until=2.0)
        assert client.completed >= 1

    def test_single_server_store_processes_all_operation_types(self, world):
        store = SingleServerStore(world)
        store.load(20, value_size=100)
        workload = YCSBWorkload(store, YCSB_WORKLOADS["F"].scaled(20), series="sql")
        client = ClosedLoopClient(
            world, "client", workload, store.frontends_for_client(0), threads=4, series="sql"
        )
        world.run(until=3.0)
        assert client.completed > 20
        # Every completed request was processed by the single server; a few
        # requests may still be in flight when the run stops.
        assert store.server.commands >= client.completed
        assert client.issued - store.server.commands <= 4

    def test_single_server_writes_are_slower_than_reads(self, world):
        store = SingleServerStore(world)
        store.load(10, value_size=100)

        class _Reads:
            def next_request(self, rng):
                return store.read(store.key(0), series="reads")

        class _Writes:
            def next_request(self, rng):
                return store.update(store.key(0), 100, series="writes")

        ClosedLoopClient(world, "r", _Reads(), store.frontends_for_client(), threads=1, series="reads")
        ClosedLoopClient(world, "w", _Writes(), store.frontends_for_client(), threads=1, series="writes")
        world.run(until=2.0)
        reads = world.monitor.latency_stats("reads").mean
        writes = world.monitor.latency_stats("writes").mean
        assert writes > reads

    def test_ensemble_log_appends_complete_after_quorum_ack(self, world):
        bookkeeper = EnsembleLog(world, bookies=3, ack_quorum=2, flush_interval=0.02)

        class _Appends:
            def next_request(self, rng):
                return bookkeeper.append("ledger", 1024, series="bk")

        client = ClosedLoopClient(
            world, "client", _Appends(), bookkeeper.frontends_for_client(0), threads=8, series="bk"
        )
        world.run(until=3.0)
        assert client.completed > 10
        assert bookkeeper.gateway.appends_completed == client.completed
        # Batching adds latency: appends should take at least a flush interval.
        assert world.monitor.latency_stats("bk").mean >= 0.01

    def test_ensemble_log_rejects_impossible_quorum(self, world):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            EnsembleLog(world, bookies=2, ack_quorum=3)
