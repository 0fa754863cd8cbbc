"""Tests for the storage/CPU models and the measurement infrastructure."""

import pytest

from repro.runtime.cpu import CPU, CPUConfig
from repro.sim.disk import (
    Disk,
    DiskConfig,
    HDD_CONFIG,
    SSD_CONFIG,
    StorageMode,
    disk_for_mode,
)
from repro.sim.engine import Simulator
from repro.obs.stats import LatencyStats, ThroughputTimeline, percentile
from repro.sim.monitor import Monitor


class TestDisk:
    def test_sync_write_takes_at_least_op_latency(self):
        sim = Simulator()
        disk = Disk(sim, HDD_CONFIG)
        done = disk.write(1024)
        assert done >= HDD_CONFIG.op_latency

    def test_ssd_sync_write_faster_than_hdd(self):
        sim = Simulator()
        hdd_done = Disk(sim, HDD_CONFIG).write(4096)
        ssd_done = Disk(sim, SSD_CONFIG).write(4096)
        assert ssd_done < hdd_done

    def test_writes_serialize_on_the_device(self):
        sim = Simulator()
        disk = Disk(sim, SSD_CONFIG)
        first = disk.write(1024)
        second = disk.write(1024)
        assert second >= first + SSD_CONFIG.op_latency

    def test_async_write_accepts_immediately_when_buffer_has_room(self):
        sim = Simulator()
        disk = Disk(sim, HDD_CONFIG)
        accept = disk.write_async(1024)
        assert accept == sim.now

    def test_async_write_applies_backpressure_when_buffer_full(self):
        sim = Simulator()
        config = DiskConfig(
            op_latency=1e-3,
            bandwidth_bytes_per_sec=1e6,
            async_op_latency=1e-6,
            writeback_buffer_bytes=10_000,
        )
        disk = Disk(sim, config)
        disk.write_async(9_000)
        accept = disk.write_async(9_000)
        assert accept > sim.now

    def test_async_callback_fires(self):
        sim = Simulator()
        disk = Disk(sim, SSD_CONFIG)
        fired = []
        disk.write_async(100, lambda: fired.append(sim.now))
        sim.run()
        assert fired

    def test_sync_callback_fires_at_durability_time(self):
        sim = Simulator()
        disk = Disk(sim, SSD_CONFIG)
        fired = []
        done = disk.write(100, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [done]

    def test_writeback_queue_drains(self):
        sim = Simulator()
        disk = Disk(sim, SSD_CONFIG)
        disk.write_async(5000)
        assert disk.queue_depth_bytes == 5000
        sim.run()
        assert disk.queue_depth_bytes == 0

    def test_utilization_bounded_by_one(self):
        sim = Simulator()
        disk = Disk(sim, HDD_CONFIG)
        for _ in range(100):
            disk.write(1024)
        assert disk.utilization(0.0, 0.001) == 1.0

    def test_negative_write_rejected(self):
        from repro.errors import StorageError

        sim = Simulator()
        disk = Disk(sim, HDD_CONFIG)
        with pytest.raises(StorageError):
            disk.write(-1)

    def test_disk_for_mode(self):
        sim = Simulator()
        assert disk_for_mode(sim, StorageMode.MEMORY) is None
        assert disk_for_mode(sim, StorageMode.SYNC_HDD).config.name == "hdd"
        assert disk_for_mode(sim, StorageMode.ASYNC_SSD).config.name == "ssd"

    def test_storage_mode_properties(self):
        assert StorageMode.SYNC_HDD.synchronous
        assert not StorageMode.ASYNC_SSD.synchronous
        assert not StorageMode.MEMORY.durable
        assert StorageMode.SYNC_SSD.durable
        assert StorageMode.MEMORY.label == "In Memory"


class TestCPU:
    def test_cost_scales_with_bytes(self):
        cpu = CPU(Simulator(), CPUConfig(per_message_cost=1e-6, per_byte_cost=1e-9))
        assert cpu.cost(nbytes=1000) > cpu.cost(nbytes=10)

    def test_overhead_factor_multiplies_cost(self):
        base = CPU(Simulator(), CPUConfig(overhead_factor=1.0)).cost(nbytes=1000)
        doubled = CPU(Simulator(), CPUConfig(overhead_factor=2.0)).cost(nbytes=1000)
        assert doubled == pytest.approx(2 * base)

    def test_execute_serializes_work(self):
        sim = Simulator()
        cpu = CPU(sim)
        first = cpu.execute(1e-3)
        second = cpu.execute(1e-3)
        assert second == pytest.approx(first + 1e-3)

    def test_utilization_reflects_busy_time(self):
        sim = Simulator()
        cpu = CPU(sim)
        cpu.execute(0.5)
        assert cpu.utilization(0.0, 1.0) == pytest.approx(0.5)
        assert cpu.utilization_percent(0.0, 1.0) == pytest.approx(50.0)

    def test_utilization_clamped_to_100_percent(self):
        sim = Simulator()
        cpu = CPU(sim)
        cpu.execute(10.0)
        assert cpu.utilization(0.0, 1.0) == 1.0

    def test_negative_work_treated_as_zero(self):
        sim = Simulator()
        cpu = CPU(sim)
        assert cpu.execute(-1.0) == sim.now


class TestLatencyStats:
    def test_empty_samples(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_basic_statistics(self):
        stats = LatencyStats.from_samples([0.001, 0.002, 0.003, 0.004])
        assert stats.count == 4
        assert stats.mean == pytest.approx(0.0025)
        assert stats.minimum == 0.001
        assert stats.maximum == 0.004
        assert stats.p50 == pytest.approx(0.0025)

    def test_percentile_interpolation(self):
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0
        assert percentile([1.0, 3.0], 0.5) == 2.0
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0

    def test_as_millis(self):
        stats = LatencyStats.from_samples([0.010])
        assert stats.as_millis()["mean_ms"] == pytest.approx(10.0)


class TestThroughputTimeline:
    def test_bucketing(self):
        timeline = ThroughputTimeline(window=1.0)
        timeline.record(0.5, 100)
        timeline.record(0.7, 100)
        timeline.record(2.3, 100)
        buckets = timeline.buckets()
        assert buckets[0] == (0.0, 2, 200)
        assert buckets[1] == (1.0, 0, 0)
        assert buckets[2] == (2.0, 1, 100)

    def test_total_counters(self):
        timeline = ThroughputTimeline(window=0.5)
        for t in (0.1, 0.2, 0.9):
            timeline.record(t, 10)
        assert timeline.total_ops() == 3
        assert timeline.total_bytes() == 30

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ThroughputTimeline(window=0.0)


class TestMonitor:
    def test_throughput_over_window(self):
        monitor = Monitor(timeline_window=1.0)
        for second in range(10):
            for _ in range(5):
                monitor.record_operation("s", completion_time=second + 0.5, latency=0.001)
        assert monitor.throughput_ops("s") == pytest.approx(5.0)
        assert monitor.throughput_ops("s", start=2.0, end=4.0) == pytest.approx(5.0)

    def test_throughput_mbps(self):
        monitor = Monitor(timeline_window=1.0)
        monitor.record_operation("s", 0.5, 0.001, size_bytes=125_000)  # 1 Mbit
        assert monitor.throughput_mbps("s", start=0.0, end=1.0) == pytest.approx(1.0)

    def test_latency_cdf_monotonic(self):
        monitor = Monitor()
        for value in [0.001, 0.005, 0.002, 0.010]:
            monitor.record_operation("s", 0.1, value)
        cdf = monitor.latency_cdf("s", points=10)
        latencies = [point[0] for point in cdf]
        assert latencies == sorted(latencies)
        assert cdf[-1][1] == 1.0

    def test_counters(self):
        monitor = Monitor()
        monitor.increment("skips", 3)
        monitor.increment("skips")
        assert monitor.counter("skips") == 4
        assert monitor.counter("missing") == 0

    def test_series_are_separate(self):
        monitor = Monitor()
        monitor.record_operation("a", 0.1, 0.001)
        monitor.record_operation("b", 0.1, 0.100)
        assert monitor.latency_stats("a").mean == pytest.approx(0.001)
        assert monitor.latency_stats("b").mean == pytest.approx(0.100)
        assert monitor.latency_stats().count == 2

    def test_empty_throughput_is_zero(self):
        assert Monitor().throughput_ops("nothing") == 0.0
