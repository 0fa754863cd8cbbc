"""Tests for checkpointing, trimming and replica recovery (Section 5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MultiRingConfig, RecoveryConfig
from repro.errors import ConfigurationError, RecoveryError
from repro.recovery.checkpoint import (
    Checkpoint,
    CheckpointStore,
    cursor_is_monotonic,
    cursor_leq,
    cursor_max,
)
from repro.services.mrpstore import MRPStore
from repro.sim.disk import SSD_CONFIG, Disk, StorageMode
from repro.sim.engine import Simulator
from repro.sim.topology import lan_topology
from repro.sim.world import World
from repro.smr.client import ClosedLoopClient
from repro.workloads.simple import UpdateWorkload


class TestCursorPredicates:
    def test_cursor_leq_componentwise(self):
        assert cursor_leq({"g1": 1}, {"g1": 2})
        assert cursor_leq({"g1": 2}, {"g1": 2})
        assert not cursor_leq({"g1": 3}, {"g1": 2})
        assert cursor_leq({}, {"g1": 5})
        assert not cursor_leq({"g1": 1}, {})

    def test_cursor_max_of_totally_ordered_set(self):
        cursors = [{"g1": 2, "g2": 1}, {"g1": 5, "g2": 4}, {"g1": 3, "g2": 3}]
        assert cursor_max(cursors) == {"g1": 5, "g2": 4}

    def test_cursor_max_rejects_empty_input(self):
        with pytest.raises(RecoveryError):
            cursor_max([])

    def test_cursor_is_monotonic_checks_group_order(self):
        assert cursor_is_monotonic({"g1": 5, "g2": 5})
        assert cursor_is_monotonic({"g1": 5, "g2": 4})
        assert not cursor_is_monotonic({"g1": 4, "g2": 6})

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 50)), min_size=2, max_size=6
        )
    )
    def test_predicates_2_through_5_on_random_quorums(self, values):
        """K_T <= k_r <= K_R whenever the trim and recovery quorums intersect."""
        cursors = [{"g1": a + b, "g2": a} for a, b in values]  # Predicate-1 shaped
        half = len(cursors) // 2 + 1
        trim_quorum = cursors[:half]
        recovery_quorum = cursors[-half:]
        # The two quorums intersect (both contain the middle element).
        k_t = {g: min(c[g] for c in trim_quorum) for g in ("g1", "g2")}
        k_r = cursor_max(recovery_quorum)
        shared = [c for c in trim_quorum if c in recovery_quorum]
        assert shared, "quorums of size majority must intersect"
        assert cursor_leq(k_t, shared[0])
        assert cursor_leq(shared[0], k_r)
        assert cursor_leq(k_t, k_r)  # Predicate 5


class TestCheckpointStore:
    def _store(self, disk=None, synchronous=True):
        sim = Simulator()
        return sim, CheckpointStore(sim, disk=disk, synchronous=synchronous)

    def test_write_and_latest_durable(self):
        sim, store = self._store()
        checkpoint = Checkpoint.create("r1", {"g1": 3}, state={"k": 1}, state_size_bytes=100, taken_at=0.0)
        store.write(checkpoint)
        assert store.latest is checkpoint
        assert store.latest_durable is checkpoint
        assert store.safe_instance("g1") == 3
        assert store.safe_instance("other") == 0

    def test_safe_instance_without_checkpoint_is_zero(self):
        _sim, store = self._store()
        assert store.safe_instance("g1") == 0

    def test_durability_waits_for_disk_with_sync_writes(self):
        sim = Simulator()
        store = CheckpointStore(sim, disk=Disk(sim, SSD_CONFIG), synchronous=True)
        checkpoint = Checkpoint.create("r1", {"g1": 1}, None, 10_000_000, 0.0)
        store.write(checkpoint)
        assert store.latest_durable is None  # not yet durable
        sim.run()
        assert store.latest_durable is checkpoint

    def test_out_of_order_checkpoint_rejected(self):
        _sim, store = self._store()
        store.write(Checkpoint.create("r1", {"g1": 5}, None, 10, 0.0))
        with pytest.raises(RecoveryError):
            store.write(Checkpoint.create("r1", {"g1": 3}, None, 10, 1.0))

    def test_bytes_written_accumulate(self):
        _sim, store = self._store()
        store.write(Checkpoint.create("r1", {"g1": 1}, None, 500, 0.0))
        store.write(Checkpoint.create("r1", {"g1": 2}, None, 700, 1.0))
        assert store.checkpoints_written == 2
        assert store.bytes_written == 1200


class TestRecoveryConfig:
    def test_quorum_sizes(self):
        config = RecoveryConfig()
        assert config.trim_quorum_size(3) == 2
        assert config.recovery_quorum_size(3) == 2
        assert config.trim_quorum_size(1) == 1
        assert config.quorum_size(4, 0.51) == 3

    def test_non_intersecting_quorums_rejected(self):
        with pytest.raises(ConfigurationError):
            RecoveryConfig(trim_quorum_fraction=0.3, recovery_quorum_fraction=0.3)

    def test_invalid_intervals_rejected(self):
        with pytest.raises(ConfigurationError):
            RecoveryConfig(checkpoint_interval=0.0)


def _build_recovering_store(world, checkpoint_interval=1.0, trim_interval=2.0):
    recovery_config = RecoveryConfig(
        checkpoint_interval=checkpoint_interval,
        trim_interval=trim_interval,
        synchronous_checkpoints=True,
        max_replay_instances=10,
    )
    store = MRPStore(
        world,
        partitions=1,
        replicas_per_partition=3,
        acceptors_per_partition=3,
        use_global_ring=False,
        storage_mode=StorageMode.ASYNC_SSD,
        config=MultiRingConfig.datacenter(),
        recovery_config=recovery_config,
        enable_recovery=True,
        key_space=100,
    )
    store.load(100, value_size=256)
    return store


@pytest.fixture(scope="module")
def crash_and_recovery():
    """One 1x3 recovering store, one timeline; the tests below read what it recorded.

    Checkpoints every 0.5 s and trims every 1 s under a 4-thread update
    stream; the third replica crashes at 2 s and recovers at 6 s; the client
    stops at 9 s so that in-flight commands drain before states are compared.
    """
    from types import SimpleNamespace

    world = World(topology=lan_topology(), seed=123, timeline_window=0.5)
    store = _build_recovering_store(world, checkpoint_interval=0.5, trim_interval=1.0)
    workload = UpdateWorkload(store, list(range(100)), value_size=256, series="rec")
    client = ClosedLoopClient(
        world, "c0", workload, store.frontends_for_client(0), threads=4, series="rec"
    )
    survivor, _, victim = store.replicas_of("p0")
    seen = SimpleNamespace(world=world, store=store, victim=victim, survivor=survivor)

    world.run(until=2.0)
    seen.entries_before_crash = len(victim.state_machine)
    victim.crash()
    seen.entries_after_crash = len(victim.state_machine)
    world.run(until=5.0)
    seen.checkpoints_by_5s = [
        (replica.recovery.checkpoints_taken, replica.recovery.store.latest_durable)
        for replica in store.all_replicas()
    ]
    world.run(until=6.0)
    partition = store.partitions["p0"]
    storage = store.deployment.node(partition.acceptors[0]).role(partition.group).storage
    seen.trimmed_up_to_by_6s = storage.trimmed_up_to
    seen.executed_before_recovery = victim.commands_executed
    victim.recover()
    world.run(until=9.0)
    client.crash()
    world.run(until=10.0)
    return seen


class TestEndToEndRecovery:
    def test_checkpoints_are_taken_periodically(self, crash_and_recovery):
        for checkpoints_taken, latest_durable in crash_and_recovery.checkpoints_by_5s:
            assert checkpoints_taken >= 3
            assert latest_durable is not None

    def test_trim_protocol_trims_acceptor_logs(self, crash_and_recovery):
        assert crash_and_recovery.trimmed_up_to_by_6s is not None
        assert crash_and_recovery.trimmed_up_to_by_6s > 0

    def test_replica_recovers_state_after_crash(self, crash_and_recovery):
        victim, survivor = crash_and_recovery.victim, crash_and_recovery.survivor
        assert victim.recovery.recoveries_completed == 1
        assert not victim.recovery.recovering
        # After recovery and continued traffic, the recovered replica's state
        # machine must match an operational replica of the same partition.
        assert victim.state_machine._entries == survivor.state_machine._entries
        assert victim.commands_executed > 0

    def test_recovered_replica_answers_clients_again(self, crash_and_recovery):
        executed_before = crash_and_recovery.executed_before_recovery
        assert crash_and_recovery.victim.commands_executed > executed_before

    def test_crash_clears_volatile_state_until_recovery(self, crash_and_recovery):
        assert crash_and_recovery.entries_before_crash > 0
        assert crash_and_recovery.entries_after_crash == 0

    def test_monitor_records_recovery_events(self, crash_and_recovery):
        monitor = crash_and_recovery.world.monitor
        assert monitor.counter("recovery/started") == 1
        assert monitor.counter("recovery/completed") == 1
        assert monitor.counter("recovery/checkpoints_durable") > 0
