"""Tests for ballots, acceptor records and the stable log."""

from dataclasses import replace

import pytest

from repro.config import MultiRingConfig, RingConfig
from repro.errors import StorageError
from repro.multiring.deployment import Deployment, RingSpec
from repro.paxos import storage as storage_module
from repro.paxos.storage import AcceptorStorage
from repro.paxos.types import Ballot, InstanceRecord
from repro.sim.disk import StorageMode, disk_for_mode
from repro.sim.engine import Simulator
from repro.sim.topology import lan_topology
from repro.sim.world import World
from repro.types import Value, skip_value

from conftest import SingleRing


class TestBallot:
    def test_ordering_by_number_then_coordinator(self):
        assert Ballot(1, "a") < Ballot(2, "a")
        assert Ballot(1, "a") < Ballot(1, "b")
        assert Ballot(2, "a") > Ballot(1, "z")

    def test_next_increments_number(self):
        ballot = Ballot(1, "a")
        assert ballot.next() == Ballot(2, "a")
        assert ballot.next("b") == Ballot(2, "b")

    def test_zero_is_smallest(self):
        assert Ballot.zero() < Ballot(1, "")
        assert Ballot.zero() < Ballot(0, "a")


class TestInstanceRecord:
    def test_promise_then_accept(self):
        record = InstanceRecord(0)
        ballot = Ballot(1, "c")
        assert record.can_promise(ballot)
        record.promise(ballot)
        assert record.promised == ballot
        assert record.can_accept(ballot)
        record.accept(ballot, Value.create("v", 10))
        assert record.accepted_ballot == ballot

    def test_cannot_promise_lower_ballot(self):
        record = InstanceRecord(0)
        record.promise(Ballot(5, "c"))
        assert not record.can_promise(Ballot(4, "c"))
        with pytest.raises(ValueError):
            record.promise(Ballot(4, "c"))

    def test_cannot_accept_below_promise(self):
        record = InstanceRecord(0)
        record.promise(Ballot(5, "c"))
        with pytest.raises(ValueError):
            record.accept(Ballot(4, "c"), Value.create("v", 10))

    def test_accept_raises_promise_level(self):
        record = InstanceRecord(0)
        record.accept(Ballot(3, "c"), Value.create("v", 10))
        assert record.promised == Ballot(3, "c")


class TestAcceptorStorage:
    def _storage(self, mode=StorageMode.MEMORY):
        return AcceptorStorage(Simulator(), mode=mode)

    def test_log_vote_and_read_back(self):
        storage = self._storage()
        value = Value.create("v", 100)
        storage.log_vote(3, Ballot(1, "c"), value)
        assert storage.accepted_value(3) is value
        assert storage.read_range(0, 10) == [(3, value)]
        assert len(storage) == 1

    def test_read_range_returns_only_existing_votes(self):
        storage = self._storage()
        for instance in (1, 2, 5):
            storage.log_vote(instance, Ballot(1, "c"), Value.create(f"v{instance}", 10))
        entries = storage.read_range(0, 10)
        assert [instance for instance, _ in entries] == [1, 2, 5]

    def test_log_votes_range_records_every_instance(self):
        storage = self._storage()
        storage.log_votes_range(10, 5, Ballot(1, "c"), skip_value())
        assert [i for i, _ in storage.read_range(0, 99)] == [10, 11, 12, 13, 14]

    def test_trim_removes_instances_and_blocks_reads(self):
        storage = self._storage()
        for instance in range(6):
            storage.log_vote(instance, Ballot(1, "c"), Value.create("v", 10))
        removed = storage.trim(3)
        assert removed == 4
        assert storage.trimmed_up_to == 3
        assert storage.is_trimmed(2)
        with pytest.raises(StorageError):
            storage.accepted_value(2)
        with pytest.raises(StorageError):
            storage.read_range(0, 5)
        # Instances above the trim point remain readable.
        assert [i for i, _ in storage.read_range(4, 5)] == [4, 5]

    def test_recording_into_trimmed_range_rejected(self):
        storage = self._storage()
        storage.log_vote(0, Ballot(1, "c"), Value.create("v", 10))
        storage.trim(0)
        with pytest.raises(StorageError):
            storage.log_vote(0, Ballot(2, "c"), Value.create("v2", 10))

    def test_sync_disk_mode_delays_callback(self):
        sim = Simulator()
        mode = StorageMode.SYNC_HDD
        storage = AcceptorStorage(sim, mode=mode, disk=disk_for_mode(sim, mode))
        times = []
        storage.log_vote(0, Ballot(1, "c"), Value.create("v", 1024), callback=lambda: times.append(sim.now))
        sim.run()
        assert times and times[0] >= 5e-3

    def test_memory_mode_callback_immediate(self):
        sim = Simulator()
        storage = AcceptorStorage(sim, mode=StorageMode.MEMORY)
        times = []
        storage.log_vote(0, Ballot(1, "c"), Value.create("v", 1024), callback=lambda: times.append(sim.now))
        sim.run()
        assert times == [0.0]

    def test_log_size_accounting(self):
        storage = self._storage()
        storage.log_vote(0, Ballot(1, "c"), Value.create("v", 1000))
        assert storage.bytes_logged >= 1000
        assert storage.writes == 1

    def test_mark_decided(self):
        storage = self._storage()
        storage.log_vote(0, Ballot(1, "c"), Value.create("v", 10))
        storage.mark_decided(0)
        assert storage.record(0).decided
        storage.mark_decided(99)  # unknown instance: no error


class TestBoundedMemoryLog:
    """MEMORY mode is the paper's ring of ``memory_slots`` pre-allocated slots."""

    SLOTS = 8

    def _storage(self, mode=StorageMode.MEMORY):
        return AcceptorStorage(Simulator(), mode=mode, memory_slots=self.SLOTS)

    @staticmethod
    def _instances(storage):
        """The instances ``storage`` holds a vote for (every one, in these tests)."""
        floor = -1 if storage.trimmed_up_to is None else storage.trimmed_up_to
        return [i for i, _ in storage.read_range(floor + 1, 10**6)]

    @staticmethod
    def _fill(storage, count, first=0):
        for instance in range(first, first + count):
            storage.log_vote(instance, Ballot(1, "c"), Value.create("v", 10))

    def test_nothing_is_evicted_up_to_exactly_memory_slots(self):
        storage = self._storage()
        self._fill(storage, self.SLOTS)
        assert len(storage) == self.SLOTS
        assert storage.trimmed_up_to is None and not storage.is_trimmed(0)
        assert [i for i, _ in storage.read_range(0, self.SLOTS - 1)] == list(range(self.SLOTS))

    def test_the_next_instance_takes_the_oldest_slot(self):
        storage = self._storage()
        self._fill(storage, self.SLOTS + 1)
        assert len(storage) == self.SLOTS
        assert self._instances(storage) == list(range(1, self.SLOTS + 1))
        assert storage.trimmed_up_to == 0 and storage.is_trimmed(0) and not storage.is_trimmed(1)

    def test_an_evicted_instance_reads_as_trimmed(self):
        storage = self._storage()
        self._fill(storage, self.SLOTS + 3)
        with pytest.raises(StorageError):
            storage.accepted_value(2)
        with pytest.raises(StorageError):
            storage.read_range(2, self.SLOTS)
        with pytest.raises(StorageError):
            storage.log_vote(2, Ballot(2, "c"), Value.create("late", 10))
        assert [i for i, _ in storage.read_range(3, 100)] == list(range(3, self.SLOTS + 3))
        storage.mark_decided(1)  # a decision for an evicted instance is ignored
        storage.note_decided(1, Ballot(1, "c"), Value.create("late", 10))
        assert len(storage) == self.SLOTS

    def test_skip_ranges_evict_one_slot_per_instance(self):
        storage = self._storage()
        self._fill(storage, 5)
        storage.log_votes_range(5, 20, Ballot(1, "c"), skip_value())
        assert self._instances(storage) == list(range(25 - self.SLOTS, 25))
        assert storage.trimmed_up_to == 24 - self.SLOTS
        assert storage.writes == 6  # the range is still one persisted record

    def test_decisions_passing_by_take_slots_too(self):
        storage = self._storage()
        for instance in range(self.SLOTS + 4):
            storage.note_decided(instance, Ballot(1, "c"), Value.create("v", 10))
        assert self._instances(storage) == list(range(4, self.SLOTS + 4))
        decided = storage.read_range(4, 100, decided_only=True)
        assert [i for i, _ in decided] == list(range(4, self.SLOTS + 4))

    def test_a_jump_in_the_sequence_leaves_nothing_below_the_floor(self):
        storage = self._storage()
        self._fill(storage, 5)
        self._fill(storage, self.SLOTS, first=1000)
        assert self._instances(storage) == list(range(1000, 1000 + self.SLOTS))

    def test_explicit_trim_and_eviction_compose(self):
        storage = self._storage()
        self._fill(storage, self.SLOTS)
        storage.trim(5)
        assert storage.trimmed_up_to == 5
        self._fill(storage, 2, first=self.SLOTS)  # evicts 0 and 1: already gone
        assert storage.trimmed_up_to == 5
        assert self._instances(storage) == [6, 7, 8, 9]

    @pytest.mark.parametrize("mode", [StorageMode.ASYNC_SSD, StorageMode.SYNC_SSD])
    def test_disk_backed_modes_never_evict(self, mode):
        sim = Simulator()
        storage = AcceptorStorage(
            sim, mode=mode, disk=disk_for_mode(sim, mode), memory_slots=self.SLOTS
        )
        self._fill(storage, 5 * self.SLOTS)
        assert len(storage) == 5 * self.SLOTS and storage.trimmed_up_to is None
        assert storage.accepted_value(0) is not None

    def test_a_log_needs_at_least_one_slot(self):
        with pytest.raises(StorageError):
            AcceptorStorage(Simulator(), memory_slots=0)

    @staticmethod
    def _leveled_run(memory_slots):
        """Two leveled rings on a LAN; returns the delivery trace and the acceptor logs."""
        uid_base = Value.create(None, 0).uid
        world = World(seed=7)
        config = MultiRingConfig.datacenter()
        config = replace(config, ring=replace(config.ring, memory_slots=memory_slots))
        deployment = Deployment(world, config)
        members = ["n0", "n1", "n2"]
        for group in ("ring-a", "ring-b"):
            deployment.add_ring(RingSpec(group=group, members=members))
        trace = []
        deployment.node("n2").on_deliver(
            lambda d: trace.append((d.group, d.instance, d.value.uid - uid_base, world.sim.now.hex()))
        )
        world.start()
        for index in range(40):
            world.sim.call_at(
                index * 2e-3, deployment.multicast, ("ring-a", "ring-b")[index % 2], ("op", index), 256
            )
        world.run(until=0.12)
        logs = [
            role.storage
            for name in members
            for role in deployment.node(name).roles.values()
            if role.storage is not None
        ]
        return trace, logs, world.sim.processed_events

    def test_leveled_rings_stay_within_memory_slots_with_the_same_delivery_trace(self):
        reference, reference_logs, reference_events = self._leveled_run(RingConfig().memory_slots)
        # Rate leveling skipped far past the small ring's size ...
        assert min(len(log) for log in reference_logs) > 10 * 64
        assert all(log.trimmed_up_to is None for log in reference_logs)
        bounded, logs, events = self._leveled_run(64)
        # ... every acceptor held it, and nothing any learner saw moved.
        assert len(logs) == 6
        assert all(0 < len(log) <= 64 for log in logs)
        assert all(self._instances(log)[-1] == log.trimmed_up_to + 64 for log in logs)
        assert len(bounded) >= 40 and bounded == reference and events == reference_events



class TestDecidedHistory:
    """A disk-mode acceptor keeps records only for its open instances and the
    decisions since the prefix last moved; what is decided below them is the
    history, which still serves every read."""

    def test_a_long_run_keeps_records_only_for_open_instances(self):
        world = World(topology=lan_topology(), seed=11)
        config = RingConfig(storage_mode=StorageMode.ASYNC_SSD, repair_interval=0.05)
        ring = SingleRing(
            world, ["a1", "a2", "a3", "l1"], acceptors=["a1", "a2", "a3"], proposers=["a1"],
            learners=["l1"], storage_mode=StorageMode.ASYNC_SSD, ring_config=config,
        )
        logs = [ring.hosts[name].role(SingleRing.GROUP).storage for name in ("a1", "a2", "a3")]
        before = [f"a{index}" for index in range(2100)]
        world.start()
        for index, payload in enumerate(before):
            world.sim.call_at(index * 2e-4, ring.broadcast, payload, 64)
        batch = storage_module._CLOSE_EVERY
        for step in range(1, 13):
            world.run(until=step * 0.05)
            for log in logs:
                records = log._records
                # In flight, or decided since the prefix last moved.
                assert len(records) <= config.pipeline_depth + batch
        assert ring.delivered_payloads("l1") == before
        for log in logs:
            assert len(log) == len(before) and len(log._records) < batch
            decided = log.read_range(0, len(before) - 1, decided_only=True)
            assert [value.payload for _, value in decided] == before
        # A learner restarted without recovery refills from instance 0 by gap
        # repair, out of the acceptors' history.
        ring.hosts["l1"].crash()
        world.run(until=0.7)
        ring.hosts["l1"].recover()
        after = [f"b{index}" for index in range(20)]
        for payload in after:
            ring.broadcast(payload, 64)
        world.run(until=3.0)
        assert ring.delivered_payloads("l1") == before + before + after
