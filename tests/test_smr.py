"""Tests for the state-machine-replication layer: commands, front-ends, replicas, clients."""

import pytest

from repro.config import BatchingConfig, MultiRingConfig
from repro.errors import ServiceError, WorkloadError
from repro.multiring.deployment import Deployment, RingSpec
from repro.sim.world import World
from repro.smr.client import ClosedLoopClient, Request
from repro.smr.command import Command, CommandBatch, Response, SubmitCommand
from repro.smr.frontend import ProposerFrontend
from repro.smr.replica import Replica
from repro.smr.state_machine import NullStateMachine


class TestCommandTypes:
    def test_command_ids_are_unique(self):
        first = Command.create("c", ("op",), 100, 0.0)
        second = Command.create("c", ("op",), 100, 0.0)
        assert first.command_id != second.command_id

    def test_command_size_has_a_floor(self):
        command = Command.create("c", ("op",), 0, 0.0)
        assert command.size_bytes == 1

    def test_batch_size_includes_all_commands(self):
        commands = tuple(Command.create("c", ("op",), 1000, 0.0) for _ in range(3))
        batch = CommandBatch(commands=commands)
        assert batch.size_bytes >= 3000
        assert len(batch) == 3

    def test_submit_and_response_sizes(self):
        command = Command.create("c", ("op",), 500, 0.0)
        assert SubmitCommand(group="g", command=command).size_bytes >= 500
        assert Response(command_id=1, replica="r", partition="p", result="x").size_bytes >= 64


def _single_partition_smr(world, batching=None, config=None):
    """One ring, two acceptor/proposer nodes, two Replica learners."""
    config = config or MultiRingConfig.datacenter()
    deployment = Deployment(world, config)
    replicas = []
    for name in ("rep-0", "rep-1"):
        replica = Replica(
            world,
            deployment.registry,
            name,
            state_machine=NullStateMachine(),
            partition="p0",
            config=config,
        )
        deployment.nodes[name] = replica
        replicas.append(replica)
    deployment.add_ring(
        RingSpec(
            group="ring-0",
            members=["acc-0", "acc-1", "rep-0", "rep-1"],
            acceptors=["acc-0", "acc-1"],
            proposers=["acc-0", "acc-1"],
            learners=["rep-0", "rep-1"],
        )
    )
    frontend = ProposerFrontend(deployment.node("acc-0"), batching=batching)
    return deployment, replicas, frontend


class _OneOpWorkload:
    def __init__(self, group="ring-0"):
        self.group = group

    def next_request(self, rng):
        return Request(("noop",), 128, self.group, 1, "smr")


class TestFrontendAndReplica:
    def test_commands_are_executed_by_all_replicas(self, world):
        deployment, replicas, frontend = _single_partition_smr(world)
        world.start()
        command = Command.create("nobody", ("noop",), 128, world.now)
        frontend.submit("ring-0", command)
        world.run(until=1.0)
        assert all(replica.commands_executed == 1 for replica in replicas)
        assert all(replica.state_machine.executed == 1 for replica in replicas)

    def test_submit_to_unknown_group_rejected(self, world):
        _deployment, _replicas, frontend = _single_partition_smr(world)
        world.start()
        with pytest.raises(ServiceError):
            frontend.submit("ring-99", Command.create("c", ("noop",), 64, 0.0))

    def test_batching_groups_commands_into_one_value(self, world):
        batching = BatchingConfig(enabled=True, max_batch_bytes=32 * 1024, max_batch_delay=5e-3)
        deployment, replicas, frontend = _single_partition_smr(world, batching=batching)
        world.start()
        for _ in range(10):
            frontend.submit("ring-0", Command.create("nobody", ("noop",), 128, world.now))
        world.run(until=1.0)
        assert frontend.commands_received == 10
        assert frontend.batches_sent < 10
        assert all(replica.commands_executed == 10 for replica in replicas)

    def test_batch_flushes_when_size_limit_reached(self, world):
        batching = BatchingConfig(enabled=True, max_batch_bytes=1024, max_batch_delay=10.0)
        _deployment, replicas, frontend = _single_partition_smr(world, batching=batching)
        world.start()
        for _ in range(10):
            frontend.submit("ring-0", Command.create("nobody", ("noop",), 600, world.now))
        world.run(until=1.0)
        # 600-byte commands against a 1024-byte limit: flushed every 2 commands.
        assert frontend.batches_sent >= 5
        assert all(replica.commands_executed == 10 for replica in replicas)


class TestClosedLoopClient:
    def test_client_completes_operations_and_records_latency(self, world):
        deployment, _replicas, _frontend = _single_partition_smr(world)
        client = ClosedLoopClient(
            world,
            "client",
            _OneOpWorkload(),
            frontends={"ring-0": "acc-0"},
            threads=4,
            series="smr",
        )
        world.run(until=2.0)
        assert client.completed > 10
        assert client.outstanding == 4
        assert world.monitor.latency_stats("smr").count == client.completed

    def test_client_needs_at_least_one_thread(self, world):
        _single_partition_smr(world)
        with pytest.raises(WorkloadError):
            ClosedLoopClient(world, "bad", _OneOpWorkload(), {"ring-0": "acc-0"}, threads=0)

    def test_missing_frontend_raises_on_first_request(self, world):
        _single_partition_smr(world)
        ClosedLoopClient(world, "client", _OneOpWorkload("other-group"), {"ring-0": "acc-0"}, threads=1)
        with pytest.raises(WorkloadError):
            world.run(until=1.0)

    def test_think_time_limits_throughput(self, world):
        deployment, _replicas, _frontend = _single_partition_smr(world)
        client = ClosedLoopClient(
            world,
            "client",
            _OneOpWorkload(),
            frontends={"ring-0": "acc-0"},
            threads=1,
            series="smr-think",
            think_time=0.5,
        )
        world.run(until=2.2)
        assert client.completed <= 5

    def test_duplicate_responses_are_ignored(self, world):
        # Two replicas both answer; only the first response completes the op,
        # so exactly one latency sample is recorded per completed operation.
        deployment, _replicas, _frontend = _single_partition_smr(world)
        client = ClosedLoopClient(
            world, "client", _OneOpWorkload(), {"ring-0": "acc-0"}, threads=1, series="dup"
        )
        world.run(until=1.0)
        assert client.completed > 0
        assert client.completed == world.monitor.latency_stats("smr").count
