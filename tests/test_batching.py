"""Tests for ring batching (proposer and coordinator) and the pipelined instance window."""

import asyncio
import json
from functools import partial
from pathlib import Path

import pytest

from conftest import SingleRing
from repro.bench.perf import build_perf_world, golden_delivery_sequence
from repro.config import BatchingConfig, MultiRingConfig, RecoveryConfig, RingConfig
from repro.errors import ConfigurationError
from repro.multiring.deployment import Deployment, RingSpec
from repro.multiring.leveling import RateLeveler
from repro.multiring.merge import DeterministicMerge
from repro.reconfig.commands import SpliceRing
from repro.ringpaxos.batching import PROPOSER, CoordinatorBatcher
from repro.ringpaxos.messages import Decision
from repro.runtime import codec
from repro.runtime.live import LiveClock
from repro.services.mrpstore import MRPStore
from repro.sim.disk import StorageMode
from repro.smr.client import ClosedLoopClient
from repro.types import Value, ValueBatch, batch_values, is_batch, unpack_value
from repro.workloads.simple import UpdateWorkload


def _batched_ring_config(max_batch_values=4, max_batch_delay=5e-3, pipeline_depth=128):
    return RingConfig(
        batching=BatchingConfig.coordinator(
            max_batch_values=max_batch_values, max_batch_delay=max_batch_delay
        ),
        pipeline_depth=pipeline_depth,
    )


class TestValueBatchType:
    def test_unpack_plain_value_returns_itself(self):
        value = Value.create("x", 100)
        assert unpack_value(value) == (value,)
        assert not is_batch(value)

    def test_batch_envelope_carries_inner_values_in_order(self):
        inner = tuple(Value.create(f"m{i}", 100) for i in range(3))
        batch = batch_values(inner, proposer="coord", created_at=1.0)
        assert is_batch(batch)
        assert unpack_value(batch) == inner
        assert batch.size_bytes > sum(v.size_bytes for v in inner)

    def test_config_rejects_nonpositive_batch_values(self):
        with pytest.raises(ConfigurationError):
            BatchingConfig(enabled=True, max_batch_values=0)


class TestFlushTriggers:
    def test_size_cap_flushes_before_timeout(self, world):
        # 4 values hit the value-count cap instantly; the 100 ms timeout
        # must play no part.
        ring = SingleRing(
            world,
            ["n1", "n2", "n3"],
            ring_config=_batched_ring_config(max_batch_values=4, max_batch_delay=0.1),
        )
        world.start()
        for i in range(4):
            ring.broadcast(f"m{i}", 256)
        world.run(until=0.05)  # well before the flush timeout
        assert ring.delivered_payloads("n2") == ["m0", "m1", "m2", "m3"]
        batcher = ring.coordinator.role("broadcast").batcher
        assert batcher.size_flushes == 1
        assert batcher.timeout_flushes == 0

    def test_byte_cap_flushes_before_value_cap(self, world):
        config = RingConfig(
            batching=BatchingConfig(
                enabled=True, max_batch_values=100, max_batch_bytes=1024, max_batch_delay=0.1
            )
        )
        ring = SingleRing(world, ["n1", "n2", "n3"], ring_config=config)
        world.start()
        for i in range(3):  # 3 x 512 B > 1024 B on the second value
            ring.broadcast(f"m{i}", 512)
        world.run(until=0.05)
        batcher = ring.coordinator.role("broadcast").batcher
        assert batcher.size_flushes >= 1
        assert "m0" in ring.delivered_payloads("n1")

    def test_flush_timeout_flushes_partial_batch(self, world):
        ring = SingleRing(
            world,
            ["n1", "n2", "n3"],
            ring_config=_batched_ring_config(max_batch_values=8, max_batch_delay=20e-3),
        )
        world.start()
        ring.broadcast("lonely", 256)
        world.run(until=0.01)  # before the timeout: still pending
        assert ring.delivered_payloads("n1") == []
        world.run(until=0.1)  # past the timeout
        assert ring.delivered_payloads("n1") == ["lonely"]
        batcher = ring.coordinator.role("broadcast").batcher
        assert batcher.timeout_flushes == 1
        assert batcher.size_flushes == 0

    def test_size_flush_cancels_timer_no_double_flush(self, world):
        ring = SingleRing(
            world,
            ["n1", "n2", "n3"],
            ring_config=_batched_ring_config(max_batch_values=2, max_batch_delay=10e-3),
        )
        world.start()
        for i in range(2):
            ring.broadcast(f"a{i}", 256)  # size flush, timer must die with it
        world.run(until=0.05)  # run past where the stale timer would fire
        ring.broadcast("b", 256)
        world.run(until=0.2)
        assert ring.delivered_payloads("n3") == ["a0", "a1", "b"]
        batcher = ring.coordinator.role("broadcast").batcher
        assert batcher.batches_flushed == 2
        assert batcher.size_flushes == 1
        assert batcher.timeout_flushes == 1

    def test_batched_values_share_one_instance(self, world):
        ring = SingleRing(
            world,
            ["n1", "n2", "n3"],
            ring_config=_batched_ring_config(max_batch_values=5, max_batch_delay=1e-3),
        )
        world.start()
        for i in range(10):
            ring.broadcast(f"m{i}", 128)
        world.run(until=0.5)
        role = ring.coordinator.role("broadcast")
        assert role.next_instance == 2  # 10 values in 2 instances of 5
        # Every learner unpacks to the full in-order application sequence.
        for learner in ("n1", "n2", "n3"):
            assert ring.delivered_payloads(learner) == [f"m{i}" for i in range(10)]


class _Coordinator:
    """What a :class:`CoordinatorBatcher` reads of its ring role, on a bare clock."""

    name = "coord"

    def __init__(self, clock) -> None:
        self.host = self
        self.world = self
        self.sim = clock
        self.started = []

    @property
    def now(self) -> float:
        return self.sim.now

    def set_timer(self, delay, callback, *args):
        pytest.fail("per-turn batching armed a timer")

    def enqueue_instances(self, value, count=1) -> None:
        assert count == 1
        self.started.append(value)

    def send_proposal(self, value) -> None:  # where a proposer's batcher sends
        self.started.append(value)


PER_TURN = BatchingConfig(enabled=True, max_batch_delay=0.0)


def _values(count, size=256, prefix="m"):
    return [Value.create(f"{prefix}{i}", size) for i in range(count)]


def _pump_bursts(config, *bursts, stage="coordinator"):
    """Run each burst -- ``burst(batcher)`` gives the calls to post -- as one pump turn.

    Every call is its own clock event, all due together, so one burst is one
    turn of a bare :class:`LiveClock`.  Returns the batcher, what it started
    after each burst, and the clock's processed-event count.
    """

    async def scenario():
        loop = asyncio.get_running_loop()
        clock = LiveClock()
        clock.attach(loop, loop.time())
        coordinator = _Coordinator(clock)
        batcher = CoordinatorBatcher(coordinator, config, stage)
        pump = loop.create_task(clock.pump())
        started = []
        posted = 0
        for burst in bursts:
            for call in burst(batcher):
                clock.post(call)
                posted += 1
            await asyncio.sleep(0.02)
            started.append(list(coordinator.started))
            del coordinator.started[:]
        clock.stop()
        await pump
        # Nothing but the posted calls ran as events: the flushes rode the turns.
        assert clock.processed_events == posted
        return batcher, started

    return asyncio.run(asyncio.wait_for(scenario(), 10.0))


def _offers(values):
    return lambda batcher: [partial(batcher.offer, value) for value in values]


def _sizes(started):
    return [len(unpack_value(value)) for value in started]


class TestPerTurnBatching:
    """``max_batch_delay == 0``: a batch is what reached the coordinator in one turn."""

    def test_one_burst_is_packed_up_to_the_value_cap(self):
        values = _values(40)
        batcher, (started,) = _pump_bursts(PER_TURN, _offers(values))
        assert _sizes(started) == [16, 16, 8]
        assert [v for batch in started for v in unpack_value(batch)] == values
        assert (batcher.size_flushes, batcher.turn_flushes) == (2, 1)
        assert (batcher.values_offered, batcher.batches_flushed) == (40, 3)

    def test_byte_cap_flushes_first(self):
        config = BatchingConfig(enabled=True, max_batch_delay=0.0, max_batch_bytes=1024)
        batcher, (started,) = _pump_bursts(config, _offers(_values(5, size=512)))
        assert _sizes(started) == [2, 2, 1]
        assert (batcher.size_flushes, batcher.turn_flushes) == (2, 1)

    def test_control_value_is_never_co_batched(self):
        control = Value.create(SpliceRing(group="other-ring", learners=()), 256)
        values = _values(3, prefix="a") + [control] + _values(2, prefix="b")
        batcher, (started,) = _pump_bursts(PER_TURN, _offers(values))
        assert _sizes(started) == [3, 1, 2]
        assert started[1] is control
        assert batcher.control_flushes == 1

    def test_a_batch_of_one_is_the_bare_value(self):
        (value,) = _values(1)
        _, (started,) = _pump_bursts(PER_TURN, _offers([value]))
        assert started == [value] and not is_batch(started[0])

    def test_each_turn_is_its_own_batch(self):
        first, second = _values(3, prefix="x"), _values(2, prefix="y")
        _, started = _pump_bursts(PER_TURN, _offers(first), _offers(second))
        assert [_sizes(turn) for turn in started] == [[3], [2]]

    def test_a_proposer_packs_per_turn_even_with_a_flush_delay(self):
        timer_config = BatchingConfig(enabled=True, max_batch_delay=5e-3)
        first, second = _values(3, prefix="x"), _values(1, prefix="y")
        batcher, started = _pump_bursts(
            timer_config, _offers(first), _offers(second), stage=PROPOSER
        )
        assert [_sizes(turn) for turn in started] == [[3], [1]]
        assert started[1] == second and not is_batch(started[1][0])
        assert batcher.stage == PROPOSER and batcher.turn_flushes == 2

    def test_a_spliced_batch_joins_whole_and_keeps_its_bytes(self, monkeypatch):
        mine = _values(3, prefix="c")
        theirs = _wire_copy(batch_values(tuple(_values(4, prefix="p"))))
        encoded = []
        inner_encode = codec.encode_batch_body
        monkeypatch.setattr(
            codec, "encode_batch_body", lambda values: encoded.append(len(values)) or inner_encode(values)
        )
        splice = lambda batcher: [partial(batcher.splice, theirs)]  # noqa: E731
        batcher, (started,) = _pump_bursts(PER_TURN, lambda b: _offers(mine)(b) + splice(b))
        (batch,) = started
        # One instance of seven: the proposer's body is copied, only the
        # coordinator's own three values are encoded.
        assert batch.payload.count == 7 and batch.payload.values is None
        assert encoded == [3]
        assert [v.payload for v in batch.payload.decode()] == ["c0", "c1", "c2", "p0", "p1", "p2", "p3"]
        assert (batcher.values_offered, batcher.batches_flushed) == (7, 1)

    def test_a_spliced_batch_that_would_overflow_waits_for_the_next_instance(self):
        theirs = _wire_copy(batch_values(tuple(_values(8, prefix="p"))))
        burst = lambda batcher: _offers(_values(10))(batcher) + [partial(batcher.splice, theirs)]  # noqa: E731
        batcher, (started,) = _pump_bursts(PER_TURN, burst)
        # 10 + 8 > 16: the pending ten leave first; alone, the proposer's
        # batch is the instance value as it arrived.
        assert _sizes(started[:1]) == [10] and started[1] is theirs
        assert (batcher.size_flushes, batcher.turn_flushes) == (1, 1)

    def test_reset_turns_the_pending_turn_end_flush_into_a_no_op(self):
        crashed = lambda batcher: _offers(_values(3))(batcher) + [batcher.reset]  # noqa: E731
        (value,) = _values(1, prefix="after")
        batcher, started = _pump_bursts(PER_TURN, crashed, _offers([value]))
        assert started == [[], [value]]
        assert batcher.batches_flushed == 1


def _wire_copy(value):
    """``value`` as a receiver decodes it: a batch holds only its body."""
    return codec.decode_value(codec.encode_value(value))


class TestPerTurnBatchingOnTheSimulator:
    """Every simulated event is its own turn: the default batches nothing."""

    def test_default_ring_config_batches_per_turn(self):
        batching = RingConfig().batching
        assert batching.enabled and batching.max_batch_delay == 0.0
        # Front-ends and the sim benches build on BatchingConfig's own defaults.
        assert not BatchingConfig().enabled and BatchingConfig().max_batch_delay == 1e-3

    def test_default_config_keeps_the_golden_trace_and_event_count(self):
        golden = json.loads(
            (Path(__file__).parent / "golden" / "lan_smoke_deliveries.json").read_text()
        )
        current = golden_delivery_sequence(scenario="lan", duration=0.05, threads=4)
        assert current["sha256"] == golden["sha256"]
        assert current["events_processed"] == golden["events_processed"]

        world, deployment, drivers = build_perf_world("lan", threads=4)
        world.start()
        for driver in drivers:
            driver.start()
        world.run(until=0.05)
        roles = [
            role for node in deployment.nodes.values() for role in node.roles.values()
            if role.is_coordinator
        ]
        assert roles and all(role.batcher is not None for role in roles)
        for role in roles:
            batcher = role.batcher
            # Each value went out alone, at once, as the bare value.
            assert batcher.values_offered == batcher.batches_flushed == role.values_proposed > 0
            assert batcher.turn_flushes == batcher.size_flushes == batcher.timeout_flushes == 0


class TestControlCommandIsolation:
    def test_control_command_never_shares_a_batch(self, world):
        # Rate leveling off: skip instances would interleave with the three
        # instances whose exact layout this test asserts.
        deployment = Deployment(world, MultiRingConfig.datacenter(rate_leveling=False))
        config = _batched_ring_config(max_batch_values=8, max_batch_delay=50e-3)
        members = ["n1", "n2", "n3"]
        for name in members:
            deployment.add_node(name)
        deployment.add_ring(RingSpec(group="g", members=members), ring_config=config)
        world.start()
        coordinator = deployment.coordinator_of("g")

        for i in range(3):
            coordinator.multicast("g", f"app-{i}", 128)
        control = SpliceRing(group="other-ring", learners=())
        coordinator.multicast("g", control, 256)
        for i in range(3, 6):
            coordinator.multicast("g", f"app-{i}", 128)
        world.run(until=0.2)  # past the flush timeout for the tail batch

        # The acceptor log tells the story instance by instance: the control
        # command forces out the pending batch, rides alone, and the
        # post-control values form their own batch.
        role = coordinator.role("g")
        assert role.next_instance == 3
        logged = [role.storage.accepted_value(i) for i in range(3)]
        assert isinstance(logged[0].payload, ValueBatch)
        assert [v.payload for v in logged[0].payload.values] == ["app-0", "app-1", "app-2"]
        assert logged[1].payload is control
        assert isinstance(logged[2].payload, ValueBatch)
        assert [v.payload for v in logged[2].payload.values] == ["app-3", "app-4", "app-5"]
        assert role.batcher.control_flushes == 1
        # The control delivery reached the reconfiguration path, not the app.
        assert coordinator.control_deliveries_count == 1
        assert coordinator.deliveries_count == 6

    def test_forwarded_commands_batch_like_application_values(self, world):
        # ForwardedCommand re-multicasts an application write (dedup by
        # command id at the destination); its position is not an agreement
        # point, so it must NOT flush the batch -- migrations forward bursts
        # of writes exactly when the destination ring is busiest.
        from repro.reconfig.commands import ForwardedCommand
        from repro.smr.command import Command

        deployment = Deployment(world, MultiRingConfig.datacenter(rate_leveling=False))
        config = _batched_ring_config(max_batch_values=4, max_batch_delay=5e-3)
        members = ["n1", "n2", "n3"]
        for name in members:
            deployment.add_node(name)
        deployment.add_ring(RingSpec(group="g", members=members), ring_config=config)
        world.start()
        coordinator = deployment.coordinator_of("g")

        forwarded = ForwardedCommand(
            migration_id=1,
            dest="p1",
            command=Command.create("c0", ("update", "k", 64), 64, 0.0),
        )
        coordinator.multicast("g", "app-0", 128)
        coordinator.multicast("g", forwarded, 128)
        coordinator.multicast("g", "app-1", 128)
        coordinator.multicast("g", "app-2", 128)  # fills the batch of 4
        world.run(until=0.1)

        role = coordinator.role("g")
        assert role.batcher.control_flushes == 0
        assert role.next_instance == 1  # all four shared one instance
        # The forwarded command still reached the control routing path.
        assert coordinator.control_deliveries_count == 1
        assert coordinator.deliveries_count == 3


class TestPipelineWindow:
    def test_window_bounds_inflight_instances(self, world):
        config = RingConfig(pipeline_depth=2)
        ring = SingleRing(world, ["n1", "n2", "n3"], ring_config=config)
        world.start()
        for i in range(20):
            ring.broadcast(f"m{i}", 256)
        world.run(until=1.0)
        role = ring.coordinator.role("broadcast")
        assert role.max_inflight <= 2
        assert role.window_stalls > 0
        assert role.queued_starts == 0  # fully drained at the end
        for learner in ("n1", "n2", "n3"):
            assert ring.delivered_payloads(learner) == [f"m{i}" for i in range(20)]

    def test_zero_depth_disables_the_window(self, world):
        config = RingConfig(pipeline_depth=0)
        ring = SingleRing(world, ["n1", "n2", "n3"], ring_config=config)
        world.start()
        for i in range(20):
            ring.broadcast(f"m{i}", 256)
        world.run(until=1.0)
        role = ring.coordinator.role("broadcast")
        assert role.window_stalls == 0
        assert ring.delivered_payloads("n1") == [f"m{i}" for i in range(20)]

    def test_oversized_skip_range_passes_an_empty_window(self, world):
        config = RingConfig(pipeline_depth=4)
        ring = SingleRing(world, ["n1", "n2", "n3"], ring_config=config)
        world.start()
        role = ring.coordinator.role("broadcast")
        role.propose_skip(50)  # larger than the window: must not deadlock
        world.run(until=1.0)
        assert role.next_instance == 50
        assert role.inflight_instances == 0

    def test_inject_learned_releases_already_buffered_decisions(self, world):
        # Recovery scenario: live decisions above a gap are buffered while
        # the gap is filled by retransmission (inject_learned).  The release
        # must happen at injection time -- the ring may go quiescent and
        # never call _learn again.
        ring = SingleRing(world, ["n1", "n2", "n3"])
        world.start()
        order = []
        ring.on_deliver(lambda learner, instance, value: order.append((learner, instance)))
        role = ring.hosts["n2"].role("broadcast")
        # Live decisions 2 and 3 arrive while 0-1 are missing: buffered.
        for instance in (2, 3):
            role.on_message(
                "n1",
                Decision(
                    group="broadcast", instance=instance, count=1,
                    value=Value.create(f"v{instance}", 64), origin="n1",
                ),
            )
        world.run(until=0.01)
        assert [i for l, i in order if l == "n2"] == []
        # Retransmission supplies 0-1 straight to the merge; the role only
        # hears about it through inject_learned.
        role.inject_learned(0)
        role.inject_learned(1)
        # Buffered 2 and 3 must now flow without any further ring traffic.
        assert [i for l, i in order if l == "n2"] == [2, 3]

    def test_sparse_injection_does_not_jump_holes(self, world):
        # An acceptor's log can be sparse at retransmission time (a decision
        # may still be circulating).  The cursor must wait at the hole and
        # resume when the missing decision arrives -- not strand everything
        # above it.
        ring = SingleRing(world, ["n1", "n2", "n3"])
        world.start()
        order = []
        ring.on_deliver(lambda learner, instance, value: order.append((learner, instance)))
        role = ring.hosts["n2"].role("broadcast")
        role.inject_learned(0)
        role.inject_learned(2)  # hole at 1
        role.on_message(
            "n1",
            Decision(group="broadcast", instance=3, count=1, value=Value.create("v3", 64), origin="n1"),
        )
        world.run(until=0.01)
        assert [i for l, i in order if l == "n2"] == []  # waiting at the hole
        role.on_message(
            "n1",
            Decision(group="broadcast", instance=1, count=1, value=Value.create("v1", 64), origin="n1"),
        )
        world.run(until=0.02)
        # 1 delivered, 2 passed over silently (injected), 3 released.
        assert [i for l, i in order if l == "n2"] == [1, 3]

    def test_fast_forward_delivery_jumps_checkpoint_gap(self, world):
        # A checkpoint covers everything below its cursor: the delivery
        # cursor jumps there (the gap will never circulate again) and live
        # decisions buffered above it are released immediately.
        ring = SingleRing(world, ["n1", "n2", "n3"])
        world.start()
        order = []
        ring.on_deliver(lambda learner, instance, value: order.append((learner, instance)))
        role = ring.hosts["n2"].role("broadcast")
        for instance in (50, 51):  # live decisions far above the cursor
            role.on_message(
                "n1",
                Decision(
                    group="broadcast", instance=instance, count=1,
                    value=Value.create(f"v{instance}", 64), origin="n1",
                ),
            )
        world.run(until=0.01)
        assert [i for l, i in order if l == "n2"] == []
        role.fast_forward_delivery(50)  # checkpoint covers 0..49
        assert [i for l, i in order if l == "n2"] == [50, 51]
        # Jumping backwards is a no-op.
        role.fast_forward_delivery(10)
        assert role._next_delivery == 52

    def test_learner_releases_out_of_order_decisions_in_order(self, world):
        ring = SingleRing(world, ["n1", "n2", "n3"])
        world.start()
        order = []
        ring.on_deliver(lambda learner, instance, value: order.append((learner, instance)))
        role = ring.hosts["n2"].role("broadcast")
        v0 = Value.create("first", 64)
        v1 = Value.create("second", 64)
        # Decisions arrive inverted (models reordering across a failure).
        role.on_message("n1", Decision(group="broadcast", instance=1, count=1, value=v1, origin="n1"))
        world.run(until=0.01)
        assert [i for l, i in order if l == "n2"] == []  # held: instance 0 missing
        role.on_message("n1", Decision(group="broadcast", instance=0, count=1, value=v0, origin="n1"))
        world.run(until=0.02)
        n2_instances = [i for l, i in order if l == "n2"]
        assert n2_instances == [0, 1]


class TestMergeUnpacking:
    def test_batched_instance_counts_once_for_round_robin(self):
        merge = DeterministicMerge(groups=["g1", "g2"], m=1)
        batch = batch_values(tuple(Value.create(f"b{i}", 10) for i in range(3)))
        merge.on_decision("g1", 0, batch)
        # g1's round slot is consumed by the batched instance; g2 must supply
        # instance 0 before anything from g1's instance 1 can flow.
        assert merge.delivered_count == 3
        assert merge.batched_instances == 1
        assert [d.value.payload for d in merge.deliveries] == ["b0", "b1", "b2"]
        assert merge.next_instance("g1") == 1
        merge.on_decision("g1", 1, Value.create("later", 10))
        assert merge.delivered_count == 3  # still waiting on g2
        merge.on_decision("g2", 0, Value.create("from-g2", 10))
        assert [d.value.payload for d in merge.deliveries] == [
            "b0",
            "b1",
            "b2",
            "from-g2",
            "later",
        ]

    def test_delivery_cursor_sits_at_instance_boundaries(self):
        merge = DeterministicMerge(groups=["g1"], m=1)
        batch = batch_values(tuple(Value.create(f"b{i}", 10) for i in range(4)))
        merge.on_decision("g1", 0, batch)
        # The cursor can never point into the middle of a batch: unpacking is
        # atomic within one advance step.
        assert merge.delivery_cursor() == {"g1": 1}


class TestBatchesArriveAsBytes:
    """A batch that crossed the wire is its body until a node learns and delivers it."""

    @pytest.fixture
    def ring(self, world):
        deployment = Deployment(world, MultiRingConfig.datacenter(rate_leveling=False))
        for name in ("n1", "n2", "n3"):
            deployment.add_node(name)
        deployment.add_ring(RingSpec(group="g", members=["n1", "n2", "n3"]))
        world.start()
        return deployment

    @pytest.fixture
    def body_decodes(self, monkeypatch):
        bodies = []
        inner = codec.decode_batch_body
        monkeypatch.setattr(
            codec, "decode_batch_body", lambda count, body: bodies.append(body) or inner(count, body)
        )
        return bodies

    @staticmethod
    def _delivered(node):
        values = []
        node.on_deliver(lambda delivery: values.append(delivery.value), group="g")
        return values

    @staticmethod
    def _decide(world, node, instance, value, origin):
        decision = Decision(group="g", instance=instance, count=1, value=value, origin=origin)
        node.role("g").on_message(origin, decision)
        world.run(until=world.now + 0.01)

    @staticmethod
    def _batch(prefix, count=3):
        return batch_values(tuple(Value.create(f"{prefix}{i}", 64) for i in range(count)))

    def test_the_coordinator_learns_its_own_batch_from_its_record(self, world, ring, body_decodes):
        coordinator = ring.coordinator_of("g")
        role = coordinator.role("g")
        delivered = self._delivered(coordinator)
        own = self._batch("own")
        role.storage.log_vote(0, role.ballot, own)
        wire = _wire_copy(own)
        assert wire.payload.values is None and wire.uid == own.uid
        self._decide(world, coordinator, 0, wire, origin="n2")
        assert body_decodes == []
        assert len(delivered) == 3
        assert all(got is mine for got, mine in zip(delivered, own.payload.values))

    def test_a_decision_the_record_does_not_match_is_decoded(self, world, ring, body_decodes):
        coordinator = ring.coordinator_of("g")
        role = coordinator.role("g")
        delivered = self._delivered(coordinator)
        role.storage.log_vote(0, role.ballot, self._batch("own"))
        stranger = self._batch("other")
        self._decide(world, coordinator, 0, _wire_copy(stranger), origin="n2")
        assert len(body_decodes) == 1
        assert [v.payload for v in delivered] == ["other0", "other1", "other2"]

    def test_a_body_that_fails_to_decode_moves_nothing(self, world, ring, body_decodes):
        node = ring.node("n2")
        role = node.role("g")
        delivered = self._delivered(node)
        # Instance 1 is decided first: buffered, waiting for instance 0.
        self._decide(world, node, 1, _wire_copy(self._batch("late")), origin="n1")
        good = _wire_copy(self._batch("good"))
        lying = ValueBatch.from_wire(good.payload.count + 1, good.payload.body)  # passes framing
        broken = Value(good.uid, lying, good.size_bytes, good.proposer, good.created_at)
        before = (
            {i: id(v) for i, v in role._out_of_order.items()},
            node.merge.delivery_cursor(),
            node.merge.delivered_count,
            node.messages_sent,
        )
        self._decide(world, node, 0, broken, origin="n1")
        after = (
            {i: id(v) for i, v in role._out_of_order.items()},
            node.merge.delivery_cursor(),
            node.merge.delivered_count,
            node.messages_sent,  # not forwarded either
        )
        assert after == before and list(before[0]) == [1]
        assert node.bodies_rejected == 1
        assert role._learned_end(0) == 0 and role.storage.accepted_value(0) is None  # not learned
        # The intact decision still goes through, and releases the buffered one.
        self._decide(world, node, 0, good, origin="n1")
        assert [v.payload for v in delivered] == [f"{p}{i}" for p in ("good", "late") for i in range(3)]


class TestBatchAwareLeveling:
    def test_quota_is_the_common_instance_rate_for_all_rings(self):
        # The quota is a system-wide instance-rate contract: a batched ring
        # must top up to the same lambda*delta instances as everyone else,
        # otherwise partially-filled batches let it outpace skip-topped peer
        # rings and the merge backlog grows without bound.
        config = MultiRingConfig.datacenter()

        class _Role:
            pass

        leveler = RateLeveler(_Role(), config)
        assert leveler.quota_per_interval == config.skip_quota_per_interval

    def test_leveler_discounts_window_queued_skips(self, world):
        # Idle ring, pipeline window of 1, sync-HDD decisions slower than the
        # leveling interval: skips cannot start as fast as they are proposed.
        # The leveler must subtract queued skips from its deficit instead of
        # re-proposing the full quota every interval and growing the start
        # queue without bound.
        deployment = Deployment(world, MultiRingConfig.datacenter())
        config = RingConfig(storage_mode=StorageMode.SYNC_HDD, pipeline_depth=1)
        members = ["n1", "n2", "n3"]
        for name in members:
            deployment.add_node(name)
        deployment.add_ring(
            RingSpec(group="g", members=members, storage_mode=StorageMode.SYNC_HDD),
            ring_config=config,
        )
        world.start()
        world.run(until=0.5)  # ~100 leveling intervals, zero app traffic
        role = deployment.coordinator_of("g").role("g")
        quota = deployment.config.skip_quota_per_interval
        # Bounded backlog: at most ~one quota's worth of skips waiting, not
        # one skip range per elapsed interval.
        assert role.queued_skip_instances <= quota
        assert role.queued_starts <= 2

    def test_level_counter_counts_instances_not_values(self, world):
        # A flushed batch of 4 values is ONE consensus instance: the leveler
        # must see the batched ring as 1 instance behind quota x 4 values,
        # so batching is accounted for in the counter, not the quota.
        ring = SingleRing(
            world,
            ["n1", "n2", "n3"],
            ring_config=_batched_ring_config(max_batch_values=4, max_batch_delay=1e-3),
        )
        world.start()
        for i in range(4):
            ring.broadcast(f"m{i}", 128)
        world.run(until=0.1)
        role = ring.coordinator.role("broadcast")
        assert role.values_proposed == 1  # one batch instance
        assert role.reset_level_counter() == 1


@pytest.fixture(scope="module")
def batched_crash_and_recovery():
    """One 1x3 recovering store with timer batching, one timeline, read by both tests below.

    Batches of up to 4 values (1 ms timer) are decided continuously while
    checkpoints (every 0.25 s) and trims (every 0.5 s) run, so batch
    boundaries land arbitrarily around both; the third replica crashes at
    1 s and recovers at 3 s; the client stops at 4.5 s so that in-flight
    commands drain before states are compared at 5 s.
    """
    from types import SimpleNamespace

    from repro.sim.topology import lan_topology
    from repro.sim.world import World

    world = World(topology=lan_topology(), seed=123, timeline_window=0.5)
    store = MRPStore(
        world,
        partitions=1,
        replicas_per_partition=3,
        acceptors_per_partition=3,
        use_global_ring=False,
        storage_mode=StorageMode.ASYNC_SSD,
        config=MultiRingConfig.datacenter(),
        recovery_config=RecoveryConfig(
            checkpoint_interval=0.25,
            trim_interval=0.5,
            synchronous_checkpoints=True,
            max_replay_instances=10,
        ),
        coordinator_batching=BatchingConfig.coordinator(max_batch_values=4, max_batch_delay=1e-3),
        pipeline_depth=16,
        enable_recovery=True,
        key_space=100,
    )
    store.load(100, value_size=256)
    workload = UpdateWorkload(store, list(range(100)), value_size=256, series="bat")
    client = ClosedLoopClient(
        world, "c0", workload, store.frontends_for_client(0), threads=4, series="bat"
    )
    group = store.partitions["p0"].group
    seen = SimpleNamespace(store=store, replicas=store.replicas_of("p0"))

    world.run(until=1.0)
    seen.batches_before_crash = store.deployment.coordinator_of(group).role(group).batcher.batches_flushed
    seen.replicas[2].crash()
    world.run(until=3.0)
    seen.replicas[2].recover()
    world.run(until=4.5)
    client.crash()  # quiesce in-flight traffic before comparing state
    world.run(until=5.0)
    return seen


class TestBatchingWithRecovery:
    def test_batches_spanning_checkpoint_and_trim_survive_recovery(
        self, batched_crash_and_recovery
    ):
        # The recovered replica must converge to the survivor's exact state (no
        # lost or double-applied command from a batch split across the
        # checkpoint cursor).
        seen = batched_crash_and_recovery
        survivor, victim = seen.replicas[0], seen.replicas[2]
        assert seen.batches_before_crash > 0
        assert victim.recovery.recoveries_completed == 1
        assert not victim.recovery.recovering
        assert victim.state_machine._entries == survivor.state_machine._entries
        # Trimming ran during the experiment (batch boundaries crossed it too).
        partition = seen.store.partitions["p0"]
        storage = seen.store.deployment.node(partition.acceptors[0]).role(partition.group).storage
        assert storage.trimmed_up_to is not None

    def test_all_replicas_apply_identical_batched_sequences(self, batched_crash_and_recovery):
        replicas = batched_crash_and_recovery.replicas
        assert replicas[0].commands_executed > 0
        states = [replica.state_machine._entries for replica in replicas]
        assert states[0] == states[1] == states[2]
