"""A Multi-Ring Paxos learner checked against a naive reference merge.

One node learns from two or three rings.  Decisions reach its ring roles in
any order -- ranges, duplicates, sub-ranges -- beside acceptor
retransmissions, checkpoint fast-forwards and crash-restarts.  Whatever the
order, the node's deliveries since its last restart or fast-forward are a
stretch of what the reference computes from the decided logs, and once every
instance is in they run to the reference's end.  The safety oracle judges
the node's delivery log beside the reference's, as two nodes, and finds
nothing.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.config import MultiRingConfig
from repro.multiring.deployment import Deployment, RingSpec
from repro.ringpaxos.messages import Decision
from repro.sim.topology import lan_topology
from repro.sim.world import World
from repro.types import Value, ValueBatch, skip_value, unpack_value
from repro.verify import DeliveryLog, check

LENGTH = 24
LEARNER = "L"


def reference_merge(logs, m):
    """The delivery sequence of ``logs`` (group -> value per instance), the
    naive way: rounds of M instances from each ring in identifier order,
    until a ring has no instance left; skips are dropped, batches unpacked.

    Returns ``(deliveries, marks)``: ``(group, instance, value)`` in order,
    and for each ``k`` the cursor after ``k`` instances and how many
    deliveries precede it.
    """
    groups = sorted(logs)
    cursor = dict.fromkeys(groups, 0)
    deliveries = []
    marks = [(dict(cursor), 0)]
    while True:
        for group in groups:
            for _ in range(m):
                instance = cursor[group]
                if instance == len(logs[group]):
                    return deliveries, marks
                value = logs[group][instance]
                if not value.is_skip:
                    deliveries += [(group, instance, inner) for inner in unpack_value(value)]
                cursor[group] += 1
                marks.append((dict(cursor), len(deliveries)))


def _on_the_wire(value):
    """``value`` as an acceptor sends it: a batch as its encoded body only."""
    batch = value.payload
    if batch.__class__ is not ValueBatch:
        return value
    return Value(
        uid=value.uid,
        payload=ValueBatch(count=batch.count, body=batch.body),
        size_bytes=value.size_bytes,
        proposer=value.proposer,
    )


@st.composite
def _decided_log(draw, group):
    """Chunks ``(first, count, value)`` covering ``[0, LENGTH)``: skip ranges,
    single values and batches."""
    chunks, first = [], 0
    while first < LENGTH:
        kind = draw(st.sampled_from(["skip", "skip", "value", "batch"]))
        count = min(draw(st.integers(1, 7)) if kind == "skip" else 1, LENGTH - first)
        if kind == "skip":
            value = skip_value()
        elif kind == "value":
            value = Value.create(f"{group}:{first}", 16)
        else:
            inner = tuple(Value.create(f"{group}:{first}.{i}", 16) for i in range(draw(st.integers(1, 3))))
            value = Value.create(ValueBatch(values=inner), 48)
        chunks.append((first, count, value))
        first += count
    return chunks


class LearnerAgainstReference(RuleBasedStateMachine):
    @initialize(rings=st.integers(2, 3), m=st.sampled_from([1, 2, 3]), data=st.data())
    def build(self, rings, m, data):
        self.groups = [f"g{index}" for index in range(rings)]
        self.m = m
        self.chunks = {group: data.draw(_decided_log(group)) for group in self.groups}
        self.logs = {
            group: [value for _, count, value in chunks for _ in range(count)]
            for group, chunks in self.chunks.items()
        }
        deliveries, self.marks = reference_merge(self.logs, m)
        self.reference = [(group, instance, value.payload) for group, instance, value in deliveries]
        self.oracle = DeliveryLog()
        for group, instance, value in deliveries:
            self.oracle.record("reference", group, instance, value.uid)
        world = World(topology=lan_topology(), seed=1)
        deployment = Deployment(world, MultiRingConfig.datacenter(m=m, rate_leveling=False, delta=3600.0))
        for group in self.groups:
            acceptor = f"a-{group}"
            deployment.add_ring(
                RingSpec(
                    group=group,
                    members=[acceptor, LEARNER],
                    acceptors=[acceptor],
                    proposers=[acceptor],
                    learners=[LEARNER],
                )
            )
        self.node = deployment.node(LEARNER)
        self.node.on_deliver(self._delivered)
        self.oracle.attach(self.node)
        self.seen = []
        self.start = 0

    def _delivered(self, delivery):
        self.seen.append((delivery.group, delivery.instance, delivery.value.payload))

    @rule(data=st.data())
    def decide(self, data):
        group = data.draw(st.sampled_from(self.groups))
        first, count, value = data.draw(st.sampled_from(self.chunks[group]))
        offset = data.draw(st.integers(0, count - 1))
        decision = Decision(
            group=group,
            instance=first + offset,
            count=data.draw(st.integers(1, count - offset)),
            value=_on_the_wire(value),
            origin=f"a-{group}",
        )
        self.node.roles[group]._apply_decision(decision)

    @rule(data=st.data())
    def retransmit(self, data):
        group = data.draw(st.sampled_from(self.groups))
        first = data.draw(st.integers(0, LENGTH - 1))
        last = data.draw(st.integers(first, LENGTH - 1))
        self._retransmit(group, first, last)

    def _retransmit(self, group, first, last):
        entries = [(i, _on_the_wire(self.logs[group][i])) for i in range(first, last + 1)]
        self.node.roles[group].learn_retransmitted(entries)

    @rule(data=st.data())
    def fast_forward(self, data):
        here = sum(self.node.delivery_cursor().values())
        # Mostly a short jump, into whatever the merge holds.
        last = len(self.marks) - 1
        jump = st.integers(here, min(here + 6, last)) | st.integers(here, last)
        cursor, delivered = self.marks[data.draw(jump)]
        self.seen, self.start = [], delivered
        self.node.fast_forward(cursor)
        self.oracle.restart(self.node)  # as a recovery's checkpoint install follows a restart

    @rule()
    def crash_and_restart(self):
        self.node.crash()
        self.node.recover()
        self.seen, self.start = [], 0

    @invariant()
    def deliveries_are_a_stretch_of_the_reference(self):
        assert self.seen == self.reference[self.start : self.start + len(self.seen)]
        here = sum(self.node.delivery_cursor().values())
        assert self.node.delivery_cursor() == self.marks[here][0]
        # ... and the merge stands where that many instances put the round-robin.
        merge = self.node.merge
        round_, slot = divmod(here, self.m * len(self.groups))
        position = (merge.current_round, merge._round_index, merge._delivered_in_round)
        assert position == (round_, *divmod(slot, self.m))

    @invariant()
    def the_oracle_finds_nothing(self):
        failed = [result for result in check(self.oracle, (), {}) if not result.passed]
        assert failed == []

    def teardown(self):
        if not hasattr(self, "node"):
            return
        for group in self.groups:
            self._retransmit(group, 0, LENGTH - 1)
        assert self.seen == self.reference[self.start :]


LearnerAgainstReference.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
test_learner_matches_the_reference_merge = LearnerAgainstReference.TestCase
