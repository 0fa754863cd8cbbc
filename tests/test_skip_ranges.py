"""A skip range is one entry in the acceptor log, the learner and the merge.

Each layer is checked against a reference fed one instance at a time: every
per-instance answer must be the same.  Beside them, structural guards that a
range costs O(1) calls and records, and the learner's dedup that must not
forget what it learned.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import StorageError
from repro.multiring.merge import DeterministicMerge
from repro.paxos import storage as storage_module
from repro.paxos.storage import AcceptorStorage
from repro.paxos.types import Ballot, InstanceRecord
from repro.sim.disk import StorageMode, disk_for_mode
from repro.sim.engine import Simulator
from repro.sim.topology import lan_topology
from repro.sim.world import World
from repro.types import Value, skip_value

from conftest import SingleRing

BALLOT = Ballot(1, "c")
SKIP = skip_value()
HORIZON = 48


# ----------------------------------------------------------------------
# the acceptor log
# ----------------------------------------------------------------------
class _PerInstanceLog:
    """The acceptor log as one record per instance: what ranges must read as."""

    def __init__(self, sim, mode, disk, slots):
        self.sim, self.mode, self.disk = sim, mode, disk
        self.slots = slots if mode is StorageMode.MEMORY else None
        self.records = {}
        self.trimmed_up_to = None
        self.writes = 0
        self.bytes_logged = 0

    def _trimmed(self, instance):
        return self.trimmed_up_to is not None and instance <= self.trimmed_up_to

    def _persist(self, nbytes):
        self.writes += 1
        self.bytes_logged += nbytes
        if self.disk is not None and self.mode is not StorageMode.MEMORY:
            if self.mode.synchronous:
                self.disk.write(nbytes, None)
            else:
                self.disk.write_async(nbytes, None)

    def record(self, instance):
        if self._trimmed(instance):
            raise StorageError(instance)
        record = self.records.get(instance)
        if record is None:
            record = self.records[instance] = InstanceRecord(instance)
            if self.slots is not None and instance >= self.slots:
                evicted = instance - self.slots
                self.records.pop(evicted, None)
                if self.trimmed_up_to is None or evicted > self.trimmed_up_to:
                    self.trimmed_up_to = evicted
                if len(self.records) > self.slots:
                    self.trim(evicted)
        return record

    def log_promise(self, instance, ballot):
        self.record(instance).promise(ballot)
        self._persist(64)

    def log_vote(self, instance, ballot, value):
        self.record(instance).accept(ballot, value)
        self._persist(64 + value.size_bytes)

    def log_votes_range(self, first, count, ballot, value):
        for instance in range(first, first + count):
            self.record(instance).accept(ballot, value)
        self._persist(64 + value.size_bytes)

    def note_decided(self, first, ballot, value, count):
        for instance in range(first, first + count):
            if self._trimmed(instance):
                continue
            record = self.records.get(instance)
            if record is None or record.accepted_value is None:
                self.record(instance).accept(ballot, value)
                self._persist(64 + value.size_bytes)
            self.records[instance].decided = True

    def mark_decided(self, first, count):
        for instance in range(first, first + count):
            if not self._trimmed(instance) and instance in self.records:
                self.records[instance].decided = True

    def trim(self, up_to):
        removed = [i for i in self.records if i <= up_to]
        for instance in removed:
            del self.records[instance]
        if self.trimmed_up_to is None or up_to > self.trimmed_up_to:
            self.trimmed_up_to = up_to
        return len(removed)

    def state(self, instance):
        record = self.records.get(instance)
        if record is None:
            return None
        return (record.promised, record.accepted_ballot, record.accepted_value, record.decided)


def _entry_state(log, instance):
    """What ``log`` (an AcceptorStorage) holds for ``instance``, from either part."""
    record = log._find(instance)
    if record is not None:
        return (record.promised, record.accepted_ballot, record.accepted_value, record.decided)
    index = log._past_index(instance)
    if index < 0:
        return None
    _, _, values, ballots = log._past
    return (ballots[index], ballots[index], values[index], True)


def _log_state(log, reference):
    """Everything the log answers per instance, from ``log`` (an AcceptorStorage)."""
    answers = []
    for instance in range(HORIZON):
        try:
            value = log.accepted_value(instance)
        except StorageError:
            value = StorageError
        answers.append((log.is_trimmed(instance), value, _entry_state(log, instance)))
    ranges = []
    for decided_only in (False, True):
        try:
            ranges.append(log.read_range(0, HORIZON, decided_only))
        except StorageError:
            ranges.append(StorageError)
        low = (log.trimmed_up_to or 0) + 1
        ranges.append(log.read_range(low, HORIZON, decided_only))
    return (
        answers, ranges, log.trimmed_up_to, log.writes, log.bytes_logged, len(log),
        len(log.sim._queue),
    )


def _reference_state(ref):
    answers = []
    for instance in range(HORIZON):
        trimmed = ref._trimmed(instance)
        if trimmed:
            value = StorageError
        else:
            record = ref.records.get(instance)
            value = record.accepted_value if record is not None else None
        answers.append((trimmed, value, ref.state(instance)))
    ranges = []
    for decided_only in (False, True):
        def read(first):
            return [
                (i, ref.records[i].accepted_value)
                for i in sorted(ref.records)
                if first <= i <= HORIZON
                and ref.records[i].accepted_value is not None
                and (ref.records[i].decided or not decided_only)
            ]
        ranges.append(StorageError if ref._trimmed(0) else read(0))
        ranges.append(read((ref.trimmed_up_to or 0) + 1))
    return (
        answers, ranges, ref.trimmed_up_to, ref.writes, ref.bytes_logged, len(ref.records),
        len(ref.sim._queue),
    )


_VALUES = {i: Value.create(f"v{i}", 10 + i) for i in range(HORIZON)}

#: Range values: adjacent ranges must not read as one another.
_RANGE_VALUES = [SKIP, Value.create("r1", 20), Value.create("r2", 30)]

_first = st.integers(0, 30)
_value = st.integers(0, len(_RANGE_VALUES) - 1)
_log_op = st.one_of(
    st.tuples(st.just("votes"), _first, st.integers(1, 14), _value),
    st.tuples(st.just("decided"), _first, st.integers(1, 14), _value),
    st.tuples(st.just("mark"), _first, st.integers(1, 14), st.just(0)),
    st.tuples(st.just("vote"), _first, st.integers(0, 2), st.just(0)),
    st.tuples(st.just("promise"), _first, st.integers(0, 2), st.just(0)),
    st.tuples(st.just("trim"), _first, st.just(0), st.just(0)),
)


@st.composite
def _log_ops(draw):
    """Up to 40 calls: a pipeline's votes, single and ranges, decided out of
    order and some never (so the decided prefix is held back), then anything
    (a single vote or a promise at ballot 0, 1 or 2; every other vote at 1)."""
    chunks, first = [], 0
    for _ in range(draw(st.integers(0, 8))):
        count = draw(st.integers(1, 5))
        chunks.append((first, count, draw(_value)))
        first += count
    ops = [("vote" if n == 1 else "votes", i, n, k) for i, n, k in chunks]
    for i, n, k in draw(st.permutations(chunks))[: draw(st.integers(0, len(chunks)))]:
        ops.append((draw(st.sampled_from(["mark", "decided"])), i, n, k))
    return ops + draw(st.lists(_log_op, max_size=40 - len(ops)))


def _apply_to_log(log, op):
    kind, first, n, k = op
    if kind == "votes":
        log.log_votes_range(first, n, BALLOT, _RANGE_VALUES[k])
    elif kind == "decided":
        log.note_decided(first, BALLOT, _RANGE_VALUES[k], n)
    elif kind == "mark":
        log.mark_decided(first, n)
    elif kind == "vote":
        log.log_vote(first, Ballot(n, "c"), _VALUES[first])
    elif kind == "promise":
        log.log_promise(first, Ballot(n, "c"))
    else:
        return log.trim(first)


def _outcome(call):
    try:
        return call()
    except (StorageError, ValueError) as error:
        return type(error)


@settings(max_examples=400, deadline=None)
@given(
    ops=_log_ops(),
    slots=st.sampled_from([None, 1, 3, 5, 8, 16]),
    mode=st.sampled_from([StorageMode.MEMORY, StorageMode.ASYNC_SSD, StorageMode.SYNC_SSD]),
    close_every=st.sampled_from([1, 1, 3, storage_module._CLOSE_EVERY]),
)
# A re-vote on a history entry that a jump in the sequence left below the
# trim point must raise, as on a record: one of six random seeds found it.
@example(
    ops=[("vote", 0, 1, 0), ("vote", 1, 1, 0), ("vote", 2, 1, 0), ("mark", 0, 1, 0),
         ("vote", 6, 0, 0), ("votes", 0, 1, 0)],
    slots=5, mode=StorageMode.MEMORY, close_every=1,
)
def test_a_range_in_the_acceptor_log_reads_as_its_instances(ops, slots, mode, close_every):
    sim, ref_sim = Simulator(), Simulator()
    disk = disk_for_mode(sim, mode) if mode is not StorageMode.MEMORY else None
    ref_disk = disk_for_mode(ref_sim, mode) if mode is not StorageMode.MEMORY else None
    log = AcceptorStorage(sim, mode=mode, disk=disk, memory_slots=slots)
    reference = _PerInstanceLog(ref_sim, mode, ref_disk, slots)
    # Moving the decided prefix after every decision or few puts the history
    # through what 40 calls cannot reach at the real batch of moves.
    default, storage_module._CLOSE_EVERY = storage_module._CLOSE_EVERY, close_every
    try:
        for op in ops:
            assert _outcome(lambda: _apply_to_log(log, op)) == _outcome(
                lambda: _apply_to_log(reference, op)
            ), op
            assert _log_state(log, reference) == _reference_state(reference), op
    finally:
        storage_module._CLOSE_EVERY = default


def _entries(log):
    """Entries in both parts of ``log``: records in the working set, runs in the history."""
    return len(log._records) + len(log._past[0]) - log._past_head


def test_a_skip_range_past_the_slots_is_one_record():
    log = AcceptorStorage(Simulator(), memory_slots=8)
    log.log_vote(0, BALLOT, _VALUES[0])
    log.log_votes_range(1, 1000, BALLOT, SKIP)
    assert _entries(log) == 1 and len(log) == 8
    assert [i for i, _ in log.read_range(993, 2000)] == list(range(993, 1001))
    assert log.trimmed_up_to == 992
    log.note_decided(1001, BALLOT, SKIP, 50)
    assert _entries(log) == 1 and log.writes == 52


# ----------------------------------------------------------------------
# decided logs shared by the learner and merge checks
# ----------------------------------------------------------------------
@st.composite
def _decided_log(draw, length=40):
    """Chunks ``(first, count, value)`` covering ``[0, length)``: skip ranges
    of one value each, single values, and now and then a range of one value."""
    chunks, first = [], 0
    while first < length:
        kind = draw(st.sampled_from(["skip", "skip", "value", "range"]))
        count = 1 if kind == "value" else draw(st.integers(1, 9))
        count = min(count, length - first)
        value = SKIP if kind == "skip" else Value.create(f"{kind}{first}", 16)
        chunks.append((first, count, value))
        first += count
    return chunks


@st.composite
def _pieces(draw, chunks, ordered=False):
    """Pieces ``(first, count, value)`` of ``chunks`` with duplicates and
    overlaps, each inside one chunk as a decision is: in a random order, or
    ``ordered`` as a ring role releases them (then a duplicate only repeats
    what came before it)."""
    pieces = []
    for first, count, value in chunks:
        cuts = sorted(draw(st.sets(st.integers(1, count - 1), max_size=2))) if count > 1 else []
        bounds = [0] + cuts + [count]
        pieces += [(first + a, b - a, value) for a, b in zip(bounds, bounds[1:])]
        if draw(st.booleans()):  # a decision seen twice, possibly as a sub-range
            a = draw(st.integers(0, count - 1))
            pieces.append((first + a, draw(st.integers(1, count - a)), value))
    return pieces if ordered else draw(st.permutations(pieces))


# ----------------------------------------------------------------------
# the learner
# ----------------------------------------------------------------------
def _learner():
    ring = SingleRing(World(topology=lan_topology(), seed=1), ["n1", "n2", "n3"])
    return ring.hosts["n2"].role(SingleRing.GROUP), ring


def _learner_state(role, ring):
    buffered = {}
    for first, value in role._out_of_order.items():
        for instance in range(first, first + role._out_of_order_counts.get(first, 1)):
            buffered[instance] = value
    merge = role.host.merge
    return (
        ring.deliveries("n2"), role.skips_learned, role.decisions_learned, role.highest_learned,
        role._next_delivery, buffered,
        [role._learned_end(i) > i for i in range(HORIZON)],
        merge.skipped_count, merge.delivered_count, merge.delivery_cursor(), merge.pending(SingleRing.GROUP),
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_range_in_the_learner_reads_as_its_instances(data):
    chunks = data.draw(_decided_log())
    decided = {i: value for first, count, value in chunks for i in range(first, first + count)}
    steps = [("learn", piece) for piece in data.draw(_pieces(chunks))]
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(["retransmit", "forward"]))
        bound = len(decided) - 1 if kind == "retransmit" else 44
        steps.insert(data.draw(st.integers(0, len(steps))), (kind, data.draw(st.integers(0, bound))))
    role, ring = _learner()
    reference, reference_ring = _learner()
    for kind, argument in steps:
        if kind == "learn":
            first, count, value = argument
            role._learn(first, count, value)
            for instance in range(first, first + count):
                reference._learn(instance, 1, value)
        elif kind == "retransmit":
            role.learn_retransmitted([(argument, decided[argument])])
            reference.learn_retransmitted([(argument, decided[argument])])
        else:
            # Checkpoint install: merge and release jump together, never back.
            cursor = {SingleRing.GROUP: max(argument, role.host.merge.next_instance(SingleRing.GROUP))}
            role.host.fast_forward(cursor)
            reference.host.fast_forward(cursor)
        assert _learner_state(role, ring) == _learner_state(reference, reference_ring), (kind, argument)


def test_injecting_inside_a_buffered_range_splits_it():
    """A retransmitted instance inside a buffered range is already held: the
    range is neither split nor fed twice, and releases once the hole fills."""
    role, ring = _learner()
    role._learn(3, 10, SKIP)  # buffered: 0-2 are missing
    assert role.learn_retransmitted([(6, SKIP)]) == 0
    assert role._out_of_order_counts == {3: 10}
    assert role.learn_retransmitted([(i, Value.create(f"r{i}", 16)) for i in range(3)]) == 3
    assert [instance for instance, _ in ring.deliveries("n2")] == [0, 1, 2]
    assert role.host.merge.skipped_count == 10
    assert role._next_delivery == 13 and role._out_of_order == {}


def test_a_late_duplicate_decision_is_not_learned_twice(world):
    """The learner remembers every instance it learned, however far behind."""
    from repro.ringpaxos.messages import Decision

    ring = SingleRing(world, ["n1", "n2", "n3"])
    world.start()
    coordinator = ring.coordinator.role(SingleRing.GROUP)
    coordinator.propose_skip(120_000)
    world.run(until=0.5)
    learner = ring.hosts["n2"].role(SingleRing.GROUP)
    assert learner.skips_learned == 120_000

    def duplicate(instance, origin):
        return Decision(group=SingleRing.GROUP, instance=instance, count=1, value=skip_value(), origin=origin)

    learner._apply_decision(duplicate(5, "n1"))
    assert learner.skips_learned == 120_000
    for index in range(3):  # three instances open: their decisions are still to come
        coordinator.enqueue_instances(Value.create(f"open{index}", 8), 1)
    assert coordinator.inflight_instances == 3
    coordinator._apply_decision(duplicate(7, "n2"))
    assert coordinator.inflight_instances == 3


# ----------------------------------------------------------------------
# the merge
# ----------------------------------------------------------------------
def _merge_state(merge):
    return (
        [(d.group, d.instance, d.value) for d in merge.deliveries],
        merge.skipped_count, merge.delivered_count, merge.delivery_cursor(),
        merge.current_round, merge.active_groups,
        {group: merge.pending(group) for group in merge.groups},
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.sampled_from([1, 2, 3]))
def test_a_range_in_the_merge_reads_as_its_instances(data, m):
    groups = ["g0", "g1", "g2"]
    pending = data.draw(st.sets(st.sampled_from(groups[1:])))
    logs = {group: data.draw(_decided_log(length=36)) for group in groups}
    # Each group's decisions in instance order, as its ring role releases
    # them; the groups interleave at random.
    pieces = {group: data.draw(_pieces(logs[group], ordered=True)) for group in groups}
    streams = {group: iter(pieces[group]) for group in groups}
    turns = [group for group in groups for _ in pieces[group]]
    steps = [("decide", group, next(streams[group])) for group in data.draw(st.permutations(turns))]
    for group in sorted(pending):
        steps.insert(data.draw(st.integers(0, len(steps))), ("join", group, data.draw(st.integers(1, 8))))
    for _ in range(data.draw(st.integers(0, 2))):
        steps.insert(data.draw(st.integers(0, len(steps))), ("forward", None, data.draw(st.integers(0, 12))))

    def build():
        merge = DeterministicMerge([g for g in groups if g not in pending], m=m)
        for group in sorted(pending):
            merge.add_pending_group(group)
        return merge

    merge, reference = build(), build()
    for kind, group, argument in steps:
        if kind == "decide":
            first, count, value = argument
            merge.on_decision(group, first, value, count)
            for instance in range(first, first + count):
                reference.on_decision(group, instance, value)
        elif kind == "join":
            join_round = reference.current_round + argument
            merge.set_join_round(group, join_round)
            reference.set_join_round(group, join_round)
        else:
            # Into the middle of whatever is buffered, ranges included.
            cursor = {g: i + argument for g, i in reference.delivery_cursor().items()}
            merge.fast_forward(cursor)
            reference.fast_forward(cursor)
        assert _merge_state(merge) == _merge_state(reference), (kind, group, argument)


def test_a_pending_group_enters_at_its_join_round_and_only_that_round_rebuilds_the_active_set(
    monkeypatch,
):
    rebuilds = []
    rebuild = DeterministicMerge._active

    def counted(merge):
        if merge._active_cache is None:
            rebuilds.append(merge.current_round)
        return rebuild(merge)

    monkeypatch.setattr(DeterministicMerge, "_active", counted)
    late = Value.create("late", 16)
    for ranged in (False, True):
        rebuilds.clear()
        merge = DeterministicMerge(["g1"], m=1)
        merge.add_pending_group("g2")
        merge.set_join_round("g2", 50)

        def decide(group, first, count, value):
            if ranged:
                merge.on_decision(group, first, value, count)
            else:
                for instance in range(first, first + count):
                    merge.on_decision(group, instance, value)

        decide("g2", 0, 100, SKIP)
        decide("g2", 100, 1, late)
        decide("g1", 0, 200, SKIP)
        # Rounds 0-49 are g1's alone; from round 50 on g2's instance 0 follows
        # g1's instance 50, so g2's instance 100 comes after g1's instance 150,
        # and round 151 waits for g2's instance 101 after g1's instance 151.
        assert [(d.group, d.instance) for d in merge.deliveries] == [("g2", 100)]
        assert merge.skipped_count == 152 + 100
        assert merge.delivery_cursor() == {"g1": 152, "g2": 101}
        assert merge.current_round == 151
        assert rebuilds == [0, 50], ranged


def test_a_million_skips_are_one_call_to_each_merge_and_one_record_in_each_log(world, monkeypatch):
    calls = {}
    on_decision = DeterministicMerge.on_decision

    def counted(merge, *decision):
        calls[id(merge)] = calls.get(id(merge), 0) + 1
        return on_decision(merge, *decision)

    monkeypatch.setattr(DeterministicMerge, "on_decision", counted)
    ring = SingleRing(world, ["n1", "n2", "n3"])
    world.start()
    ring.coordinator.role(SingleRing.GROUP).propose_skip(1_000_000)
    world.run(until=0.5)
    for host in ring.hosts.values():
        merge = host.merge
        assert calls[id(merge)] == 1
        assert merge.skipped_count == 1_000_000 and merge.pending(SingleRing.GROUP) == 0
        storage = host.role(SingleRing.GROUP).storage
        assert len(storage._records) <= 2
        assert len(storage) == host.role(SingleRing.GROUP).config.memory_slots
