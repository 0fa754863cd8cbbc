"""Unit and property-based tests for the deterministic merge."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import recorded_merge
from repro.errors import MulticastError
from repro.recovery.checkpoint import cursor_is_monotonic
from repro.types import Value, skip_value


def _value(payload):
    return Value.create(payload, 100)


def _feed(merge, group, instance, payload=None, skip=False):
    merge.on_decision(group, instance, skip_value() if skip else _value(payload))


class TestRoundRobinDelivery:
    def test_single_group_delivers_in_instance_order(self):
        # The ring role is the learner's reorder buffer: the merge takes a
        # group's decisions in instance order and refuses one past a hole.
        merge, deliveries = recorded_merge(["g1"], m=1)
        with pytest.raises(MulticastError):
            _feed(merge, "g1", 1, "b")
        _feed(merge, "g1", 0, "a")
        _feed(merge, "g1", 1, "b")
        _feed(merge, "g1", 2, "c")
        assert [d.value.payload for d in deliveries] == ["a", "b", "c"]

    def test_a_decision_past_a_hole_raises_and_a_repeat_is_dropped(self):
        merge, deliveries = recorded_merge(["g1", "g2"], m=1)
        merge.on_decision("g1", 0, skip_value(), 4)  # held: 0-3, waiting for g2
        with pytest.raises(MulticastError):
            _feed(merge, "g1", 5, "past-the-hole")
        merge.on_decision("g1", 1, skip_value(), 2)  # a repeat of 1-2: dropped
        _feed(merge, "g1", 0, "repeat")
        assert merge.pending("g1") == 3 and merge.skipped_count == 1
        merge.on_decision("g1", 2, skip_value(), 3)  # 2-4: only 4 is new
        _feed(merge, "g1", 5, "next")
        assert merge.pending("g1") == 5
        for instance in range(6):
            _feed(merge, "g2", instance, f"g2-{instance}")
        assert [d.value.payload for d in deliveries] == [f"g2-{i}" for i in range(5)] + [
            "next", "g2-5",
        ]

    def test_two_groups_interleave_round_robin(self):
        merge, deliveries = recorded_merge(["g1", "g2"], m=1)
        for i in range(3):
            _feed(merge, "g1", i, f"g1-{i}")
            _feed(merge, "g2", i, f"g2-{i}")
        assert [d.value.payload for d in deliveries] == [
            "g1-0", "g2-0", "g1-1", "g2-1", "g1-2", "g2-2",
        ]

    def test_groups_ordered_by_identifier_not_subscription_order(self):
        merge, deliveries = recorded_merge(["g2", "g1"], m=1)
        _feed(merge, "g2", 0, "from-g2")
        _feed(merge, "g1", 0, "from-g1")
        assert [d.value.payload for d in deliveries] == ["from-g1", "from-g2"]

    def test_delivery_blocks_until_slower_group_catches_up(self):
        merge, deliveries = recorded_merge(["g1", "g2"], m=1)
        for i in range(5):
            _feed(merge, "g1", i, f"g1-{i}")
        # g2 has delivered nothing yet: only one instance of g1 may be delivered.
        assert [d.value.payload for d in deliveries] == ["g1-0"]
        _feed(merge, "g2", 0, "g2-0")
        assert [d.value.payload for d in deliveries] == ["g1-0", "g2-0", "g1-1"]

    def test_m_greater_than_one_delivers_in_blocks(self):
        merge, deliveries = recorded_merge(["g1", "g2"], m=2)
        for i in range(4):
            _feed(merge, "g1", i, f"a{i}")
            _feed(merge, "g2", i, f"b{i}")
        assert [d.value.payload for d in deliveries] == [
            "a0", "a1", "b0", "b1", "a2", "a3", "b2", "b3",
        ]

    def test_skips_are_consumed_but_not_delivered(self):
        merge, deliveries = recorded_merge(["g1", "g2"], m=1)
        _feed(merge, "g1", 0, "real")
        _feed(merge, "g2", 0, skip=True)
        _feed(merge, "g1", 1, "real-2")
        _feed(merge, "g2", 1, skip=True)
        assert [d.value.payload for d in deliveries] == ["real", "real-2"]
        assert merge.skipped_count == 2
        assert merge.delivered_count == 2

    def test_duplicate_decisions_are_ignored(self):
        merge, deliveries = recorded_merge(["g1"], m=1)
        _feed(merge, "g1", 0, "a")
        _feed(merge, "g1", 0, "a-duplicate")
        assert [d.value.payload for d in deliveries] == ["a"]

    def test_unknown_group_rejected(self):
        merge, _ = recorded_merge(["g1"])
        with pytest.raises(MulticastError):
            merge.on_decision("nope", 0, _value("x"))

    def test_invalid_m_rejected(self):
        with pytest.raises(MulticastError):
            recorded_merge(["g1"], m=0)

    def test_add_group_before_traffic(self):
        merge, deliveries = recorded_merge(["g2"], m=1)
        merge.add_group("g1")
        assert merge.groups == ["g1", "g2"]
        _feed(merge, "g1", 0, "a")
        _feed(merge, "g2", 0, "b")
        assert [d.value.payload for d in deliveries] == ["a", "b"]


class TestPauseAndCursor:
    def test_pause_buffers_and_resume_drains(self):
        merge, deliveries = recorded_merge(["g1"], m=1)
        merge.pause()
        _feed(merge, "g1", 0, "a")
        assert deliveries == []
        assert merge.pending("g1") == 1
        merge.resume()
        assert [d.value.payload for d in deliveries] == ["a"]

    def test_delivery_cursor_tracks_next_instances(self):
        merge, _ = recorded_merge(["g1", "g2"], m=1)
        _feed(merge, "g1", 0, "a")
        _feed(merge, "g2", 0, "b")
        _feed(merge, "g1", 1, "c")
        assert merge.delivery_cursor() == {"g1": 2, "g2": 1}
        assert merge.next_instance("g1") == 2

    def test_cursor_satisfies_predicate_1(self):
        merge, _ = recorded_merge(["g1", "g2", "g3"], m=1)
        for i in range(4):
            for group in ("g1", "g2", "g3"):
                _feed(merge, group, i, f"{group}-{i}")
        assert cursor_is_monotonic(merge.delivery_cursor(), m=1)

    def test_fast_forward_jumps_cursor_and_discards_old_buffered_decisions(self):
        merge, deliveries = recorded_merge(["g1", "g2"], m=1)
        merge.pause()
        _feed(merge, "g1", 0, "old")
        merge.on_decision("g1", 1, skip_value(), 5)  # instances 1-5
        merge.fast_forward({"g1": 5, "g2": 5})  # into the range: only 5 stays
        assert merge.pending("g1") == 1
        _feed(merge, "g1", 6, "new")
        _feed(merge, "g2", 5, "g2-5")
        merge.resume()
        assert merge.delivery_cursor() == {"g1": 7, "g2": 6}
        assert [d.value.payload for d in deliveries] == ["g2-5", "new"]
        assert merge.skipped_count == 1

    def test_fast_forward_backwards_rejected(self):
        merge, _ = recorded_merge(["g1"], m=1)
        _feed(merge, "g1", 0, "a")
        with pytest.raises(MulticastError):
            merge.fast_forward({"g1": 0})

    def test_fast_forward_mid_round_resumes_with_correct_group(self):
        # Cursor {g1: 1, g2: 0} means g1's round-0 instance was delivered but
        # g2's was not: the next delivery must come from g2.
        merge, deliveries = recorded_merge(["g1", "g2"], m=1)
        merge.fast_forward({"g1": 1, "g2": 0})
        _feed(merge, "g1", 1, "g1-1")
        assert deliveries == []  # blocked on g2
        _feed(merge, "g2", 0, "g2-0")
        assert [d.value.payload for d in deliveries] == ["g2-0", "g1-1"]


class TestMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        group_count=st.integers(min_value=1, max_value=4),
        per_group=st.integers(min_value=0, max_value=12),
        m=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_delivery_order_is_independent_of_arrival_order(self, group_count, per_group, m, seed):
        """Any interleaving of the groups' in-order streams yields the same
        delivery sequence (determinism)."""
        import random

        groups = [f"g{i}" for i in range(group_count)]
        decisions = [
            (group, instance, Value.create(f"{group}:{instance}", 10))
            for group in groups
            for instance in range(per_group)
        ]
        reference, reference_deliveries = recorded_merge(groups, m=m)
        for group, instance, value in decisions:
            reference.on_decision(group, instance, value)
        expected = [(d.group, d.instance) for d in reference_deliveries]

        # Shuffle which group's next decision arrives; each group stays in
        # instance order, as its ring role releases it.
        turns = [group for group, _, _ in decisions]
        random.Random(seed).shuffle(turns)
        streams = {group: iter([d for d in decisions if d[0] == group]) for group in groups}
        merge, deliveries = recorded_merge(groups, m=m)
        for group in turns:
            merge.on_decision(*next(streams[group]))
        assert [(d.group, d.instance) for d in deliveries] == expected

    @settings(max_examples=60, deadline=None)
    @given(
        per_group=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=4),
        m=st.integers(min_value=1, max_value=4),
    )
    def test_cursor_always_satisfies_predicate_1(self, per_group, m):
        """Predicate 1: group identifiers in order have non-increasing cursors."""
        groups = [f"g{i}" for i in range(len(per_group))]
        merge, _ = recorded_merge(groups, m=m)
        for group, count in zip(groups, per_group):
            for instance in range(count):
                merge.on_decision(group, instance, Value.create("x", 1))
        assert cursor_is_monotonic(merge.delivery_cursor(), m=m)

    @settings(max_examples=40, deadline=None)
    @given(
        per_group=st.integers(min_value=0, max_value=15),
        skip_every=st.integers(min_value=2, max_value=5),
    )
    def test_counts_add_up(self, per_group, skip_every):
        merge, _ = recorded_merge(["g1", "g2"], m=1)
        skips = 0
        for instance in range(per_group):
            for group in ("g1", "g2"):
                if instance % skip_every == 0:
                    merge.on_decision(group, instance, skip_value())
                    skips += 1
                else:
                    merge.on_decision(group, instance, Value.create("v", 1))
        assert merge.delivered_count + merge.skipped_count == 2 * per_group
        assert merge.skipped_count == skips
