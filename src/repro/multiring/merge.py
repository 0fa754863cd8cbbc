"""Deterministic merge of per-ring decision streams.

Section 4: *"Learners deliver messages from rings they subscribe to in
round-robin, following the order given by the ring identifier.  More
precisely, a learner delivers messages decided in M consensus instances from
the first ring, then delivers messages decided in M consensus instances from
the second ring, and so on."*

:class:`DeterministicMerge` implements exactly that.  Decisions arrive per
ring (possibly out of instance order during recovery); the merge buffers them
and releases deliveries only in the globally deterministic order, so that any
two learners subscribing to the same set of groups deliver the same sequence.
Skip instances (rate leveling) are consumed by the merge but not delivered to
the application.  A skip range arrives as one decision and stays one buffered
entry; the merge consumes as much of it as a slot takes at once, and jumps
whole rounds in which every active group's next M instances are skips.
Batched instances (coordinator-side batching packs several values into one
consensus instance) are unpacked here: each inner value becomes its own
application delivery, in packing order, while the instance still counts as a
single slot of the M-per-ring round-robin quota.  A batch
reaches the merge with its values decoded: the ring role (or recovery)
decodes a body that crossed the wire before handing the instance over.

The merge also exposes the *delivery cursor* -- for every group, the next
consensus instance to deliver -- which is precisely the checkpoint tuple
``k_p`` used by the recovery protocol (Section 5.2, Predicate 1).

Subscription sets are **versioned**, not static: the reconfiguration
subsystem (:mod:`repro.reconfig`) splices new rings into the merge at an
agreed *round boundary*.  A group registered with
:meth:`add_pending_group` buffers decisions without delivering them; once
:meth:`set_join_round` fixes its join round ``R``, the group participates in
the round-robin from round ``R`` onwards, delivering from its instance 0.
Because the join round is derived from the position of a reconfiguration
command in the delivery sequence itself, every learner of a partition splices
the ring at exactly the same point and determinism is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import MulticastError
from repro.types import GroupId, InstanceId, Value, ValueBatch

__all__ = ["Delivery", "DeterministicMerge"]


@dataclass(slots=True)
class Delivery:
    """One application-visible delivery.

    Slotted and non-frozen (one is allocated per delivered value, where the
    frozen ``object.__setattr__`` init cost is measurable); treat instances
    as immutable.
    """

    group: GroupId
    instance: InstanceId
    value: Value


class DeterministicMerge:
    """Round-robin merge of decided instances from multiple rings."""

    __slots__ = (
        "_groups",
        "m",
        "_deliver",
        "_buffers",
        "_spans",
        "_buffered_to",
        "_next_instance",
        "_join_round",
        "_round",
        "_round_index",
        "_delivered_in_round",
        "_active_cache",
        "_next_join",
        "subscription_version",
        "delivered_count",
        "skipped_count",
        "batched_instances",
        "deliveries",
        "keep_history",
        "paused",
        "_advancing",
    )

    def __init__(
        self,
        groups: Sequence[GroupId],
        m: int = 1,
        deliver: Optional[Callable[[Delivery], None]] = None,
        join_rounds: Optional[Dict[GroupId, Optional[int]]] = None,
    ) -> None:
        if m < 1:
            raise MulticastError("the merge granularity M must be at least 1")
        #: Groups in delivery order (the paper orders them by ring identifier).
        self._groups: List[GroupId] = sorted(dict.fromkeys(groups))
        self.m = m
        self._deliver = deliver
        #: Per group, what is decided and not yet consumed: first instance ->
        #: value, and in ``_spans`` how many instances from there the value
        #: stands for where that is more than one (a skip range).
        self._buffers: Dict[GroupId, Dict[InstanceId, Value]] = {g: {} for g in self._groups}
        self._spans: Dict[GroupId, Dict[InstanceId, int]] = {g: {} for g in self._groups}
        #: Per group, an instance no buffered entry reaches: a decision at or
        #: above it overlaps none.
        self._buffered_to: Dict[GroupId, InstanceId] = {g: 0 for g in self._groups}
        self._next_instance: Dict[GroupId, InstanceId] = {g: 0 for g in self._groups}
        #: Round at which each group joined the round-robin.  ``None`` marks a
        #: *pending* group: decisions are buffered but never delivered until a
        #: join round is fixed with :meth:`set_join_round`.
        self._join_round: Dict[GroupId, Optional[int]] = {g: 0 for g in self._groups}
        if join_rounds:
            for group, round_ in join_rounds.items():
                if group not in self._buffers:
                    self._add_buffers(group)
                self._join_round[group] = round_
        self._round = 0
        self._round_index = 0
        self._delivered_in_round = 0
        self._active_cache: Optional[List[GroupId]] = None
        #: The lowest join round above the current round, computed with the
        #: active set: the only round increment that can change that set.
        self._next_join: Optional[int] = None
        #: Bumped on every subscription-set change (add/splice); lets nodes and
        #: the registry track which configuration epoch a learner runs.
        self.subscription_version = 0
        self.delivered_count = 0
        self.skipped_count = 0
        #: Instances that carried more than one application value
        #: (coordinator-side batching).
        self.batched_instances = 0
        self.deliveries: List[Delivery] = []
        #: When True, deliveries are appended to :attr:`deliveries` (useful in
        #: tests); large experiments disable it to save memory.
        self.keep_history = True
        #: While paused, decisions are buffered but nothing is delivered.
        #: Used during replica recovery: live decisions keep arriving while
        #: the checkpoint is being installed and must not be applied early.
        self.paused = False
        # Re-entrancy guard: delivery callbacks (e.g. splice activation) may
        # call back into advance(); the outer loop picks up the new state.
        self._advancing = False

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    @property
    def groups(self) -> List[GroupId]:
        """Every known group, including pending (not yet spliced) ones."""
        return list(self._groups)

    def has_group(self, group: GroupId) -> bool:
        """O(1) subscription check (``groups`` builds a list; this does not)."""
        return group in self._buffers

    @property
    def active_groups(self) -> List[GroupId]:
        """Groups participating in the round-robin at the current round."""
        return list(self._active())

    @property
    def current_round(self) -> int:
        return self._round

    def join_round(self, group: GroupId) -> Optional[int]:
        return self._join_round[group]

    def subscription_schedule(self) -> Dict[GroupId, Optional[int]]:
        """``group -> join round`` (``None`` for pending groups)."""
        return dict(self._join_round)

    def add_group(self, group: GroupId) -> None:
        """Subscribe to an additional group (only before any delivery from it)."""
        if group in self._join_round and self._join_round[group] is not None:
            return
        self._register(group, self._round)
        # Restart the round-robin deterministically from the first group.
        self._round_index = 0
        self._delivered_in_round = 0

    def add_pending_group(self, group: GroupId) -> None:
        """Start buffering ``group``'s decisions without delivering them.

        Used while a ring is being added live: the learner already receives
        decisions from the new ring, but delivery only starts at the splice
        round agreed through :meth:`set_join_round`.
        """
        if group in self._buffers:
            return
        self._register(group, None)

    def set_join_round(self, group: GroupId, round_: int) -> None:
        """Fix the round at which a pending ``group`` enters the round-robin."""
        if group not in self._buffers:
            self._register(group, round_)
        existing = self._join_round[group]
        if existing is not None:
            if existing != round_:
                raise MulticastError(
                    f"group {group!r} already joined at round {existing}, "
                    f"cannot re-join at round {round_}"
                )
            return
        if round_ <= self._round:
            raise MulticastError(
                f"group {group!r} cannot join at round {round_}: "
                f"the merge is already at round {self._round}"
            )
        self._join_round[group] = round_
        self._invalidate_active()
        self.subscription_version += 1
        self.advance()

    def _register(self, group: GroupId, round_: Optional[int]) -> None:
        if group not in self._buffers:
            self._add_buffers(group)
        self._join_round[group] = round_
        self._invalidate_active()
        self.subscription_version += 1

    def _add_buffers(self, group: GroupId) -> None:
        self._groups = sorted(self._groups + [group])
        self._buffers[group] = {}
        self._spans[group] = {}
        self._buffered_to[group] = 0
        self._next_instance[group] = 0

    # ------------------------------------------------------------------
    # input
    # ------------------------------------------------------------------
    def on_decision(
        self, group: GroupId, instance: InstanceId, value: Value, count: int = 1
    ) -> None:
        """Feed ``value``, decided in ``group`` for ``count`` instances from
        ``instance`` (a skip range is one call); drains whatever became deliverable."""
        buffer = self._buffers.get(group)
        if buffer is None:
            raise MulticastError(f"not subscribed to group {group!r}")
        next_instance = self._next_instance[group]
        end = instance + count
        if end <= next_instance:
            return  # duplicate (e.g. redelivered during recovery)
        if instance < next_instance:
            instance = next_instance
        if instance >= self._buffered_to[group]:
            # Above everything buffered: how the ring role hands decisions over.
            buffer[instance] = value
            if end - instance > 1:
                self._put(group, instance, end, value)
            self._buffered_to[group] = end
        else:
            self._overwrite(group, instance, end, value)
        # Only a decision at the group's cursor can unblock delivery right
        # now; instances buffered ahead of the cursor are consumed inside a
        # later advance loop when the cursor reaches them.  (advance()
        # inlined: this is the single hottest merge entry point.)
        if instance == next_instance and not self.paused and not self._advancing:
            self._advancing = True
            try:
                self._advance_loop()
            finally:
                self._advancing = False

    def _overwrite(self, group: GroupId, first: InstanceId, end: InstanceId, value: Value) -> None:
        """Buffer ``value`` for ``[first, end)`` over what overlaps it there: a
        later decision replaces an earlier one instance by instance."""
        buffer = self._buffers[group]
        spans = self._spans[group]
        for start in [s for s in buffer if s < end and s + spans.get(s, 1) > first]:
            earlier = buffer.pop(start)
            stop = start + spans.pop(start, 1)
            if start < first:
                self._put(group, start, first, earlier)
            if stop > end:
                self._put(group, end, stop, earlier)
        self._put(group, first, end, value)
        self._buffered_to[group] = max(self._buffered_to[group], end)

    def _put(self, group: GroupId, first: InstanceId, end: InstanceId, value: Value) -> None:
        self._buffers[group][first] = value
        if end - first > 1:
            self._spans[group][first] = end - first

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Suspend deliveries (decisions are still buffered)."""
        self.paused = True

    def resume(self) -> int:
        """Resume deliveries and drain whatever became deliverable while paused."""
        self.paused = False
        return self.advance()

    def _invalidate_active(self) -> None:
        self._active_cache = None

    def _active(self) -> List[GroupId]:
        if self._active_cache is None:
            round_ = self._round
            self._active_cache = [
                g
                for g in self._groups
                if self._join_round[g] is not None and self._join_round[g] <= round_
            ]
            later = [r for r in self._join_round.values() if r is not None and r > round_]
            self._next_join = min(later) if later else None
        return self._active_cache

    def advance(self) -> int:
        """Deliver everything currently deliverable; return how many instances advanced."""
        if self.paused or self._advancing:
            return 0
        self._advancing = True
        try:
            return self._advance_loop()
        finally:
            self._advancing = False

    def _advance_loop(self) -> int:
        advanced = 0
        # Hot-path bindings: this loop runs once per consumed slot on every
        # learner.  The outer dicts are only ever mutated in place, so the
        # references stay valid across delivery callbacks.
        buffers = self._buffers
        spans_of = self._spans
        next_instance = self._next_instance
        deliver = self._deliver
        keep_history = self.keep_history
        history = self.deliveries
        m = self.m
        while True:
            active = self._active_cache
            if active is None:
                active = self._active()
            if not active:
                break
            if self._round_index >= len(active):
                # Defensive: the active set shrank (cannot happen today, groups
                # never leave mid-round); realign at the next round boundary.
                self._round_index = 0
                self._round += 1
                self._invalidate_active()
                continue
            group = active[self._round_index]
            buffer = buffers[group]
            instance = next_instance[group]
            spans = spans_of[group]
            count = spans.get(instance, 1) if spans else 1
            if count > 1:
                # A range at the cursor.  Skips go as far as the slot takes
                # (whole rounds of them at a round start); any other value is
                # delivered instance by instance.
                taken = 1
                if buffer[instance].is_skip:
                    if self._round_index == 0 and self._delivered_in_round == 0:
                        skipped = self._skip_rounds(active)
                        if skipped:
                            advanced += skipped
                            continue
                    taken = min(count, m - self._delivered_in_round)
                value = self._take(group, taken)
            else:
                value = buffer.pop(instance, None)
                if value is None:
                    break  # the current ring is behind: wait (this is what rate leveling unblocks)
                taken = 1
                next_instance[group] = instance + 1
            advanced += taken
            if value.is_skip:
                self.skipped_count += taken
            else:
                # A batched instance (coordinator-side batching) unpacks into
                # several application deliveries, but still consumes exactly
                # one slot of the M-instances-per-ring round-robin quota:
                # the round structure is defined over consensus instances,
                # not over the values they carry.
                payload = value.payload
                if isinstance(payload, ValueBatch):
                    inner_values = payload.values
                    if len(inner_values) > 1:
                        self.batched_instances += 1
                else:
                    inner_values = (value,)
                for inner in inner_values:
                    self.delivered_count += 1
                    # Statistics-only runs (no history, no callback) skip
                    # the Delivery allocation entirely.
                    if keep_history or deliver is not None:
                        delivery = Delivery(group, instance, inner)
                        if keep_history:
                            history.append(delivery)
                        if deliver is not None:
                            deliver(delivery)
            self._delivered_in_round += taken
            if self._delivered_in_round >= m:
                self._delivered_in_round = 0
                self._round_index += 1
                if self._round_index >= len(active):
                    self._round_index = 0
                    self._round += 1
                    if self._round == self._next_join:
                        self._invalidate_active()
        return advanced

    def _skip_rounds(self, active: List[GroupId]) -> int:
        """At a round start, consume every whole round in which each active
        group's next M instances are buffered skips, up to the next join
        round.  Returns how many instances that skipped (0: not one round)."""
        rounds = self._next_join - self._round if self._next_join is not None else None
        for group in active:
            cursor = self._next_instance[group]
            count = self._spans[group].get(cursor)
            if count is None or not self._buffers[group][cursor].is_skip:
                return 0
            if rounds is None or count // self.m < rounds:
                rounds = count // self.m
        if not rounds:
            return 0
        step = rounds * self.m
        for group in active:
            self._take(group, step)
        self.skipped_count += step * len(active)
        self._round += rounds
        if self._round == self._next_join:
            self._invalidate_active()
        return step * len(active)

    def _take(self, group: GroupId, taken: int) -> Value:
        """Consume ``taken`` instances of the range at ``group``'s cursor."""
        cursor = self._next_instance[group]
        value = self._buffers[group].pop(cursor)
        end = cursor + self._spans[group].pop(cursor)
        if cursor + taken < end:
            self._put(group, cursor + taken, end, value)
        self._next_instance[group] = cursor + taken
        return value

    # ------------------------------------------------------------------
    # recovery support
    # ------------------------------------------------------------------
    def delivery_cursor(self) -> Dict[GroupId, InstanceId]:
        """For each active group, the next instance that will be delivered.

        A checkpoint taken now is identified by this tuple: it reflects the
        effect of every instance strictly below the cursor, per group.
        Pending groups (registered but not yet spliced) are excluded: no
        instance of theirs has been delivered.
        """
        return {
            g: self._next_instance[g]
            for g in self._groups
            if self._join_round[g] is not None
        }

    def next_instance(self, group: GroupId) -> InstanceId:
        return self._next_instance[group]

    def fast_forward(self, cursor: Dict[GroupId, InstanceId]) -> None:
        """Skip directly to ``cursor`` (used after installing a checkpoint).

        Buffered decisions below the new cursor are discarded.  The round-robin
        pointer is recomputed from the cursor so that the post-recovery
        delivery order is exactly the one a replica that never crashed would
        follow (Predicate 1 guarantees the cursor is a valid merge prefix:
        ``x < y  =>  k[x] >= k[y]`` among groups with equal join rounds).
        """
        for group, instance in cursor.items():
            if group not in self._buffers:
                raise MulticastError(f"not subscribed to group {group!r}")
            if instance < self._next_instance[group]:
                raise MulticastError(
                    f"cannot fast-forward group {group!r} backwards "
                    f"({self._next_instance[group]} -> {instance})"
                )
            self._next_instance[group] = instance
            buffer, spans = self._buffers[group], self._spans[group]
            self._buffers[group], self._spans[group] = {}, {}
            for first, value in buffer.items():
                end = first + spans.get(first, 1)
                if end > instance:
                    self._put(group, max(first, instance), end, value)
        self._recompute_round_position()
        self.advance()

    def _recompute_round_position(self) -> None:
        """Derive ``(_round, _round_index, _delivered_in_round)`` from the cursor.

        A group ``g`` that joined at round ``R_g`` and whose next instance is
        ``n_g`` has completed ``R_g + n_g // M`` rounds; the merge's current
        round is the minimum over the non-pending groups.  Within that round,
        the active group is the first (in identifier order) that has not
        finished its M instances of the round.
        """
        scheduled = [g for g in self._groups if self._join_round[g] is not None]
        if not scheduled:
            self._round = 0
            self._round_index = 0
            self._delivered_in_round = 0
            self._invalidate_active()
            return
        self._round = min(
            self._join_round[g] + self._next_instance[g] // self.m for g in scheduled
        )
        self._invalidate_active()
        active = self._active()
        for index, group in enumerate(active):
            done_in_round = self._next_instance[group] - (
                self._round - self._join_round[group]
            ) * self.m
            if done_in_round < self.m:
                self._round_index = index
                self._delivered_in_round = done_in_round
                return
        # Every active group finished the round (only possible when the cursor
        # is exactly at a round boundary): start the next round.
        self._round += 1
        self._round_index = 0
        self._delivered_in_round = 0
        self._invalidate_active()

    def pending(self, group: GroupId) -> int:
        """Number of buffered (decided but not yet deliverable) instances for ``group``."""
        return len(self._buffers[group]) + sum(
            count - 1 for count in self._spans[group].values()
        )
