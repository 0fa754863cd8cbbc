"""The Multi-Ring Paxos node.

A :class:`MultiRingNode` is a :class:`~repro.ringpaxos.node.RingHost` that
additionally

* subscribes to multicast groups as a learner and merges their decision
  streams deterministically (:class:`~repro.multiring.merge.DeterministicMerge`),
* runs the rate-leveling policy for every ring it coordinates, and
* exposes the atomic multicast API of the paper: ``multicast(group, message)``
  on the sending side and a delivery callback on the receiving side.

In a typical deployment (Section 5.1) clients act as proposers and replicas
as learners; :mod:`repro.smr` builds the replication layer on top of the
delivery callback provided here.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import MultiRingConfig, RingConfig
from repro.coordination.registry import Registry
from repro.errors import MulticastError
from repro.multiring.leveling import RateLeveler
from repro.multiring.merge import Delivery, DeterministicMerge
from repro.reconfig.commands import ProposeControl, SpliceRing
from repro.ringpaxos.node import RingHost
from repro.ringpaxos.role import RingRole
from repro.runtime.cpu import CPUConfig
from repro.runtime.interfaces import Runtime, StableStore
from repro.types import CONTROL_CLASSES, GroupId, InstanceId, Value

__all__ = ["MultiRingNode"]

DeliveryCallback = Callable[[Delivery], None]


class MultiRingNode(RingHost):
    """A process participating in Multi-Ring Paxos."""

    def __init__(
        self,
        world: Runtime,
        registry: Registry,
        name: str,
        config: Optional[MultiRingConfig] = None,
        site: Optional[str] = None,
        cpu_config: Optional[CPUConfig] = None,
    ) -> None:
        super().__init__(world, registry, name, site=site, cpu_config=cpu_config)
        self.config = config or MultiRingConfig.datacenter()
        self.merge = DeterministicMerge(groups=[], m=self.config.m, deliver=self._on_merged_delivery)
        self._delivery_callbacks: List[DeliveryCallback] = []
        #: Callbacks registered for a single group only (``on_deliver`` with
        #: ``group=``); spares every other ring's deliveries the call.
        self._group_delivery_callbacks: Dict[GroupId, List[DeliveryCallback]] = {}
        self._control_callbacks: List[DeliveryCallback] = []
        self._levelers: Dict[GroupId, RateLeveler] = {}
        self._subscribed: List[GroupId] = []
        #: Subscription schedule: group -> round at which it entered (or will
        #: enter) this learner's merge; ``None`` while a splice is pending.
        #: Survives crashes (in a real system it lives in the registry) so the
        #: merge can be rebuilt with the same round structure.
        self._join_rounds: Dict[GroupId, Optional[int]] = {}
        self.register_handler(ProposeControl, self._on_propose_control)
        self.deliveries_count = 0
        self.control_deliveries_count = 0
        # True once on_start armed the leveling timers; lets join_ring tell a
        # running node joining a new ring apart from a not-yet-started node.
        self._leveling_started = False
        #: Set by the recovery manager: hold deliveries after a restart until
        #: a checkpoint has been installed.  A node without one restarts its
        #: merge at instance 0 and waits at that hole; ring gap repair (when
        #: ``RingConfig.repair_interval`` is set) refills it from the
        #: acceptors' logs.
        self.pause_on_recover = False

    # ------------------------------------------------------------------
    # ring membership and subscriptions
    # ------------------------------------------------------------------
    def join_ring(
        self,
        group: GroupId,
        ring_config: Optional[RingConfig] = None,
        disk: Optional[StableStore] = None,
        defer_subscribe: bool = False,
    ) -> RingRole:
        """Take up this node's roles in ``group``'s ring.

        With ``defer_subscribe`` a learner joins the ring (decisions start
        being buffered) but does not yet deliver from it: the merge splice
        happens later, at the round boundary agreed through a
        :class:`~repro.reconfig.commands.SpliceRing` control command.
        """
        role = super().join_ring(group, ring_config or self.config.ring, disk=disk)
        if role.is_coordinator and group not in self._levelers:
            self._levelers[group] = RateLeveler(role, self.config)
            if self._leveling_started:
                # This node is already running and joined a new ring: arm the
                # leveling timer now.  (A node *created* at runtime instead has
                # its on_start pending, which arms every leveler exactly once.)
                self.set_periodic_timer(self.config.delta, self._levelers[group].on_interval)
        if role.is_learner:
            if defer_subscribe:
                self._prepare_splice(group)
            else:
                self._subscribe_group(group)
        return role

    def _subscribe_group(self, group: GroupId) -> None:
        if group in self._subscribed:
            return
        self._subscribed.append(group)
        self.merge.add_group(group)
        self._join_rounds[group] = self.merge.join_round(group)
        self.registry.subscribe(self.name, [group])

    def _prepare_splice(self, group: GroupId) -> None:
        """Buffer decisions from ``group`` without delivering (splice pending)."""
        if group in self._subscribed or group in self._join_rounds:
            return
        self.merge.add_pending_group(group)
        self._join_rounds[group] = None

    def activate_splice(self, group: GroupId) -> int:
        """Splice a pending ``group`` into the merge at the next round boundary.

        Called when the :class:`~repro.reconfig.commands.SpliceRing` control
        command is delivered; the boundary is derived from the merge position
        at that delivery, so all learners of a partition pick the same round.
        Returns the join round.
        """
        if group in self._subscribed:
            return self._join_rounds[group]  # type: ignore[return-value]
        if group not in self._join_rounds:
            raise MulticastError(
                f"{self.name} cannot splice {group!r}: it never joined that ring"
            )
        join_round = self.merge.current_round + 1
        self.merge.set_join_round(group, join_round)
        self._join_rounds[group] = join_round
        self._subscribed.append(group)
        self.registry.subscribe(self.name, [group])
        return join_round

    @property
    def subscriptions(self) -> List[GroupId]:
        """Groups this node delivers from, in group-identifier order."""
        return sorted(self._subscribed)

    # ------------------------------------------------------------------
    # multicast API
    # ------------------------------------------------------------------
    def multicast(self, group: GroupId, payload, size_bytes: int) -> Value:
        """Atomically multicast ``payload`` to ``group`` (the paper's ``multicast(γ, m)``)."""
        self.check_proposer(group)
        return self.propose(group, payload, size_bytes)

    def check_proposer(self, group: GroupId) -> None:
        """Raise :class:`MulticastError` unless this node is on ``group``'s ring to propose."""
        if group not in self.roles:
            raise MulticastError(
                f"{self.name} cannot multicast to {group!r}: it is not a proposer of that ring"
            )

    def on_deliver(self, callback: DeliveryCallback, group: Optional[GroupId] = None) -> None:
        """Register the application-level delivery callback (``deliver(m)``).

        With ``group`` the callback only fires for that group's deliveries
        (cheaper than filtering inside the callback when a node subscribes
        to many rings).
        """
        if group is None:
            self._delivery_callbacks.append(callback)
        else:
            self._group_delivery_callbacks.setdefault(group, []).append(callback)

    def on_control(self, callback: DeliveryCallback) -> None:
        """Register a callback for delivered reconfiguration control commands."""
        self._control_callbacks.append(callback)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def notify_decision(
        self, group: GroupId, instance: InstanceId, value: Value, count: int = 1
    ) -> None:
        # Overrides the RingHost hook: the role releases each group's
        # decisions in instance order (a skip range as one), straight into
        # the merge.
        merge = self.merge
        if merge.has_group(group):
            merge.on_decision(group, instance, value, count)

    def _on_merged_delivery(
        self, group: GroupId, instance: InstanceId, values: Tuple[Value, ...]
    ) -> None:
        """Deliver one merged instance: one :class:`Delivery` per value, in
        packing order, to every callback registered for it.

        A traced value's ``merge-wait`` span closes as it is released, and
        its callbacks run inside an ``apply`` span.  That span is zero-width
        under the simulator (callbacks cannot advance simulated time
        synchronously) but measures real execution time on the live
        backend, where ``now`` tracks the wall clock.
        """
        callbacks = self._delivery_callbacks
        group_callbacks = self._group_delivery_callbacks.get(group)
        tracer = self._tracer if self._tracer.enabled else None
        for value in values:
            delivery = Delivery(group, instance, value)
            if value.payload.__class__ in CONTROL_CLASSES:
                # Only a ForwardedCommand shares a batch with application
                # values; every other control command is its instance's only value.
                self._on_control_delivery(delivery)
                continue
            self.deliveries_count += 1
            trace_id = value.trace if tracer is not None else None
            if trace_id is not None:
                released_at = self._sim._now
                learned_at = tracer.take_mark(trace_id, f"merge:{self.name}")
                if learned_at is not None:
                    tracer.record(
                        trace_id, "merge-wait", self.name, learned_at, released_at,
                        group=group, instance=instance,
                    )
            for callback in callbacks:
                callback(delivery)
            if group_callbacks is not None:
                for callback in group_callbacks:
                    callback(delivery)
            if trace_id is not None:
                tracer.record(
                    trace_id, "apply", self.name, released_at, self._sim._now,
                    group=group, instance=instance,
                )

    def _on_control_delivery(self, delivery: Delivery) -> None:
        """Handle a reconfiguration control command at its agreed position."""
        self.control_deliveries_count += 1
        payload = delivery.value.payload
        if isinstance(payload, SpliceRing):
            if self.name in payload.learners and payload.group in self._join_rounds:
                self.activate_splice(payload.group)
        for callback in self._control_callbacks:
            callback(delivery)

    def _on_propose_control(self, sender: str, msg: ProposeControl) -> None:
        """Multicast a control payload on behalf of a non-member (controller)."""
        role = self.roles.get(msg.group)
        if role is None or not (role.is_proposer or role.is_coordinator):
            return
        size = msg.payload_bytes
        if size is None:
            size = getattr(msg.payload, "size_bytes", 256)
        self.multicast(msg.group, msg.payload, size)

    # ------------------------------------------------------------------
    # rate leveling
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        super().on_start()
        self._leveling_started = True
        for group, leveler in self._levelers.items():
            self.set_periodic_timer(self.config.delta, leveler.on_interval)

    def leveler(self, group: GroupId) -> Optional[RateLeveler]:
        return self._levelers.get(group)

    def skip_statistics(self) -> Dict[GroupId, int]:
        """Total skip instances proposed per coordinated ring."""
        return {group: leveler.total_skips for group, leveler in self._levelers.items()}

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _metric_samples(self):
        samples = super()._metric_samples()
        node = self.name
        merge = self.merge
        samples.append(("mrp_merge_deliveries_total", {"node": node}, merge.delivered_count))
        samples.append(("mrp_merge_skips_total", {"node": node}, merge.skipped_count))
        samples.append(("mrp_deliveries_total", {"node": node}, self.deliveries_count))
        for group in self._subscribed:
            # Cursor lag: decided-but-undelivered instances buffered behind
            # the deterministic merge's round-robin cursor.
            samples.append(
                ("mrp_merge_cursor_lag", {"node": node, "group": group}, merge.pending(group))
            )
        for group, leveler in self._levelers.items():
            samples.append(
                ("mrp_skip_instances_total", {"node": node, "group": group}, leveler.total_skips)
            )
        return samples

    # ------------------------------------------------------------------
    # recovery hooks used by :mod:`repro.recovery`
    # ------------------------------------------------------------------
    def delivery_cursor(self) -> Dict[GroupId, InstanceId]:
        """The per-group next-instance tuple identifying the node's current state."""
        return self.merge.delivery_cursor()

    def fast_forward(self, cursor: Dict[GroupId, InstanceId]) -> None:
        """Jump the merge (and the ring roles' learner bookkeeping) to ``cursor``.

        The checkpoint behind ``cursor`` covers every instance below it, so
        the roles' in-order delivery cursors jump there directly -- those
        instances will never circulate again and must not be waited for.
        """
        self.merge.fast_forward(cursor)
        for group, next_instance in cursor.items():
            role = self.roles.get(group)
            if role is None:
                continue
            role.fast_forward_delivery(next_instance)

    def on_crash(self) -> None:
        super().on_crash()
        # Everything the learner holds in memory is gone: the merge buffers
        # and its cursor, and with them the roles' release state, which
        # restarts at instance 0 with the merge so that a role's release end
        # stays the merge's end for its group.  Stable acceptor logs (handled
        # in RingRole.on_host_crash) survive, and so does the roles' learned
        # set, which a coordinator's repair relies on.  The subscription
        # schedule (which ring joined at which round) is restored from the
        # node's configuration view so that the rebuilt merge has the same
        # round structure as before the crash.
        self.merge = DeterministicMerge(
            groups=self.subscriptions,
            m=self.config.m,
            deliver=self._on_merged_delivery,
            join_rounds=dict(self._join_rounds),
        )
        for role in self.roles.values():
            role.restart_release()

    def on_recover(self) -> None:
        super().on_recover()
        # Hold back deliveries until the recovery manager has installed a
        # checkpoint and fast-forwarded the merge; live decisions arriving in
        # the meantime are buffered.
        if self.pause_on_recover:
            self.merge.pause()
        # Timers for rate leveling must be re-armed because crash() cancelled them.
        for group, leveler in self._levelers.items():
            self.set_periodic_timer(self.config.delta, leveler.on_interval)
