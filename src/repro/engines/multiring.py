"""Engine #1: Multi-Ring Paxos behind the :class:`OrderingEngine` seam.

A thin adapter over :class:`~repro.multiring.deployment.Deployment` -- the
protocol stack is untouched and the adapter adds nothing to the per-message
hot path (submission goes straight to ``Deployment.multicast``, deliveries
ride the node's existing per-group callback fan-out).  The golden delivery
traces and the perf regression gate pin that down.

Multi-group addressing: Multi-Ring Paxos orders each ring independently and
achieves multi-group delivery by *subscription* -- a learner subscribes to
several rings and merges them deterministically.  A message addressed to
more than one group therefore needs a ring whose subscribers span all of its
destinations.  The adapter routes such messages to a designated ring (see
:meth:`MultiRingEngine.set_multi_group_route`), typically a "global" ring
every learner subscribes to.  That ring is exactly where Multi-Ring Paxos
stops being *genuine*: its messages reach every subscriber, destinations or
not, which is the trade-off the shootout bench measures against the
White-Box engine.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.engines.base import DeliveryCallback, EngineSpec, GroupDescriptor, OrderingEngine
from repro.errors import ConfigurationError, MulticastError
from repro.types import GroupId, Value

__all__ = ["MultiRingEngine"]


class MultiRingEngine(OrderingEngine):
    """The paper's Multi-Ring Paxos stack as a pluggable ordering engine."""

    name = "multiring"
    supports_live = True

    def __init__(self) -> None:
        self.runtime = None
        self.deployment = None
        self._multi_route: Optional[GroupId] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def build(self, runtime, config):
        from repro.multiring.deployment import Deployment

        if self.deployment is not None:
            raise ConfigurationError("engine already built")
        self.runtime = runtime
        self.deployment = Deployment(runtime, config)
        return self.deployment

    def add_group(self, spec: EngineSpec) -> GroupDescriptor:
        from repro.multiring.deployment import RingSpec

        options = dict(spec.options)
        ring_config = options.pop("ring_config", None)
        defer_learners = options.pop("defer_learners", None)
        multi_group_route = options.pop("multi_group_route", False)
        if options:
            raise ConfigurationError(
                f"unknown multiring group options {sorted(options)!r}"
            )
        self.deployment.add_ring(
            RingSpec(
                group=spec.group,
                members=list(spec.members),
                acceptors=list(spec.acceptors) if spec.acceptors is not None else None,
                proposers=list(spec.proposers) if spec.proposers is not None else None,
                learners=list(spec.learners) if spec.learners is not None else None,
                coordinator=spec.coordinator,
                storage_mode=spec.storage_mode,
            ),
            sites=spec.sites,
            ring_config=ring_config,
            defer_learners=defer_learners,
        )
        if multi_group_route:
            self.set_multi_group_route(spec.group)
        return self.descriptor(spec.group)

    def set_multi_group_route(self, group: GroupId) -> None:
        """Route messages addressed to several groups through ``group``'s ring.

        The ring's learner set must cover every possible destination; the
        deployment builder (not the engine) is responsible for subscribing
        all learners to it.
        """
        if group not in self.deployment.rings:
            raise ConfigurationError(f"multi-group route {group!r} is not a declared ring")
        self._multi_route = group

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def multicast(
        self,
        dests: Tuple[GroupId, ...],
        payload: Any,
        size_bytes: int,
        via: Optional[str] = None,
    ) -> Value:
        return self.deployment.multicast(self.route_of(dests), payload, size_bytes, via=via)

    def route_of(self, dests: Tuple[GroupId, ...]) -> GroupId:
        if len(dests) == 1:
            return dests[0]
        if self._multi_route is None:
            raise MulticastError(
                "multi-group messages need a designated ring: declare one with "
                "multi_group_route=True (or set_multi_group_route) whose learners "
                "cover every destination"
            )
        return self._multi_route

    def next_proposer(self, group: GroupId) -> str:
        return self.deployment.next_proposer(group)

    def on_deliver(self, group: GroupId, callback: DeliveryCallback,
                   node: Optional[str] = None) -> str:
        descriptor = self.descriptor(group)
        if not descriptor.learners:
            raise MulticastError(f"group {group!r} has no learners to deliver at")
        witness = node or descriptor.learners[0]
        self.deployment.node(witness).on_deliver(callback, group=group)
        return witness

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def groups(self) -> List[GroupId]:
        return self.deployment.groups()

    def descriptor(self, group: GroupId) -> GroupDescriptor:
        ring = self.deployment.ring(group)
        spec = self.deployment.ring_specs[group]
        return GroupDescriptor(
            group=group,
            members=list(spec.members),
            proposers=list(ring.proposers),
            acceptors=list(ring.acceptors),
            learners=list(ring.learners),
            coordinator=ring.coordinator,
        )

    def node(self, name: str):
        return self.deployment.node(name)

    def stats(self) -> Dict[str, Any]:
        nodes = self.deployment.nodes
        return {
            "engine": self.name,
            "deliveries": {name: node.deliveries_count for name, node in nodes.items()},
            "messages_sent": {name: node.messages_sent for name, node in nodes.items()},
            "skips": {
                name: sum(node.skip_statistics().values())
                for name, node in nodes.items()
                if node.skip_statistics()
            },
            "multi_group_route": self._multi_route,
        }
