"""The configuration registry (Zookeeper substitute).

The registry stores, per world:

* **ring descriptors** -- which multicast group maps to which ring, the ring's
  member processes and their roles, and the current coordinator;
* the **membership view** -- which ring hosts are up, and per ring the
  overlay of its up members that every forward reads (the paper's ring is
  reconfigured through Zookeeper; no process asks another whether it lives);
* **subscriptions** -- which learners subscribe to which groups (the paper's
  "inverted" group-addressing semantics: a learner may subscribe to any set of
  groups);
* **partition maps** -- the data-partitioning schema of MRP-Store / dLog,
  "stored in Zookeeper and accessible to all processes" (Section 7.2);
* arbitrary **key/value configuration** with watch callbacks, which is how
  Zookeeper is typically used for small coordination metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.coordination.election import elect_coordinator
from repro.errors import CoordinationError
from repro.net.ring import RingOverlay
from repro.types import GroupId

__all__ = ["RingDescriptor", "Registry"]


@dataclass
class RingDescriptor:
    """Static description of one ring (one multicast group)."""

    group: GroupId
    overlay: RingOverlay
    proposers: List[str]
    acceptors: List[str]
    learners: List[str]
    coordinator: str

    def roles_of(self, name: str) -> Set[str]:
        roles: Set[str] = set()
        if name in self.proposers:
            roles.add("proposer")
        if name in self.acceptors:
            roles.add("acceptor")
        if name in self.learners:
            roles.add("learner")
        if name == self.coordinator:
            roles.add("coordinator")
        return roles

    @property
    def quorum_size(self) -> int:
        """Majority of the ring's acceptors."""
        return len(self.acceptors) // 2 + 1


class Registry:
    """Shared configuration store for one world."""

    def __init__(self) -> None:
        self._rings: Dict[GroupId, RingDescriptor] = {}
        self._subscriptions: Dict[str, List[GroupId]] = {}
        self._partition_maps: Dict[str, Any] = {}
        self._kv: Dict[str, Any] = {}
        self._watches: Dict[str, List[Callable[[str, Any], None]]] = {}
        #: The membership view: names of the ring hosts that registered and
        #: are not down.  A name that never registered reads down.
        self._up: Set[str] = set()
        #: group -> overlay of the ring's up members (``None`` while none is up).
        self._views: Dict[GroupId, Optional[RingOverlay]] = {}

    # ------------------------------------------------------------------
    # rings
    # ------------------------------------------------------------------
    def register_ring(
        self,
        group: GroupId,
        members_in_ring_order: Sequence[str],
        proposers: Sequence[str],
        acceptors: Sequence[str],
        learners: Sequence[str],
        coordinator: Optional[str] = None,
    ) -> RingDescriptor:
        """Register a ring for ``group``; the coordinator defaults to the elected one."""
        if group in self._rings:
            raise CoordinationError(f"group {group!r} already has a ring")
        overlay = RingOverlay(members_in_ring_order)
        for role_name, role_members in (
            ("proposer", proposers),
            ("acceptor", acceptors),
            ("learner", learners),
        ):
            for member in role_members:
                if member not in overlay:
                    raise CoordinationError(
                        f"{role_name} {member!r} is not a member of ring {group!r}"
                    )
        if not acceptors:
            raise CoordinationError(f"ring {group!r} needs at least one acceptor")
        acceptors_in_order = [name for name in overlay.members if name in set(acceptors)]
        chosen = coordinator or elect_coordinator(acceptors_in_order)
        if chosen not in acceptors:
            raise CoordinationError("the coordinator must be one of the acceptors")
        descriptor = RingDescriptor(
            group=group,
            overlay=overlay,
            proposers=list(proposers),
            acceptors=list(acceptors),
            learners=list(learners),
            coordinator=chosen,
        )
        self._rings[group] = descriptor
        self._views[group] = self._up_members(overlay)
        return descriptor

    def ring(self, group: GroupId) -> RingDescriptor:
        try:
            return self._rings[group]
        except KeyError:
            raise CoordinationError(f"no ring registered for group {group!r}") from None

    def groups(self) -> List[GroupId]:
        return list(self._rings)

    def reelect_coordinator(self, group: GroupId) -> str:
        """Re-run coordinator election for ``group`` against the membership view."""
        descriptor = self.ring(group)
        acceptors_in_order = [
            name for name in descriptor.overlay.members if name in set(descriptor.acceptors)
        ]
        descriptor.coordinator = elect_coordinator(acceptors_in_order, self.is_up)
        self._notify(f"ring/{group}/coordinator", descriptor.coordinator)
        return descriptor.coordinator

    # ------------------------------------------------------------------
    # membership view
    # ------------------------------------------------------------------
    def set_up(self, name: str, up: bool) -> None:
        """Mark ``name`` up or down: the one path that edits the view.

        A ring host is up from its construction; crashing and restarting it
        mark it down and up at the instant its ``alive`` flag flips.
        """
        if (name in self._up) == up:
            return
        if up:
            self._up.add(name)
        else:
            self._up.discard(name)
        for group, descriptor in self._rings.items():
            if name in descriptor.overlay:
                self._views[group] = self._up_members(descriptor.overlay)

    def is_up(self, name: str) -> bool:
        return name in self._up

    def first_up(self, names: Sequence[str]) -> Optional[str]:
        """The first of ``names`` that the view holds up, or ``None``."""
        for name in names:
            if name in self._up:
                return name
        return None

    def next_hop(self, group: GroupId, name: str, origin: str) -> Optional[str]:
        """Where ``name`` forwards a ring message from ``origin``, or ``None`` to stop.

        The next up member clockwise, unless circulation ends first: at the
        origin, or -- while the origin is down -- where the origin stands in
        the ring.
        """
        successor = self._views[group].successor(name)
        if successor == origin or successor == name:
            return None
        if origin not in self._up:
            ring = self._rings[group].overlay
            if ring.distance(name, origin) < ring.distance(name, successor):
                return None
        return successor

    def _up_members(self, overlay: RingOverlay) -> Optional[RingOverlay]:
        view = overlay
        for name in overlay.members:
            if name not in self._up:
                if len(view) == 1:
                    return None
                view = view.without_member(name)
        return view

    # ------------------------------------------------------------------
    # subscriptions (inverted group addressing)
    # ------------------------------------------------------------------
    def subscribe(self, learner: str, groups: Sequence[GroupId]) -> None:
        """Record that ``learner`` subscribes to ``groups`` (order preserved)."""
        for group in groups:
            if group not in self._rings:
                raise CoordinationError(f"cannot subscribe to unknown group {group!r}")
        existing = self._subscriptions.setdefault(learner, [])
        for group in groups:
            if group not in existing:
                existing.append(group)
        self._notify(f"subscriptions/{learner}", list(existing))

    def subscribers_of(self, group: GroupId) -> List[str]:
        return [
            learner
            for learner, groups in self._subscriptions.items()
            if group in groups
        ]

    def partition_of(self, learner: str) -> List[GroupId]:
        """The learner's *partition identity*: its subscription set in group order.

        Replicas that deliver from the same set of groups form a partition and
        evolve through the same sequence of states (Section 5.2).
        """
        return sorted(self._subscriptions.get(learner, []))

    def partition_peers(self, learner: str) -> List[str]:
        """Other learners with exactly the same subscription set."""
        mine = self.partition_of(learner)
        return [
            other
            for other in self._subscriptions
            if other != learner and self.partition_of(other) == mine
        ]

    # ------------------------------------------------------------------
    # partition maps and generic configuration
    # ------------------------------------------------------------------
    def store_partition_map(self, service: str, partition_map: Any) -> None:
        self._partition_maps[service] = partition_map
        self._notify(f"partition-map/{service}", partition_map)

    def partition_map(self, service: str) -> Any:
        try:
            return self._partition_maps[service]
        except KeyError:
            raise CoordinationError(f"no partition map stored for service {service!r}") from None

    def set(self, key: str, value: Any) -> None:
        self._kv[key] = value
        self._notify(key, value)

    def get(self, key: str, default: Any = None) -> Any:
        return self._kv.get(key, default)

    def watch(self, key: str, callback: Callable[[str, Any], None]) -> None:
        """Invoke ``callback(key, value)`` whenever ``key`` (or a tracked path) changes."""
        self._watches.setdefault(key, []).append(callback)

    def _notify(self, key: str, value: Any) -> None:
        for callback in self._watches.get(key, []):
            callback(key, value)
