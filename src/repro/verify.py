"""One safety oracle for atomic multicast runs, on either backend.

A :class:`DeliveryLog` records each node's deliveries in order, and the ids
each value carries (what a client's ack names).  :func:`check` judges it:

* **total-order** -- agreement and per-group total order: one value uid per
  position ``(group, instance, index in instance)`` at all nodes, and each
  incarnation of a node delivers an unbroken stretch of a group's positions;
* **integrity** -- no value uid twice in one incarnation of a node;
* **acyclic-order** -- each group's order joined with every node's steps from
  one group to another has no cycle (Generic Multicast's per-conflict-relation
  acyclicity, arXiv 2410.01901, with every pair of values in conflict);
* **no-acked-write-lost** -- every acked id is carried by a value that every
  live subscriber of its group delivered, or that the checkpoint its current
  incarnation started from covers: an instance below its first delivery from
  the group since the restart, or below its cursor if it has delivered none.

A client retry may get one command decided twice, in two values: integrity
is judged per value uid, the ack check per command id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, Set, Tuple

from repro.types import GroupId, InstanceId

__all__ = ["InvariantResult", "verdict", "DeliveryLog", "acks_of", "lost_acks", "check"]

#: Each live node's delivery cursor: group -> next instance to deliver.
Cursors = Mapping[str, Mapping[GroupId, InstanceId]]


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of one invariant check."""

    name: str
    passed: bool
    detail: str

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def verdict(name: str, failures: List[str], ok: str) -> InvariantResult:
    """``name`` passed with ``ok`` as its detail, or failed with the failures."""
    return InvariantResult(name, not failures, "; ".join(failures) or ok)


class DeliveryLog:
    """``sequences[node]``: ``(group, instance, uid, t)`` per delivered value,
    in order; ``restarts[node]``: where each later incarnation begins in it;
    ``carried[uid]``: the ids a value carries, for values that carry any."""

    def __init__(self) -> None:
        self.sequences: Dict[str, List[Tuple[GroupId, InstanceId, int, float]]] = {}
        self.restarts: Dict[str, List[int]] = {}
        self.carried: Dict[int, Tuple[Hashable, ...]] = {}
        self._merges: Dict[str, object] = {}

    def attach(self, node, carried=None) -> None:
        """Log every value ``node`` delivers (one ``on_deliver`` callback);
        ``carried(value)`` names its ids, by default a replica's command ids."""
        commands_of = getattr(node, "_commands_of", None)
        if carried is None and commands_of is not None:
            def carried(value):
                return [command.command_id for command in commands_of(value.payload)]
        name = node.name
        self._merges.setdefault(name, node.merge)

        def record(delivery) -> None:
            if node.merge is not self._merges[name]:  # a crash rebuilt the merge
                self.restart(node)
            value = delivery.value
            ids = carried(value) if carried else ()
            self.record(name, delivery.group, delivery.instance, value.uid, node.now, ids)

        node.on_deliver(record)

    def restart(self, node) -> None:
        """Begin ``node``'s next incarnation: what follows starts from a checkpoint."""
        self._merges[node.name] = node.merge
        self.restarts.setdefault(node.name, []).append(len(self.sequences.get(node.name, ())))

    def cursors(self, nodes) -> Dict[str, Dict[GroupId, InstanceId]]:
        """Each live node's delivery cursor, for :func:`check`; a node restarted
        since its last delivery begins a new incarnation here."""
        for node in nodes:
            if self._merges.get(node.name, node.merge) is not node.merge:
                self.restart(node)
        return {node.name: node.delivery_cursor() for node in nodes}

    def record(self, node: str, group: GroupId, instance: InstanceId, uid: int,
               t: float = 0.0, carried: Iterable[Hashable] = ()) -> None:
        """Append one delivery of value ``uid`` at ``node``."""
        self.sequences.setdefault(node, []).append((group, instance, uid, t))
        if carried:
            self.carried[uid] = tuple(carried)

    def counts(self) -> Dict[str, int]:
        """Deliveries logged per node."""
        return {node: len(entries) for node, entries in sorted(self.sequences.items())}

    def runs(self):
        """``(node, entries)`` per incarnation of every node."""
        for node, entries in sorted(self.sequences.items()):
            bounds = [0, *self.restarts.get(node, ()), len(entries)]
            for start, end in zip(bounds, bounds[1:]):
                yield node, entries[start:end]


def acks_of(client) -> Set[Hashable]:
    """The ids ``client`` completes from now on: wraps its ``finish``, so
    only a caller that asks pays for the set."""
    acked: Set[Hashable] = set()
    finish = client.finish

    def finish_and_note(key: Hashable) -> None:
        acked.add(key)
        finish(key)

    client.finish = finish_and_note
    return acked


def _total_order(log: DeliveryLog):
    """The verdict, and the value uid at each position."""
    owners: Dict[Tuple[GroupId, InstanceId, int], Tuple[int, str]] = {}
    failures, stretches = [], []
    for node, run in log.runs():
        reached: Dict[GroupId, Tuple[InstanceId, int]] = {}
        positions = []
        for group, instance, uid, _t in run:
            before = reached.get(group, (-1, 0))
            index = before[1] + 1 if before[0] == instance else 0
            first, by = owners.setdefault((group, instance, index), (uid, node))
            if first != uid:
                failures.append(f"{group}[{instance}.{index}]: {by} delivered {first}, {node} {uid}")
            if before >= (instance, index):
                failures.append(f"{node}: {group}[{instance}.{index}] after [{before[0]}.{before[1]}]")
            reached[group] = (instance, index)
            positions.append((group, instance, index))
        stretches.append((node, positions))
    # An incarnation delivers every position of a group between its first and last.
    rank = {position: n for n, position in enumerate(sorted(owners))}
    for node, positions in stretches:
        last: Dict[GroupId, int] = {}
        for group, instance, index in positions:
            here = rank[group, instance, index]
            if here > last.get(group, here - 1) + 1:
                failures.append(f"{node}: skipped a value before {group}[{instance}.{index}]")
            last[group] = here
    ok = f"{len(owners)} positions, one value each, delivered in order"
    return verdict("total-order", failures, ok), {key: uid for key, (uid, _) in owners.items()}


def _integrity(log: DeliveryLog) -> InvariantResult:
    failures = []
    for node, run in log.runs():
        seen: Set[int] = set()
        for *_, uid, _t in run:
            if uid in seen:
                failures.append(f"{node}: value {uid} delivered twice")
            seen.add(uid)
    total = sum(log.counts().values())
    return verdict("integrity", failures, f"{total} deliveries, no value twice at a node")


def _acyclic(log: DeliveryLog, owners: Dict[Tuple, int]) -> InvariantResult:
    from graphlib import CycleError, TopologicalSorter

    # Each group's agreed order (a value twice in it is integrity's finding) ...
    chains: Dict[GroupId, Dict[int, None]] = {}
    for (group, *_), uid in sorted(owners.items()):
        chains.setdefault(group, {})[uid] = None
    steps = [list(chain) for chain in chains.values()]
    # ... joined with every node's steps from one group to another.
    for _node, run in log.runs():
        firsts: Dict[int, GroupId] = {}
        for group, _i, uid, _t in run:
            firsts.setdefault(uid, group)
        hops = list(firsts.items())
        steps += [[a, b] for (a, group), (b, other) in zip(hops, hops[1:]) if group != other]
    before: Dict[int, Set[int]] = {}
    for chain in steps:
        for earlier, later in zip(chain, chain[1:]):
            before.setdefault(later, set()).add(earlier)
    try:
        ordered = sum(1 for _ in TopologicalSorter(before).static_order())
    except CycleError as error:
        return verdict("acyclic-order", [f"a cycle runs through values {error.args[1][:6]}"], "")
    return verdict("acyclic-order", [], f"{ordered} values in one acyclic order")


def lost_acks(log: DeliveryLog, acked: Iterable[Hashable], live: Cursors) -> Dict[Hashable, List[str]]:
    """Each acked id no carrying value reached everywhere, with the live nodes
    that missed the carrier that reached most (none if no value carries it).
    A node subscribes to the groups its cursor in ``live`` names."""
    current: Dict[str, Set[int]] = {}
    covered: Dict[str, Dict[GroupId, InstanceId]] = {}  # what the checkpoint a node restarted from covers
    for node, run in log.runs():  # the last incarnation wins
        current[node] = {entry[2] for entry in run}
        covered[node] = {}
        for group, instance, _uid, _t in run:
            covered[node].setdefault(group, instance)
    where: Dict[int, Tuple[GroupId, InstanceId]] = {}
    for entries in log.sequences.values():
        for group, instance, uid, _t in entries:
            where.setdefault(uid, (group, instance))
    acked = set(acked)
    carriers: Dict[Hashable, List[int]] = {}
    for uid, ids in log.carried.items():
        for command_id in acked.intersection(ids):
            carriers.setdefault(command_id, []).append(uid)
    lost: Dict[Hashable, List[str]] = {}
    for command_id in sorted(acked, key=repr):
        misses = []
        for uid in carriers.get(command_id, ()):
            group, instance = where[uid]
            misses.append([node for node, cursor in sorted(live.items()) if group in cursor
                           and instance >= covered.get(node, {}).get(group, cursor[group])
                           and uid not in current.get(node, ())])
        if not misses or min(map(len, misses)):
            lost[command_id] = min(misses, key=len, default=[])
    return lost


def check(log: DeliveryLog, acked: Iterable[Hashable], live: Cursors) -> List[InvariantResult]:
    """Judge ``log`` and the ``acked`` ids; ``live`` is each live node's
    delivery cursor (:meth:`DeliveryLog.cursors`)."""
    acked = set(acked)
    order, owners = _total_order(log)
    failures = [f"{command_id} missing at {', '.join(nodes)}" if nodes else f"{command_id} never delivered"
                for command_id, nodes in lost_acks(log, acked, live).items()]
    ok = f"{len(acked)} acked ids delivered everywhere"
    return [order, _integrity(log), _acyclic(log, owners), verdict("no-acked-write-lost", failures, ok)]
