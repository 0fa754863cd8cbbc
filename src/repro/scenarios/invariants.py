"""Replica-state invariant checks run after every chaos scenario.

The ordering and durability properties (total order, integrity, acyclic
cross-group order, no acked write lost) are judged from a delivery log by
:mod:`repro.verify`.  The campaign runner evaluates these, which read replica
state instead, against the quiesced deployment at the end of each run:

* **replica-convergence** -- all live replicas of a partition hold identical
  state digests (same keys, sizes and versions);
* **merge-liveness** -- every live replica delivered from every ring it
  subscribes to (no ring silently dropped out of the round-robin merge);
* **bounded-delivery-skew** -- within each live replica, the per-ring
  delivery cursors stay within M instances of each other (the round-robin
  merge consumes M instances per ring per round, so a larger spread means
  the merge wedged on a hole);
* **recovery-complete** -- every replica crash/restart in the fault plan ran
  the Section 5 recovery protocol to completion, and nobody is left with a
  paused merge.

The reconfiguration experiment also reads :func:`keys_missing_at_owner`: a
key a migration moved reaches its new owner by state transfer or forwarding,
which no delivery log of the old owner's ring shows.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, TYPE_CHECKING

from repro.verify import InvariantResult, verdict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.services.mrpstore import MRPStore
    from repro.smr.replica import Replica

__all__ = [
    "InvariantResult",
    "replica_digest",
    "live_replicas",
    "check_replica_convergence",
    "keys_missing_at_owner",
    "check_merge_liveness",
    "check_delivery_skew",
    "check_recovery_complete",
]


def replica_digest(replica: "Replica") -> str:
    """A digest of the replica's application state (keys, sizes, versions)."""
    machine = replica.state_machine
    items = tuple(
        (key, machine.value_size_of(key), machine.version_of(key))
        for key in machine.keys()
    )
    return hashlib.sha1(repr(items).encode()).hexdigest()[:16]


def live_replicas(store: "MRPStore", partition: str) -> List["Replica"]:
    """The partition's replicas that are up and not mid-recovery."""
    result = []
    for replica in store.replicas_of(partition):
        if not replica.alive:
            continue
        if replica.recovery is not None and replica.recovery.recovering:
            continue
        result.append(replica)
    return result


def check_replica_convergence(store: "MRPStore") -> InvariantResult:
    failures = []
    for partition in sorted(store.partitions):
        replicas = live_replicas(store, partition)
        digests = {replica.name: replica_digest(replica) for replica in replicas}
        if len(set(digests.values())) > 1:
            failures.append(f"{partition}: divergent digests {digests}")
    if failures:
        return InvariantResult("replica-convergence", False, "; ".join(failures))
    return InvariantResult(
        "replica-convergence", True, "live replicas agree in every partition"
    )


def keys_missing_at_owner(store: "MRPStore", keys: Iterable[str]) -> List[str]:
    """The keys some live replica of the partition that now owns them lacks:
    a write a migration failed to move or forward."""
    owner = store.current_map.partition_of
    return [key for key in keys
            if not all(replica.state_machine.contains(key) for replica in live_replicas(store, owner(key)))]


def check_merge_liveness(store: "MRPStore") -> InvariantResult:
    failures = []
    for partition in sorted(store.partitions):
        for replica in live_replicas(store, partition):
            cursor = replica.delivery_cursor()
            stalled = [group for group in replica.subscriptions if cursor.get(group, 0) <= 0]
            if stalled:
                failures.append(f"{replica.name}: nothing delivered from {stalled}")
            if replica.merge.paused:
                failures.append(f"{replica.name}: merge still paused")
    return verdict("merge-liveness", failures, "every live replica delivered from every ring")


def check_delivery_skew(store: "MRPStore", bound: Optional[int] = None) -> InvariantResult:
    limit = bound if bound is not None else store.config.m
    failures = []
    worst = 0
    for partition in sorted(store.partitions):
        for replica in live_replicas(store, partition):
            cursor = replica.delivery_cursor()
            positions = [cursor.get(group, 0) for group in replica.subscriptions]
            if len(positions) < 2:
                continue
            skew = max(positions) - min(positions)
            worst = max(worst, skew)
            if skew > limit:
                failures.append(
                    f"{replica.name}: cross-ring cursor skew {skew} > {limit} ({cursor})"
                )
    return verdict("bounded-delivery-skew", failures, f"worst cross-ring skew {worst} <= {limit}")


def check_recovery_complete(store: "MRPStore", expected_recoveries: int) -> InvariantResult:
    completed = store.world.monitor.counter("recovery/completed")
    stuck = [
        replica.name
        for replica in store.all_replicas()
        if replica.alive and replica.recovery is not None and replica.recovery.recovering
    ]
    failures = [f"still recovering: {', '.join(stuck)}"] if stuck else []
    if completed < expected_recoveries and not stuck:
        failures.append(f"{completed} recoveries completed < {expected_recoveries} restarts")
    return verdict("recovery-complete", failures, f"{completed} recoveries completed")
