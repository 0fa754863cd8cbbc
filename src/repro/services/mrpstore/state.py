"""The MRP-Store replica state machine.

Each replica keeps its partition's entries in an in-memory ordered tree
(Section 7.2: "database entries are stored in an in-memory tree at every
replica").  The simulator does not materialize real values: an entry is its
key plus the value's size and a version counter, which is all the timing
model and the consistency checks need.

Operations (Table 1) are tuples:

* ``("read", key)``
* ``("scan", start_key, end_key)``
* ``("update", key, value_size)``
* ``("insert", key, value_size)``
* ``("delete", key)``
* ``("rmw", key, value_size)`` -- read-modify-write, used by YCSB workload F.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.services.mrpstore.partitioning import PartitionMap
from repro.smr.state_machine import StateMachine
from repro.types import GroupId

__all__ = ["MRPStoreStateMachine"]

#: Approximate per-entry metadata overhead when sizing snapshots.
_ENTRY_OVERHEAD_BYTES = 48


class MRPStoreStateMachine(StateMachine):
    """Deterministic key-value state machine for one partition's replicas."""

    def __init__(self, partition: str, partition_map: PartitionMap) -> None:
        self.partition = partition
        self.partition_map = partition_map
        # Sorted key list plus a dict for O(log n) scans and O(1) point access.
        self._keys: List[str] = []
        self._entries: Dict[str, Tuple[int, int]] = {}  # key -> (value_size, version)
        self.operations = 0

    # ------------------------------------------------------------------
    # StateMachine interface
    # ------------------------------------------------------------------
    def execute(self, operation: Any, group: GroupId) -> Tuple[Any, int]:
        if not isinstance(operation, tuple) or not operation:
            raise ServiceError(f"malformed MRP-Store operation: {operation!r}")
        self.operations += 1
        op = operation[0]
        if op == "read":
            return self._read(operation[1])
        if op == "scan":
            return self._scan(operation[1], operation[2])
        if op == "update":
            return self._update(operation[1], operation[2])
        if op == "insert":
            return self._insert(operation[1], operation[2])
        if op == "delete":
            return self._delete(operation[1])
        if op == "rmw":
            self._read(operation[1])
            return self._update(operation[1], operation[2])
        raise ServiceError(f"unknown MRP-Store operation {op!r}")

    def snapshot(self) -> Tuple[Any, int]:
        state = {
            "entries": dict(self._entries),
            # The partition-map epoch is part of the replica state: a replica
            # recovering from this checkpoint must route/own exactly the key
            # ranges it owned when the checkpoint was taken (reconfiguration
            # commands replayed above the cursor then bring it up to date).
            "partition_map": self.partition_map,
        }
        size = sum(
            len(key) + value_size + _ENTRY_OVERHEAD_BYTES
            for key, (value_size, _version) in self._entries.items()
        )
        return state, size

    def install(self, state: Any) -> None:
        if state is None:
            self._entries = {}
            self._keys = []
            return
        if isinstance(state, dict) and "entries" in state and "partition_map" in state:
            self._entries = dict(state["entries"])
            self.partition_map = state["partition_map"]
        else:  # pre-reconfig snapshot format: a bare entries dict
            self._entries = dict(state)
        self._keys = sorted(self._entries)

    def execution_cost_bytes(self, operation: Any) -> int:
        # Point operations are cheap; scans touch every matching entry.
        if isinstance(operation, tuple) and operation and operation[0] == "scan":
            return 1024
        return 64

    # ------------------------------------------------------------------
    # reconfiguration support
    # ------------------------------------------------------------------
    def set_partition_map(self, partition_map: PartitionMap) -> None:
        """Adopt a newer partition-map version (stale versions are ignored)."""
        if partition_map.version < self.partition_map.version:
            return
        self.partition_map = partition_map

    def extract_owned_by(self, new_map: PartitionMap, partition: str) -> Dict[str, Tuple[int, int]]:
        """Remove and return every entry that ``partition`` owns under ``new_map``.

        This is the source side of a key-range handoff: called at the agreed
        migration point, it is a deterministic function of the replica state,
        so all source replicas extract exactly the same entries.
        """
        moved = {
            key: entry
            for key, entry in self._entries.items()
            if new_map.partition_of(key) == partition
        }
        for key in moved:
            del self._entries[key]
        self._keys = sorted(self._entries)
        return moved

    def absorb_entries(self, entries: Dict[str, Tuple[int, int]]) -> None:
        """Install migrated entries (value sizes and versions are preserved)."""
        for key, (value_size, version) in entries.items():
            self._entries[key] = (int(value_size), int(version))
        self._keys = sorted(self._entries)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _owns(self, key: str) -> bool:
        return self.partition_map.owns(self.partition, key)

    def _read(self, key: str) -> Tuple[Any, int]:
        if not self._owns(key):
            # Delivered through the global group but owned elsewhere: stay
            # silent, the owning partition's replicas answer.
            return None, 0
        entry = self._entries.get(key)
        if entry is None:
            return ("miss", key), 16
        value_size, version = entry
        return ("value", key, version), value_size

    def _scan(self, start_key: str, end_key: str) -> Tuple[Any, int]:
        low = bisect.bisect_left(self._keys, start_key)
        high = bisect.bisect_right(self._keys, end_key)
        matched = self._keys[low:high]
        total = sum(self._entries[key][0] for key in matched)
        return ("scan", self.partition, len(matched)), max(16, total)

    def _update(self, key: str, value_size: int) -> Tuple[Any, int]:
        if not self._owns(key):
            return None, 0
        entry = self._entries.get(key)
        if entry is None:
            return ("miss", key), 16
        _old_size, version = entry
        self._entries[key] = (int(value_size), version + 1)
        return ("ok", key, version + 1), 16

    def _insert(self, key: str, value_size: int) -> Tuple[Any, int]:
        if not self._owns(key):
            return None, 0
        if key not in self._entries:
            bisect.insort(self._keys, key)
            self._entries[key] = (int(value_size), 1)
        else:
            version = self._entries[key][1]
            self._entries[key] = (int(value_size), version + 1)
        return ("ok", key, 1), 16

    def insert_all(self, keys: Sequence[str], value_size: int) -> None:
        """:meth:`_insert` each of ``keys`` in turn, sorting the key index once.

        The caller has routed ``keys`` to this partition (``MRPStore.load``),
        so ownership is not checked again.
        """
        entries = self._entries
        size = int(value_size)
        for key in keys:
            entry = entries.get(key)
            entries[key] = (size, 1 if entry is None else entry[1] + 1)
        self._keys = sorted(entries)
        self.operations += len(keys)

    def _delete(self, key: str) -> Tuple[Any, int]:
        if not self._owns(key):
            return None, 0
        if key in self._entries:
            del self._entries[key]
            index = bisect.bisect_left(self._keys, key)
            if index < len(self._keys) and self._keys[index] == key:
                del self._keys[index]
            return ("ok", key, 0), 16
        return ("miss", key), 16

    # ------------------------------------------------------------------
    # inspection helpers (used by tests and examples)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def contains(self, key: str) -> bool:
        return key in self._entries

    def version_of(self, key: str) -> Optional[int]:
        entry = self._entries.get(key)
        return entry[1] if entry is not None else None

    def value_size_of(self, key: str) -> Optional[int]:
        entry = self._entries.get(key)
        return entry[0] if entry is not None else None

    def keys(self) -> List[str]:
        return list(self._keys)
