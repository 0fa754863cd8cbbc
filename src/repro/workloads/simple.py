"""Non-YCSB workloads used by the paper's other experiments.

* :class:`AppendWorkload` -- fixed-size appends to one log or round-robin over
  several logs (Figures 5 and 6; 1 KB append requests).
* :class:`UpdateWorkload` -- update-only traffic against keys of a single
  partition (Figure 7: "clients send 1 KByte commands to their local
  partitions only").
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.errors import WorkloadError
from repro.smr.client import Request

__all__ = ["AppendWorkload", "UpdateWorkload"]


class AppendWorkload:
    """Append-only traffic for dLog."""

    def __init__(
        self,
        dlog,
        logs: Sequence[str],
        append_size: int = 1024,
        series: Optional[str] = None,
        multi_append_fraction: float = 0.0,
    ) -> None:
        if not logs:
            raise WorkloadError("the append workload needs at least one log")
        self.dlog = dlog
        self.logs = list(logs)
        self.append_size = append_size
        self.series = series
        self.multi_append_fraction = multi_append_fraction
        self._next = 0

    def next_request(self, rng: random.Random) -> Request:
        if self.multi_append_fraction > 0 and len(self.logs) > 1:
            if rng.random() < self.multi_append_fraction:
                return self.dlog.multi_append(self.logs, self.append_size, series=self.series)
        log = self.logs[self._next % len(self.logs)]
        self._next += 1
        series = self.series or f"append-{log}"
        return self.dlog.append(log, self.append_size, series=series)


class UpdateWorkload:
    """Update-only traffic over a slice of the key space (one partition/region)."""

    def __init__(
        self,
        store,
        key_indices: Sequence[int],
        value_size: int = 1024,
        series: Optional[str] = None,
    ) -> None:
        if not key_indices:
            raise WorkloadError("the update workload needs at least one key")
        self.store = store
        self.key_indices = list(key_indices)
        self.value_size = value_size
        self.series = series

    def next_request(self, rng: random.Random) -> Request:
        index = self.key_indices[rng.randrange(len(self.key_indices))]
        return self.store.update(self.store.key(index), self.value_size, series=self.series)
