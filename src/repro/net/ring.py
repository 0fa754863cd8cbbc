"""The unidirectional ring overlay used by Ring Paxos.

All Ring Paxos traffic flows clockwise around a logical ring of process
names: proposals travel from the proposer to the coordinator, Phase 2A/2B
messages accumulate votes as they pass the acceptors, and decisions continue
around until every member has seen them.  :class:`RingOverlay` is the pure
data structure describing that ring -- Ring Paxos is oblivious to the relative
position of processes in the ring (Section 4), so the overlay just fixes *an*
order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError

__all__ = ["RingOverlay"]


class RingOverlay:
    """An ordered ring of process names with successor/predecessor lookup.

    The overlay is immutable (mutators return new overlays), so positions and
    successors are precomputed once: message forwarding asks for the next
    hop on every ring transit, and a list scan per hop would dominate the
    fan-out path.
    """

    __slots__ = ("_members", "_positions", "_successors")

    def __init__(self, members: Sequence[str]) -> None:
        ordered = list(dict.fromkeys(members))
        if len(ordered) < 1:
            raise ConfigurationError("a ring needs at least one member")
        self._members: List[str] = ordered
        self._positions: Dict[str, int] = {name: i for i, name in enumerate(ordered)}
        size = len(ordered)
        self._successors: Dict[str, str] = {
            name: ordered[(i + 1) % size] for i, name in enumerate(ordered)
        }

    # ------------------------------------------------------------------
    @property
    def members(self) -> List[str]:
        return list(self._members)

    @property
    def size(self) -> int:
        return len(self._members)

    def __contains__(self, name: str) -> bool:
        return name in self._positions

    def __len__(self) -> int:
        return len(self._members)

    def position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise ConfigurationError(f"{name!r} is not a member of the ring") from None

    def successor(self, name: str) -> str:
        """The next process clockwise from ``name``."""
        try:
            return self._successors[name]
        except KeyError:
            raise ConfigurationError(f"{name!r} is not a member of the ring") from None

    def predecessor(self, name: str) -> str:
        """The previous process clockwise from ``name``."""
        index = self.position(name)
        return self._members[(index - 1) % len(self._members)]

    def distance(self, src: str, dst: str) -> int:
        """Number of hops a message needs to travel clockwise from ``src`` to ``dst``."""
        src_index = self.position(src)
        dst_index = self.position(dst)
        return (dst_index - src_index) % len(self._members)

    def without_member(self, name: str) -> "RingOverlay":
        """A new overlay with ``name`` removed."""
        remaining = [member for member in self._members if member != name]
        return RingOverlay(remaining)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RingOverlay({' -> '.join(self._members)} -> ...)"
