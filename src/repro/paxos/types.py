"""Ballots and per-instance acceptor state."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import total_ordering
from typing import Optional

from repro.types import InstanceId, Value

__all__ = ["Ballot", "InstanceRecord"]


@total_ordering
@dataclass(frozen=True, slots=True)
class Ballot:
    """A Paxos ballot (round) number.

    Ballots are totally ordered first by ``number`` and then by the proposing
    coordinator's name, which guarantees that two coordinators never use the
    same ballot.
    """

    number: int
    coordinator: str = ""

    def __lt__(self, other: "Ballot") -> bool:
        if self.number != other.number:
            return self.number < other.number
        return self.coordinator < other.coordinator

    def __ge__(self, other: "Ballot") -> bool:
        # Explicit (total_ordering would derive it through __lt__ plus an
        # equality check): ballot comparison sits on the acceptor vote path,
        # once per logged instance.
        if self.number != other.number:
            return self.number > other.number
        return self.coordinator >= other.coordinator

    def next(self, coordinator: Optional[str] = None) -> "Ballot":
        """The next higher ballot, owned by ``coordinator`` (default: same owner)."""
        return Ballot(self.number + 1, coordinator if coordinator is not None else self.coordinator)

    @classmethod
    def zero(cls) -> "Ballot":
        """The initial ballot, smaller than any ballot a coordinator uses."""
        return cls(0, "")


#: Shared initial ballot: frozen, so every fresh record can reference the
#: same instance instead of allocating one per consensus instance.
_ZERO_BALLOT = Ballot(0, "")


@dataclass(slots=True)
class InstanceRecord:
    """What an acceptor remembers about one consensus instance.

    ``promised`` is the highest ballot the acceptor promised not to undercut
    (Phase 1); ``accepted_ballot``/``accepted_value`` reflect its most recent
    Phase 2 vote; ``decided`` is set once a quorum is known to have voted for
    the value (the learner/decision path).  A record with ``count > 1``
    stands for that many consecutive instances in the same state (a skip
    range, which the acceptor log keeps as one entry).
    """

    instance: InstanceId
    promised: Ballot = field(default=_ZERO_BALLOT)
    accepted_ballot: Optional[Ballot] = None
    accepted_value: Optional[Value] = None
    decided: bool = False
    count: int = 1

    def can_promise(self, ballot: Ballot) -> bool:
        """Phase 1: may the acceptor promise ``ballot``?"""
        return ballot > self.promised

    def can_accept(self, ballot: Ballot) -> bool:
        """Phase 2: may the acceptor vote for a proposal with ``ballot``?"""
        return ballot >= self.promised

    def promise(self, ballot: Ballot) -> None:
        if not self.can_promise(ballot):
            raise ValueError(f"cannot promise {ballot} after promising {self.promised}")
        self.promised = ballot

    def accept(self, ballot: Ballot, value: Value) -> None:
        if not self.can_accept(ballot):
            raise ValueError(f"cannot accept {ballot} after promising {self.promised}")
        self.promised = ballot
        self.accepted_ballot = ballot
        self.accepted_value = value
