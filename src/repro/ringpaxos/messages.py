"""Ring Paxos wire messages.

Every message carries the multicast ``group`` it belongs to so that a single
host process participating in several rings (the normal case in Multi-Ring
Paxos) can route it to the right per-ring role.

``Phase2`` is the combined Phase 2A/2B message of the paper: the coordinator
creates it with its own vote, and each acceptor extends the ``votes`` set as
the message travels around the ring.  ``count > 1`` is used for skip ranges --
the coordinator may skip several consensus instances with a single message
(Section 4, rate leveling).

The hot-path messages (``Proposal``, ``Phase2``, ``Decision``) are slotted,
non-frozen dataclasses: they are constructed on every ring hop, where the
``object.__setattr__`` cost of frozen init is measurable.  Treat them as
immutable -- a message is never mutated after construction; acceptors build a
*new* ``Phase2`` to extend the vote set.

With batching enabled the ``value`` of a ``Proposal`` (a proposer's batch)
or of a ``Phase2`` / ``Decision`` / ``RetransmitReply`` entry (one consensus
instance) may be a batch envelope: its payload is a
:class:`~repro.types.ValueBatch`, which crosses the wire as ``count`` plus the
encoded body of its values.  Hops that only forward or log the message copy
those bytes; a node decodes them when it learns and delivers the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.net.message import HEADER_BYTES, ProtocolMessage, utf8_len
from repro.paxos.types import Ballot
from repro.types import GroupId, InstanceId, Value

#: Wire-size building blocks matching :func:`repro.net.message.estimate_size`:
#: integers count 8 bytes, a ballot is an opaque 64-byte object, a set adds an
#: 8-byte length prefix.  The specialized ``size_bytes`` properties below MUST
#: stay byte-for-byte equal to the generic field walk -- they exist because
#: sizing runs once per ring hop for every message, and the generic
#: ``dataclasses`` walk is measurable there.
_INT_BYTES = 8
_BALLOT_BYTES = 64
_CONTAINER_BYTES = 8

__all__ = [
    "Proposal",
    "Phase2",
    "Decision",
    "RetransmitRequest",
    "RetransmitReply",
]


@dataclass(slots=True)
class Proposal(ProtocolMessage):
    """A value travelling clockwise from its proposer to the coordinator."""

    group: GroupId
    value: Value

    @property
    def size_bytes(self) -> int:
        return HEADER_BYTES + utf8_len(self.group) + self.value.size_bytes


@dataclass(slots=True)
class Phase2(ProtocolMessage):
    """Combined Phase 2A/2B message circulating in the ring.

    ``instance`` is the first consensus instance covered; ``count`` is the
    number of consecutive instances (always 1 except for skip ranges).
    ``origin`` is the coordinator that created the message, used as the stop
    condition for circulation.  ``started_at`` is stamped by the coordinator
    when the instance starts, but only for traced values (see
    :mod:`repro.obs.tracing`); ``None`` keeps the wire size unchanged.
    """

    group: GroupId
    instance: InstanceId
    count: int
    ballot: Ballot
    value: Value
    votes: FrozenSet[str]
    origin: str
    started_at: Optional[float] = None

    @property
    def size_bytes(self) -> int:
        total = (
            HEADER_BYTES
            + utf8_len(self.group)
            + _INT_BYTES  # instance
            + _INT_BYTES  # count
            + _BALLOT_BYTES
            + self.value.size_bytes
            + _CONTAINER_BYTES
            + utf8_len(self.origin)
        )
        for vote in self.votes:
            total += utf8_len(vote)
        if self.started_at is not None:
            total += _INT_BYTES
        return total


@dataclass(slots=True)
class Decision(ProtocolMessage):
    """A decided value circulating until every ring member has seen it.

    The decision carries the value so that members that have not yet seen the
    corresponding ``Phase2`` (those downstream of the acceptor that gathered
    the final vote) can still learn it.  ``started_at``/``decided_at`` are
    trace timestamps (instance start and quorum completion), carried only for
    traced values so untraced wire sizes are unchanged.
    """

    group: GroupId
    instance: InstanceId
    count: int
    value: Value
    origin: str
    started_at: Optional[float] = None
    decided_at: Optional[float] = None

    @property
    def size_bytes(self) -> int:
        total = (
            HEADER_BYTES
            + utf8_len(self.group)
            + _INT_BYTES  # instance
            + _INT_BYTES  # count
            + self.value.size_bytes
            + utf8_len(self.origin)
        )
        if self.started_at is not None:
            total += _INT_BYTES
        if self.decided_at is not None:
            total += _INT_BYTES
        return total


@dataclass(frozen=True, slots=True)
class RetransmitRequest(ProtocolMessage):
    """A recovering replica asks an acceptor for decided values it missed.

    ``token`` distinguishes the two retransmission clients -- replica
    recovery (0, the default) and the learner gap-repair path
    (:data:`~repro.ringpaxos.role.REPAIR_TOKEN`) -- so each handler can
    ignore replies addressed to the other.
    """

    group: GroupId
    first: InstanceId
    last: InstanceId
    reply_to: str
    token: int = 0


@dataclass(frozen=True, slots=True)
class RetransmitReply(ProtocolMessage):
    """Acceptor response to a :class:`RetransmitRequest`.

    ``entries`` holds ``(instance, value)`` pairs; ``trimmed_up_to`` is set
    when part of the requested range has already been trimmed from the log,
    in which case the replica must install a more recent checkpoint first.
    """

    group: GroupId
    entries: Tuple[Tuple[InstanceId, Value], ...]
    trimmed_up_to: Optional[InstanceId] = None
    token: int = 0
