"""Ring Paxos: atomic broadcast over a unidirectional ring overlay.

One Ring Paxos ring implements atomic broadcast for one multicast group.
Multi-Ring Paxos (:mod:`repro.multiring`) composes several rings into atomic
multicast.  The implementation follows Section 4 of the paper:

* all processes of a ring (proposers, acceptors, learners) are arranged in a
  logical unidirectional ring; messages only flow clockwise,
* Phase 1 is pre-executed for a large window of instances by the coordinator
  (one of the acceptors),
* a proposal travels around the ring until it reaches the coordinator, which
  assigns it the next consensus instance and emits a combined Phase 2A/2B
  message carrying the value and its own vote,
* each acceptor appends its vote (after logging it to stable storage) and
  forwards the message; once a majority of votes has accumulated the message
  is replaced by a decision that keeps circulating until every ring member
  has seen both the value and the decision,
* the variant implemented here never relies on IP multicast, matching the
  paper's large-scale/WAN-friendly redesign.
"""

from repro.ringpaxos.messages import (
    Decision,
    Phase2,
    Proposal,
    RetransmitReply,
    RetransmitRequest,
)
from repro.ringpaxos.role import RingRole
from repro.ringpaxos.node import RingHost

__all__ = [
    "Proposal",
    "Phase2",
    "Decision",
    "RetransmitRequest",
    "RetransmitReply",
    "RingRole",
    "RingHost",
]
