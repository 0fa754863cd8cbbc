"""Paxos substrate.

Ring Paxos (and therefore Multi-Ring Paxos) is built on a sequence of
consensus instances, each an optimized Paxos instance whose Phase 1 is
pre-executed for a whole range of instances (Section 4, Figure 2b).  This
package provides the pieces shared by every layer above:

* :mod:`repro.paxos.types` -- ballots and per-instance acceptor state,
* :mod:`repro.paxos.storage` -- the acceptor's stable log (Berkeley-DB
  substitute) with the paper's five storage modes and log trimming.
"""

from repro.paxos.types import Ballot, InstanceRecord
from repro.paxos.storage import AcceptorStorage

__all__ = [
    "Ballot",
    "InstanceRecord",
    "AcceptorStorage",
]
