"""Control payloads of the reconfiguration subsystem.

Reconfiguration steps are ordered by the rings they affect: a control payload
is atomically multicast like any application value, so every learner of the
carrier ring observes it at exactly the same position of its deterministic
delivery sequence.  That position *is* the agreement on when the change takes
effect -- no extra consensus round is needed.

:class:`ControlCommand` is the marker base class; the Multi-Ring node
intercepts deliveries whose payload is a control command and routes them to
the reconfiguration handlers instead of the application.

The payloads deliberately use ``Any`` for cross-layer objects (partition
maps, SMR commands) to keep this module import-cycle free: it sits below
:mod:`repro.multiring.node`, which dispatches on these types.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.net.message import ProtocolMessage, estimate_size
from repro.types import CONTROL_CLASSES, GroupId

__all__ = [
    "ControlCommand",
    "SpliceRing",
    "MigrationPrepare",
    "MigrationInstall",
    "ForwardedCommand",
    "ProposeControl",
    "next_migration_id",
]

_migration_ids = itertools.count(1)


def next_migration_id() -> int:
    return next(_migration_ids)


class ControlCommand:
    """Marker base: a multicast payload addressed to the reconfiguration layer.

    :data:`repro.types.CONTROL_CLASSES` maps this class and every subclass
    to its :attr:`alone`, so the node and the batcher each ask about a value
    with one lookup of its payload's class.
    """

    __slots__ = ()

    #: Whether a value carrying this command leaves in an instance of its
    #: own: its delivery position is the reconfiguration agreement point, so
    #: no co-batched application value may blur it.
    alone = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        CONTROL_CLASSES[cls] = cls.alone


CONTROL_CLASSES[ControlCommand] = ControlCommand.alone


@dataclass(frozen=True)
class SpliceRing(ControlCommand):
    """Splice ring ``group`` into the merges of ``learners`` at a round boundary.

    Delivered through a ring the target learners already subscribe to.  Each
    learner derives the splice round from its merge position at delivery time
    (``current_round + 1``), which is identical for all learners of one
    partition -- the agreed round boundary of the paper-style reconfiguration.
    """

    group: GroupId
    learners: Tuple[str, ...]


@dataclass(frozen=True)
class MigrationPrepare(ControlCommand):
    """Handoff point marker, multicast to the **source** ring of a migration.

    All replicas delivering it agree that commands ordered before it belong to
    the source partition and commands after it to the destination.  ``new_map``
    is the next version of the service's partition map; ``designated`` names
    the one source replica responsible for shipping the state and forwarding
    late commands (every replica computes the same handoff, only one talks).
    """

    migration_id: int
    service: str
    new_map: Any  # PartitionMap (kept opaque to avoid an import cycle)
    source: str
    dest: str
    designated: str


@dataclass(frozen=True)
class MigrationInstall(ControlCommand):
    """State handoff, multicast to the **destination** ring.

    Carries the migrated entries extracted at the handoff point.  Destination
    replicas install the entries, adopt ``new_map`` and release any buffered
    commands -- all at the same position of their delivery sequence.
    """

    migration_id: int
    service: str
    new_map: Any
    source: str
    dest: str
    entries: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def size_bytes(self) -> int:
        return 256 + sum(len(key) + size for key, (size, _v) in self.entries.items())


@dataclass(frozen=True)
class ForwardedCommand(ControlCommand):
    """An application command re-multicast from source to destination ring.

    Issued by the designated source replica for commands that were ordered
    *after* the handoff point on the source ring but address keys that moved.
    The destination executes (and answers) them; dedup is by command id.
    Its position is not a reconfiguration agreement point, so it batches like
    an application value -- migrations forward a burst of writes exactly when
    the destination ring is busiest -- and the node still routes it, value by
    value, to its control path.
    """

    alone = False

    migration_id: int
    dest: str
    command: Any  # repro.smr.command.Command

    @property
    def size_bytes(self) -> int:
        return 64 + getattr(self.command, "size_bytes", 64)


@dataclass(frozen=True)
class ProposeControl(ProtocolMessage):
    """Ask a proposer node to multicast ``payload`` on ``group``.

    The reconfiguration controller is not a ring member; it injects control
    values through any live proposer of the target ring, exactly like a
    client submitting a command through a front-end.
    """

    group: GroupId
    payload: Any
    payload_bytes: Optional[int] = None

    @property
    def size_bytes(self) -> int:  # type: ignore[override]
        if self.payload_bytes is not None:
            return 64 + self.payload_bytes
        explicit = getattr(self.payload, "size_bytes", None)
        if isinstance(explicit, int):
            return 64 + explicit
        return 64 + estimate_size(self.payload)
