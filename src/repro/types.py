"""Shared value types used across the library.

The central abstraction is :class:`Value` -- the unit proposed to consensus,
multicast to a group, and delivered to learners.  Real deployments carry byte
arrays; the simulator carries an opaque ``payload`` plus an explicit
``size_bytes`` that drives the network, disk and CPU models.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "CONTROL_CLASSES",
    "Value",
    "ValueBatch",
    "skip_value",
    "batch_values",
    "unpack_value",
    "decoded",
    "is_batch",
    "GroupId",
    "InstanceId",
    "RingPosition",
]

#: Multicast-group identifier (the paper uses small integers; strings read better).
GroupId = str

#: Consensus-instance number inside one ring, starting at 0.
InstanceId = int

#: Index of a process in the ring order.
RingPosition = int

#: Every control payload class -> whether a value carrying it must leave in
#: an instance of its own.  The node routes each delivered value whose
#: payload class is a key to its control path; the batcher sends a value
#: alone when its entry is true.  :class:`repro.reconfig.commands.ControlCommand`
#: fills it as its classes are defined, so the ring layer reads it without
#: importing :mod:`repro.reconfig`: until that loads, no control payload exists.
CONTROL_CLASSES: Dict[type, bool] = {}

_value_counter = itertools.count(1)


@dataclass(slots=True)
class Value:
    """A proposed/decided value.

    ``uid`` is globally unique, assigned at creation time.  ``is_skip`` marks
    the null values coordinators propose to skip consensus instances for rate
    leveling (Section 4).  ``trace`` is the sampled causal-trace id (see
    :mod:`repro.obs.tracing`); ``None`` -- the overwhelmingly common case --
    adds nothing to the wire.  Slotted and non-frozen (values are the
    most-created and most-touched objects in the whole simulator; the frozen
    ``object.__setattr__`` init cost is measurable), but treated as
    immutable everywhere -- nothing may mutate a value after creation.
    """

    uid: int
    payload: Any
    size_bytes: int
    proposer: Optional[str] = None
    created_at: float = 0.0
    is_skip: bool = False
    trace: Optional[str] = None

    @classmethod
    def create(
        cls,
        payload: Any,
        size_bytes: int,
        proposer: Optional[str] = None,
        created_at: float = 0.0,
        trace: Optional[str] = None,
    ) -> "Value":
        return cls(
            uid=next(_value_counter),
            payload=payload,
            size_bytes=max(0, int(size_bytes)),
            proposer=proposer,
            created_at=created_at,
            trace=trace,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "skip" if self.is_skip else "value"
        return f"Value(uid={self.uid}, {kind}, {self.size_bytes}B, from={self.proposer})"


def skip_value(created_at: float = 0.0, proposer: Optional[str] = None) -> Value:
    """Create a null (skip) value used by rate leveling."""
    return Value(
        uid=next(_value_counter),
        payload=None,
        size_bytes=0,
        proposer=proposer,
        created_at=created_at,
        is_skip=True,
    )


#: Serialization overhead per value packed into a batch (framing, length prefix).
BATCH_HEADER_BYTES = 16

#: :mod:`repro.runtime.codec`, imported on first use: it sits above this module.
_codec = None


def _batch_codec():
    global _codec
    if _codec is None:
        from repro.runtime import codec

        _codec = codec
    return _codec


class ValueBatch:
    """Several application values packed into one consensus value.

    A proposer packs what one turn of its clock brought, and the coordinator
    packs what reached it in one turn into one instance, so one Phase 2
    circulation, one acceptor log write and one decision cover the whole
    batch.  Learners deliver the inner values in packing order.

    On the wire a batch is ``count`` plus its *body*: the inner values,
    encoded back to back by :func:`repro.runtime.codec.encode_batch_body`.
    The node that builds a batch holds ``values`` and encodes the body when
    the batch is sent (or, when it splices in batches that arrived as bytes,
    joins their bodies as it builds it).  A node that receives one holds only
    the body (``values is None``), forwards and logs those bytes as they are,
    and decodes them (:meth:`decode`) only when it delivers the batch.
    """

    __slots__ = ("count", "values", "_body")

    def __init__(
        self,
        values: Optional[Tuple[Value, ...]] = None,
        *,
        count: int = 0,
        body: Optional[bytes] = None,
    ) -> None:
        self.values = values
        self.count = len(values) if values is not None else count
        self._body = body

    @classmethod
    def from_wire(cls, count: Any, body: Any) -> "ValueBatch":
        """The batch a codec frame carried (the body stays encoded)."""
        if count.__class__ is not int or count < 1 or body.__class__ is not bytes:
            raise ValueError(f"malformed value batch: count {count!r}, body {type(body).__name__}")
        # Every batch-carrying frame builds one: set the slots directly
        # rather than through ``__init__``'s keyword arguments.
        batch = object.__new__(cls)
        batch.values = None
        batch.count = count
        batch._body = body
        return batch

    @property
    def body(self) -> bytes:
        """The encoded values: the bytes that arrived, or encoded from ``values`` now."""
        body = self._body
        if body is None:
            body = _batch_codec().encode_batch_body(self.values)
        return body

    def decode(self) -> Tuple[Value, ...]:
        """The values of a batch that arrived as its body (raises ``CodecError``)."""
        return _batch_codec().decode_batch_body(self.count, self._body)

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ValueBatch:
            return NotImplemented
        return self.count == other.count and self.body == other.body

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        form = "values" if self.values is not None else "body"
        return f"ValueBatch({self.count} values, as {form})"


def batch_values(
    values: Tuple[Value, ...],
    proposer: Optional[str] = None,
    created_at: float = 0.0,
) -> Value:
    """Pack ``values`` into a single batch :class:`Value`.

    ``created_at`` stamps the envelope; the inner values keep their own
    creation times so end-to-end latency measurements include queueing delay
    in the batcher.  A batch among ``values`` (a proposer's, spliced in by
    the coordinator) contributes its values in place and its body as it is.
    """
    values = tuple(values)
    spliced = sum(value.payload.__class__ is ValueBatch for value in values)
    return Value(
        uid=next(_value_counter),
        payload=_join(values) if spliced else ValueBatch(values),
        size_bytes=sum(v.size_bytes for v in values)
        + BATCH_HEADER_BYTES * (len(values) - spliced),
        proposer=proposer,
        created_at=created_at,
    )


def _join(parts: Tuple[Value, ...]) -> ValueBatch:
    """The batch of ``parts`` when some are batches: their bytes are reused,
    only the plain values are encoded, and the values are known only if every
    batch among the parts has its own at hand."""
    encode = _batch_codec().encode_batch_body
    chunks: List[bytes] = []
    run: List[Value] = []
    values: Optional[List[Value]] = []
    count = 0
    for part in parts:
        batch = part.payload
        if batch.__class__ is ValueBatch:
            if run:
                chunks.append(encode(run))
                run = []
            chunks.append(batch.body)
            count += batch.count
            inner = batch.values
        else:
            run.append(part)
            count += 1
            inner = (part,)
        if values is not None:
            if inner is None:
                values = None
            else:
                values.extend(inner)
    if run:
        chunks.append(encode(run))
    return ValueBatch(
        None if values is None else tuple(values), count=count, body=b"".join(chunks)
    )


def is_batch(value: Value) -> bool:
    """True when ``value`` is a batch envelope."""
    return value.payload.__class__ is ValueBatch


def unpack_value(value: Value) -> Tuple[Value, ...]:
    """The application values carried by ``value`` (itself, unless batched).

    A batch that arrived as its body is decoded for the call, not kept.
    """
    batch = value.payload
    if batch.__class__ is ValueBatch:
        return batch.values if batch.values is not None else batch.decode()
    return (value,)


def decoded(value: Value) -> Value:
    """``value`` with its values at hand: itself, unless it is a batch that
    arrived as its body -- then a copy holding the decoded values beside the
    same bytes, so that whoever keeps the original (an acceptor log) keeps
    only the bytes.

    Raises :class:`~repro.runtime.codec.CodecError` when the body does not
    decode to ``count`` values.
    """
    batch = value.payload
    if batch.__class__ is not ValueBatch or batch.values is not None:
        return value
    return Value(
        uid=value.uid,
        payload=ValueBatch(batch.decode(), body=batch.body),
        size_bytes=value.size_bytes,
        proposer=value.proposer,
        created_at=value.created_at,
        trace=value.trace,
    )
