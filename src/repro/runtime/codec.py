"""Versioned binary codec for the protocol wire types.

The live backend sends every protocol message over TCP; this module turns
the slotted wire dataclasses of :mod:`repro.ringpaxos.messages`,
:mod:`repro.recovery.messages`, :mod:`repro.reconfig.commands`,
:mod:`repro.smr.command` and the core value types into length-prefixed
frames and back.

Design:

* **Tagged values.**  Every encoded value starts with a one-byte type tag:
  primitives (``None``, booleans, 64-bit ints, big ints, doubles, UTF-8
  strings, bytes), containers (tuple, list, dict, set, frozenset) and
  registered dataclasses (a two-byte class id followed by the fields in
  declaration order).  Arbitrary Python objects are rejected -- the wire
  format is closed over the registered types, which is what makes it
  versionable.
* **Byte stability.**  Encoding is a pure function of the value: sets are
  encoded in sorted order and string-keyed dicts in sorted key order, so the
  same message always encodes to the same bytes regardless of hash
  randomization or insertion order.  The property tests assert
  ``encode(decode(encode(m))) == encode(m)`` for every wire type.
* **Versioned frames.**  A frame is ``!I`` length prefix + one version byte
  + body.  Decoders reject frames from a different codec version loudly
  (``CodecError``) instead of mis-parsing them; bumping ``CODEC_VERSION``
  is the upgrade path when a wire dataclass changes shape.

The class-id table below is append-only: ids are never reused, and new wire
types take fresh ids, so two builds sharing a version byte agree on every id.
A shape that is retired keeps its id in :data:`RETIRED_IDS`, where decoding
it fails loudly.

* **Batches travel as bytes.**  A :class:`~repro.types.ValueBatch` is ``count``
  plus an opaque *body* -- its values encoded back to back by
  :func:`encode_batch_body`.  A receiver's frame decode copies the body out
  and stops there; the ring forwards and logs those bytes, and only a node
  that delivers the batch calls :func:`decode_batch_body`.
"""

from __future__ import annotations

import struct
from dataclasses import fields
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, Tuple, Type

from repro.errors import CodecError

__all__ = [
    "CODEC_VERSION",
    "CodecError",
    "WIRE_TYPES",
    "RETIRED_IDS",
    "encode_value",
    "decode_value",
    "encode_batch_body",
    "decode_batch_body",
    "frame_message",
    "iter_frames",
]

#: Bump when the encoding of any registered type changes incompatibly.
#: v2: ``Value`` gained a ``trace`` field and ``Phase2``/``Decision`` gained
#: optional trace timestamps (causal tracing, :mod:`repro.obs`).
CODEC_VERSION = 2

#: Refuse to parse frames beyond this size (corrupt length prefix guard).
MAX_FRAME_BYTES = 64 * 1024 * 1024


# ----------------------------------------------------------------------
# registered wire dataclasses (append-only id table)
# ----------------------------------------------------------------------
def _wire_types() -> Dict[int, Type]:
    # Imported here (not at module top) to keep the runtime layer free of
    # static protocol-package dependencies; the table is built once.
    from repro.paxos.types import Ballot
    from repro.recovery.checkpoint import Checkpoint
    from repro.recovery.messages import (
        CheckpointData,
        CheckpointFetch,
        CheckpointInfo,
        CheckpointQuery,
        TrimCommand,
        TrimQuery,
        TrimReply,
    )
    from repro.reconfig.commands import (
        ForwardedCommand,
        MigrationInstall,
        MigrationPrepare,
        ProposeControl,
        SpliceRing,
    )
    from repro.ringpaxos.messages import (
        Decision,
        Phase2,
        Proposal,
        RetransmitReply,
        RetransmitRequest,
    )
    from repro.engines.whitebox import (
        WbAccept,
        WbAccepted,
        WbCommit,
        WbSubmit,
        WbTimestamp,
    )
    from repro.smr.command import Command, CommandBatch, Response, SubmitCommand
    from repro.types import Value, ValueBatch

    return {
        # core value types
        1: Value,
        3: Ballot,
        4: ValueBatch,
        # ring paxos
        10: Proposal,
        11: Phase2,
        12: Decision,
        13: RetransmitRequest,
        14: RetransmitReply,
        # smr / client traffic
        20: Command,
        21: CommandBatch,
        22: SubmitCommand,
        23: Response,
        # recovery
        30: CheckpointQuery,
        31: CheckpointInfo,
        32: CheckpointFetch,
        33: CheckpointData,
        34: TrimQuery,
        35: TrimReply,
        36: TrimCommand,
        37: Checkpoint,
        # reconfiguration control payloads
        40: SpliceRing,
        41: MigrationPrepare,
        42: MigrationInstall,
        43: ForwardedCommand,
        44: ProposeControl,
        # white-box atomic multicast (engine #2)
        50: WbSubmit,
        51: WbAccept,
        52: WbAccepted,
        53: WbTimestamp,
        54: WbCommit,
    }


#: Ids of retired shapes: never decoded, never given to a new type.
RETIRED_IDS: Dict[int, str] = {
    2: "ValueBatch as a tuple of decoded values (until batches crossed as bytes)",
}

#: class id -> (constructor, number of fields); class -> (tag + id header, fields getter).
_BY_ID: Dict[int, Tuple[Callable[..., Any], int]] = {}
_BY_CLS: Dict[Type, Tuple[bytes, Callable[[Any], Tuple[Any, ...]]]] = {}


def _ensure_registry() -> None:
    if _BY_ID:
        return
    from repro.types import ValueBatch

    for class_id, cls in _wire_types().items():
        assert class_id not in RETIRED_IDS, f"wire class id {class_id} is retired"
        if cls is ValueBatch:  # not a dataclass: its body is encoded on demand
            names, build = ["count", "body"], ValueBatch.from_wire
        else:
            names, build = [f.name for f in fields(cls)], cls
        getter = attrgetter(*names)
        if len(names) == 1:  # attrgetter of one name returns the bare value
            getter = lambda value, _get=getter: (_get(value),)  # noqa: E731
        _BY_ID[class_id] = (build, len(names))
        _BY_CLS[cls] = (_pack_BH(_T_DATACLASS, class_id), getter)


def WIRE_TYPES() -> Dict[int, Type]:
    """The registered ``class id -> wire class`` table (for tests and tools)."""
    return _wire_types()


# ----------------------------------------------------------------------
# value encoding
# ----------------------------------------------------------------------
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT64 = 0x03
_T_BIGINT = 0x04
_T_FLOAT = 0x05
_T_STR = 0x06
_T_BYTES = 0x07
_T_TUPLE = 0x08
_T_LIST = 0x09
_T_DICT = 0x0A
_T_SET = 0x0B
_T_FROZENSET = 0x0C
_T_DATACLASS = 0x0D

# One tag byte packed together with what always follows it.
_pack_Bq = struct.Struct("!Bq").pack
_pack_Bd = struct.Struct("!Bd").pack
_pack_BI = struct.Struct("!BI").pack
_pack_BH = struct.Struct("!BH").pack
_pack_I = struct.Struct("!I").pack
_pack_I_into = struct.Struct("!I").pack_into
_unpack_q = struct.Struct("!q").unpack_from
_unpack_d = struct.Struct("!d").unpack_from
_unpack_I = struct.Struct("!I").unpack_from
_unpack_H = struct.Struct("!H").unpack_from

#: Tag of a counted run of items -> what collects the decoded items.
_COLLECTIONS = {_T_TUPLE: tuple, _T_LIST: list, _T_SET: set, _T_FROZENSET: frozenset}

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: Decoded strings by value, so that equal strings decoded from different
#: frames are one object: a value's node, group and payload words are held
#: by every acceptor log and learner that keeps it.  Bounded by clearing it
#: when it passes ``_SHARED_STRINGS_MAX`` (``sys.intern`` would not be:
#: interned strings stay resident on Python 3.12).
_shared_strings: Dict[str, str] = {}
_SHARED_STRINGS_MAX = 4096

#: What a decoder can hit on bytes no encoder produced (truncated body, bad
#: UTF-8, a field count that does not fit the class, nesting without end).
_MALFORMED = (IndexError, struct.error, UnicodeDecodeError, TypeError, ValueError, RecursionError)


def _encode_run(out: bytearray, values: Iterable[Any]) -> None:
    """Append the encoding of each of ``values`` to ``out``.

    One call encodes a whole run -- the fields of a dataclass, the items of
    a tuple -- with the leaf types handled in the loop, so a ring message
    costs one call per container instead of one per node.
    """
    for value in values:
        kind = type(value)
        if kind is str:
            raw = value.encode("utf-8")
            out += _pack_BI(_T_STR, len(raw))
            out += raw
        elif kind is int:
            if _INT64_MIN <= value <= _INT64_MAX:
                out += _pack_Bq(_T_INT64, value)
            else:
                raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
                out += _pack_BI(_T_BIGINT, len(raw))
                out += raw
        elif value is None:
            out.append(_T_NONE)
        elif kind is float:
            out += _pack_Bd(_T_FLOAT, value)
        elif kind is bool:
            out.append(_T_TRUE if value else _T_FALSE)
        elif (registered := _BY_CLS.get(kind)) is not None:
            header, fields_of = registered
            out += header
            _encode_run(out, fields_of(value))
        elif kind is tuple:
            out += _pack_BI(_T_TUPLE, len(value))
            _encode_run(out, value)
        elif kind is list:
            out += _pack_BI(_T_LIST, len(value))
            _encode_run(out, value)
        elif kind is frozenset or kind is set:
            out += _pack_BI(_T_SET if kind is set else _T_FROZENSET, len(value))
            if len(value) < 2:
                _encode_run(out, value)
            else:
                # Sorted by encoding for byte stability.
                for raw in sorted(_encode_value_bytes(item) for item in value):
                    out += raw
        elif kind is dict:
            out += _pack_BI(_T_DICT, len(value))
            items = value.items()
            if all(type(key) is str for key in value):
                # Sorted for byte stability (wire dicts are string-keyed).
                items = sorted(items)
            _encode_run(out, chain.from_iterable(items))
        elif kind is bytes or kind is bytearray:
            out += _pack_BI(_T_BYTES, len(value))
            out += value
        else:
            raise CodecError(
                f"cannot encode {kind.__module__}.{kind.__qualname__}: not a registered wire type"
            )


def _encode_value_bytes(value: Any) -> bytes:
    buf = bytearray()
    _encode_run(buf, (value,))
    return bytes(buf)


def encode_value(value: Any) -> bytes:
    """Encode one value (a wire dataclass, primitive or container) to bytes."""
    _ensure_registry()
    return _encode_value_bytes(value)


def _decode_run(data, offset: int, count: int) -> Tuple[List[Any], int]:
    """Decode ``count`` consecutive values of ``data`` starting at ``offset``.

    The mirror of :func:`_encode_run`: returns the values and the offset
    after the last one.  ``data`` may be ``bytes`` or the receive
    ``bytearray``; nothing decoded aliases it.
    """
    items: List[Any] = []
    append = items.append
    for _ in range(count):
        tag = data[offset]
        if tag == _T_STR:
            start = offset + 5
            offset = start + _unpack_I(data, offset + 1)[0]
            text = str(data[start:offset], "utf-8")
            shared = _shared_strings.get(text)
            if shared is None:
                if len(_shared_strings) >= _SHARED_STRINGS_MAX:
                    _shared_strings.clear()
                shared = _shared_strings[text] = text
            append(shared)
        elif tag == _T_INT64:
            append(_unpack_q(data, offset + 1)[0])
            offset += 9
        elif tag == _T_NONE:
            append(None)
            offset += 1
        elif tag == _T_DATACLASS:
            class_id = _unpack_H(data, offset + 1)[0]
            entry = _BY_ID.get(class_id)
            if entry is None:
                retired = " (retired)" if class_id in RETIRED_IDS else ""
                raise CodecError(f"unknown wire class id {class_id}{retired}")
            values, offset = _decode_run(data, offset + 3, entry[1])
            append(entry[0](*values))
        elif tag == _T_FLOAT:
            append(_unpack_d(data, offset + 1)[0])
            offset += 9
        elif tag == _T_FALSE:
            append(False)
            offset += 1
        elif tag == _T_TRUE:
            append(True)
            offset += 1
        elif (collect := _COLLECTIONS.get(tag)) is not None:
            values, offset = _decode_run(data, offset + 5, _unpack_I(data, offset + 1)[0])
            append(collect(values))
        elif tag == _T_DICT:
            values, offset = _decode_run(data, offset + 5, 2 * _unpack_I(data, offset + 1)[0])
            append(dict(zip(values[0::2], values[1::2])))
        elif tag == _T_BYTES:
            start = offset + 5
            offset = start + _unpack_I(data, offset + 1)[0]
            append(bytes(data[start:offset]))
        elif tag == _T_BIGINT:
            start = offset + 5
            offset = start + _unpack_I(data, offset + 1)[0]
            append(int.from_bytes(data[start:offset], "big", signed=True))
        else:
            raise CodecError(f"unknown value tag 0x{tag:02x} at offset {offset}")
    return items, offset


def _decode_exactly(data, offset: int, end: int, count: int) -> List[Any]:
    """The ``count`` values that occupy ``data[offset:end]`` exactly."""
    try:
        values, offset = _decode_run(data, offset, count)
    except _MALFORMED as exc:
        raise CodecError(f"malformed value: {exc!r}") from exc
    if offset != end:
        raise CodecError(f"trailing garbage after value: {end - offset} bytes")
    return values


def decode_value(data: bytes) -> Any:
    """Decode one value produced by :func:`encode_value` (must consume all bytes)."""
    _ensure_registry()
    return _decode_exactly(data, 0, len(data), 1)[0]


def encode_batch_body(values: Iterable[Any]) -> bytes:
    """The body of a value batch: its values encoded back to back."""
    _ensure_registry()
    out = bytearray()
    _encode_run(out, values)
    return bytes(out)


def decode_batch_body(count: int, body: bytes) -> Tuple[Any, ...]:
    """The ``count`` values of a batch body; anything else is a ``CodecError``."""
    _ensure_registry()
    values = _decode_exactly(body, 0, len(body), count)
    value_class = _BY_ID[1][0]
    for value in values:
        if value.__class__ is not value_class:
            raise CodecError(f"batch body holds a {type(value).__name__}, not a Value")
    return tuple(values)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
#: How the body of a transport frame starts: the tuple header of
#: ``(src, dst, payload)``; and the same behind a length placeholder and the
#: version byte.
_TRIPLE = _pack_BI(_T_TUPLE, 3)
_MESSAGE_PREFIX = b"\x00\x00\x00\x00" + bytes([CODEC_VERSION]) + _TRIPLE


def _frame_end(data, offset: int) -> int:
    """Where the frame starting at ``offset`` ends; 0 while it is incomplete.

    The length prefix covers version byte + body -- the *encoded length
    contract* the framing tests pin down.
    """
    available = len(data) - offset
    if available < 4:
        return 0
    (length,) = _unpack_I(data, offset)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
    if length < 1:
        raise CodecError("empty frame (missing version byte)")
    if available < 4 + length:
        return 0
    version = data[offset + 4]
    if version != CODEC_VERSION:
        raise CodecError(
            f"codec version mismatch: peer speaks v{version}, this build speaks v{CODEC_VERSION}"
        )
    return offset + 4 + length


def frame_message(src: str, dst: str, payload: Any) -> bytes:
    """Encode one transport message (sender, receiver, payload) as a frame."""
    _ensure_registry()
    out = bytearray(_MESSAGE_PREFIX)
    _encode_run(out, (src, dst, payload))
    _pack_I_into(out, 0, len(out) - 4)
    return bytes(out)


def iter_frames(buffer: bytearray):
    """Yield ``(src, dst, payload)`` for every complete frame in ``buffer``.

    Frames are decoded in place at an advancing offset and the consumed
    bytes removed from ``buffer`` once per call; a trailing partial frame is
    left for the next read.
    """
    _ensure_registry()
    offset = 0
    try:
        while True:
            end = _frame_end(buffer, offset)
            if not end:
                return
            if not buffer.startswith(_TRIPLE, offset + 5):
                raise CodecError("malformed transport frame: expected (src, dst, payload)")
            values = _decode_exactly(buffer, offset + 10, end, 3)
            offset = end
            yield tuple(values)
    finally:
        if offset:
            del buffer[:offset]
