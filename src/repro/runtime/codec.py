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
* **Compiled hot paths, same bytes.**  :func:`_encode_run` and
  :func:`_decode_run` walk the grammar value by value; they are the
  reference and the one fallback.  Each registered class also gets a
  straight-line encoder, generated on its first use from its field types
  (:func:`_compile_encoder`), and a frame or batch-body value that the walk
  decodes teaches a *layout* for its shape (:class:`_Shape`): one
  ``struct`` per fixed-width run of the bytes, the tags, lengths, counts
  and class ids that must read the same, and a builder that calls the
  constructors directly.  A layout only accepts bytes the walk would decode
  to the same objects; anything else -- and every error -- goes to the walk.
  The gain rests on shapes repeating; a class stops learning after
  ``_LAYOUTS_PER_CLASS_MAX`` shapes, so traffic whose shapes never repeat
  pays the walk and, once per class, that many compiles.
"""

from __future__ import annotations

import struct
import typing
from dataclasses import fields
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Type

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
    "decode_counts",
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
    }


#: Ids of retired shapes: never decoded, never given to a new type.
RETIRED_IDS: Dict[int, str] = {
    2: "ValueBatch as a tuple of decoded values (until batches crossed as bytes)",
    50: "WbSubmit of White-Box Atomic Multicast (its engine was removed)",
    51: "WbAccept of White-Box Atomic Multicast (its engine was removed)",
    52: "WbAccepted of White-Box Atomic Multicast (its engine was removed)",
    53: "WbTimestamp of White-Box Atomic Multicast (its engine was removed)",
    54: "WbCommit of White-Box Atomic Multicast (its engine was removed)",
}

#: class id -> (constructor, number of fields).
_BY_ID: Dict[int, Tuple[Callable[..., Any], int]] = {}
#: class -> its encoder ``encode(out, value)``, compiled on first use.
_BY_CLS: Dict[Type, Callable[[bytearray, Any], None]] = {}
#: class -> (tag + id header, field names, field types or ``None`` to read
#: them from the class): what its encoders are built from.
_SPEC: Dict[Type, Tuple[bytes, Tuple[str, ...], Optional[Dict[str, Any]]]] = {}


def _ensure_registry() -> None:
    if _BY_ID:
        return
    from repro.types import ValueBatch

    for class_id, cls in _wire_types().items():
        assert class_id not in RETIRED_IDS, f"wire class id {class_id} is retired"
        if cls is ValueBatch:  # not a dataclass: its body is encoded on demand
            names, build, types = ("count", "body"), ValueBatch.from_wire, {"count": int, "body": bytes}
        else:
            names, build, types = tuple(f.name for f in fields(cls)), cls, None
        _BY_ID[class_id] = (build, len(names))
        _SPEC[cls] = (_pack_BH(_T_DATACLASS, class_id), names, types)
        _BY_CLS[cls] = _compiled_on_first_use(cls)


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


def _share(text: str) -> str:
    shared = _shared_strings.get(text)
    if shared is None:
        if len(_shared_strings) >= _SHARED_STRINGS_MAX:
            _shared_strings.clear()
        shared = _shared_strings[text] = text
    return shared

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
            out += _encoded_strings.get(value) or _encoded_string(value)
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
        elif (encode := _BY_CLS.get(kind)) is not None:
            encode(out, value)
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


def _encode_one(out: bytearray, value: Any) -> None:
    _encode_run(out, (value,))


def _encode_value_bytes(value: Any) -> bytes:
    buf = bytearray()
    _encode_run(buf, (value,))
    return bytes(buf)


def encode_value(value: Any) -> bytes:
    """Encode one value (a wire dataclass, primitive or container) to bytes."""
    _ensure_registry()
    return _encode_value_bytes(value)


# ----------------------------------------------------------------------
# compiled encoders: one straight-line function per registered class
# ----------------------------------------------------------------------
#: Encoded names (``str`` fields) and small string sets (``Phase2.votes``):
#: a ring sends the same few over and over.  Only short strings and sets of
#: strings are kept (``frozenset({1}) == frozenset({True})`` encode apart),
#: and each table is cleared when it reaches ``_ENCODED_MAX``.
_encoded_strings: Dict[str, bytes] = {}
_encoded_sets: Dict[frozenset, bytes] = {}
_ENCODED_MAX = 1024
_ENCODED_STRING_CHARS = 64
_ENCODED_SET_ITEMS = 8


def _encoded_string(text: str) -> bytes:
    raw = text.encode("utf-8")
    encoded = _pack_BI(_T_STR, len(raw)) + raw
    if len(text) <= _ENCODED_STRING_CHARS:
        if len(_encoded_strings) >= _ENCODED_MAX:
            _encoded_strings.clear()
        _encoded_strings[text] = encoded
    return encoded


def _encoded_set(items: frozenset) -> bytes:
    encoded = _encode_value_bytes(items)
    if len(items) <= _ENCODED_SET_ITEMS and all(
        item.__class__ is str and len(item) <= _ENCODED_STRING_CHARS for item in items
    ):
        if len(_encoded_sets) >= _ENCODED_MAX:
            _encoded_sets.clear()
        _encoded_sets[items] = encoded
    return encoded


def _compiled_on_first_use(cls: Type) -> Callable[[bytearray, Any], None]:
    def encode(out: bytearray, value: Any) -> None:
        compiled = _BY_CLS[cls] = _compile_encoder(cls)
        compiled(out, value)

    return encode


def _generic_encoder(cls: Type) -> Callable[[bytearray, Any], None]:
    """``cls``'s fields through :func:`_encode_run`: what a compiled encoder must equal."""
    header, names, _ = _SPEC[cls]
    getter = attrgetter(*names)
    if len(names) == 1:  # attrgetter of one name returns the bare value
        getter = lambda value, _get=getter: (_get(value),)  # noqa: E731

    def encode(out: bytearray, value: Any) -> None:
        out += header
        _encode_run(out, getter(value))

    return encode


def _field_type(hint: Any) -> Tuple[bool, Any]:
    """``(may be None, the one plain type a field is declared as -- or None)``."""
    optional = False
    if typing.get_origin(hint) is typing.Union:
        args = typing.get_args(hint)
        rest = [arg for arg in args if arg is not type(None)]
        optional = len(rest) < len(args)
        hint = rest[0] if len(rest) == 1 else None
    return optional, typing.get_origin(hint) or hint


#: Declared type -> (struct codes, packed arguments, guard) of a field that
#: packs at a fixed width; ``{v}`` is the field's local name.
_FIXED = {
    int: ("Bq", f"{_T_INT64}, {{v}}", "{v}.__class__ is int and LO <= {v} <= HI"),
    float: ("Bd", f"{_T_FLOAT}, {{v}}", "{v}.__class__ is float"),
    bool: ("B", f"{_T_FALSE} - {{v}}", "{v}.__class__ is bool"),
}
#: Declared type -> (guard, what appends it) of a field encoded on its own:
#: strings, string sets, bytes, and optional ints and floats.
_ALONE = {
    str: ("{v}.__class__ is str", "out += SB.get({v}) or sb({v})"),
    frozenset: ("{v}.__class__ is frozenset", "out += FS.get({v}) or fs({v})"),
    bytes: ("{v}.__class__ is bytes", f"out += BI({_T_BYTES}, len({{v}})); out += {{v}}"),
    float: (_FIXED[float][2], f"out += Bd({_T_FLOAT}, {{v}})"),
    int: (_FIXED[int][2], f"out += Bq({_T_INT64}, {{v}})"),
}


def _compile_encoder(cls: Type) -> Callable[[bytearray, Any], None]:
    """A straight-line encoder for ``cls``, generated from its field types.

    Consecutive fields declared ``int``/``float``/``bool`` are packed by one
    ``struct`` call; names and small string sets come from the encoded
    tables.  Each field whose value is not what its declaration says goes
    through :func:`_encode_run`, so the bytes are the generic walk's for any
    value.  The source holds field names and constants only.
    """
    header, names, types = _SPEC[cls]
    if types is None:
        try:
            types = typing.get_type_hints(cls)
        except (NameError, AttributeError, TypeError):  # unresolvable: every field takes the walk
            types = {}
    namespace: Dict[str, Any] = {
        "H": header, "ENC": _BY_CLS, "one": _encode_one, "run": _encode_run,
        "SB": _encoded_strings, "sb": _encoded_string, "FS": _encoded_sets, "fs": _encoded_set,
        "LO": _INT64_MIN, "HI": _INT64_MAX, "BI": _pack_BI, "Bd": _pack_Bd, "Bq": _pack_Bq,
    }
    lines = ["def encode(out, m):", "    out += H"]
    fixed: List[Tuple[str, str, Any]] = []  # (local, field, declared type) not yet packed

    def pack_fixed() -> None:
        if not fixed:
            return
        pack = f"P{len(namespace)}"
        namespace[pack] = struct.Struct("!" + "".join(_FIXED[kind][0] for _, _, kind in fixed)).pack
        lines.extend(f"    {v} = m.{name}" for v, name, _ in fixed)
        lines.extend([
            f"    if {' and '.join(_FIXED[kind][2].format(v=v) for v, _, kind in fixed)}:",
            f"        out += {pack}({', '.join(_FIXED[kind][1].format(v=v) for v, _, kind in fixed)})",
            "    else:",
            f"        run(out, ({''.join(v + ', ' for v, _, _ in fixed)}))",
        ])
        fixed.clear()

    for index, name in enumerate(names):
        v = f"f{index}"
        optional, kind = _field_type(types.get(name))
        if kind in _FIXED and not optional:
            fixed.append((v, name, kind))
            continue
        pack_fixed()
        lines.append(f"    {v} = m.{name}")
        if kind not in _ALONE:  # any value: a tuple (the usual payload) packs here
            lines.append(f"    if {v}.__class__ is tuple: out += BI({_T_TUPLE}, len({v})); run(out, {v})")
            lines.append(f"    else: (ENC.get({v}.__class__) or one)(out, {v})")
            continue
        guard, append = _ALONE[kind]
        if optional:
            lines.append(f"    if {v} is None: out.append({_T_NONE})")
        lines.append(f"    {'elif' if optional else 'if'} {guard.format(v=v)}: {append.format(v=v)}")
        lines.append(f"    else: one(out, {v})")
    pack_fixed()
    exec(compile("\n".join(lines), f"<encoder of {cls.__qualname__}>", "exec"), namespace)
    return namespace["encode"]


# ----------------------------------------------------------------------
# decoding: the generic walk
# ----------------------------------------------------------------------
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
            append(_share(str(data[start:offset], "utf-8")))
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


# ----------------------------------------------------------------------
# decoding: learned layouts
# ----------------------------------------------------------------------
#: Shapes one class may learn per table, ever; past it the class is left to
#: the walk, so shapes that never repeat cost no more than the walk alone.
_LAYOUTS_PER_CLASS_MAX = 32
#: Shapes nested deeper or holding more items than this are left to the walk
#: (the generated builder is one expression).
_LAYOUT_DEPTH_MAX = 24
_LAYOUT_ITEMS_MAX = 512

#: Decoded frames and batch-body values, by path: ``[layout, walk]``.
_DECODES = [0, 0]

#: Shared decoded strings by their encoded bytes (what a layout's ``struct``
#: hands back), short ones only; bounded like ``_shared_strings``.
_shared_raw: Dict[bytes, str] = {}


def _text(raw: bytes) -> str:
    shared = _share(str(raw, "utf-8"))
    if len(raw) <= _ENCODED_STRING_CHARS:
        if len(_shared_raw) >= _SHARED_STRINGS_MAX:
            _shared_raw.clear()
        _shared_raw[raw] = shared
    return shared


class _Unlearnable(Exception):
    """A shape too deep or too large to compile."""


#: Decoded expression of a counted collection, from its items followed by ", ".
_COLLECTION_EXPRESSIONS = {
    _T_TUPLE: "({})",
    _T_LIST: "[{}]",
    _T_SET: "set(({}))",
    _T_FROZENSET: "frozenset(({}))",
}
_CONSTANT_EXPRESSIONS = {_T_NONE: "None", _T_TRUE: "True", _T_FALSE: "False"}


class _Shape:
    """One valid encoded value, read by the grammar into a layout.

    Items are read into fixed-width *segments*, one ``struct`` format each;
    a ``bytes`` value ends a segment, because its length is data and what
    follows it has no fixed offset.  The *skeleton* -- tags, string and big
    int lengths, counts, class ids -- must read the same for a layout to
    accept bytes; everything else is data.  ``first`` holds the skeleton of
    segment 0 as ``(offset, width, value)``, which tells shapes apart.
    """

    def __init__(self) -> None:
        self.segments: List[Tuple[str, int, List[int], List[int], Optional[int]]] = []
        self.first: List[Tuple[int, int, int]] = []
        self.constructors: Dict[str, Callable[..., Any]] = {}
        self.items = 0
        self._open()

    def _open(self) -> None:
        self.codes = ["!"]
        self.width = 0
        self.skeleton_at: List[int] = []
        self.skeleton: List[int] = []

    def _item(self, code: str, size: int) -> str:
        self.items += 1
        if self.items > _LAYOUT_ITEMS_MAX:
            raise _Unlearnable
        self.codes.append(code)
        self.width += size
        return f"t{len(self.segments)}[{len(self.codes) - 2}]"

    def _skeleton(self, code: str, size: int, value: int) -> None:
        if not self.segments:
            self.first.append((self.width, size, value))
        self.skeleton_at.append(len(self.codes) - 1)
        self.skeleton.append(value)
        self._item(code, size)

    def _close(self, length_at: Optional[int]) -> None:
        self.segments.append(("".join(self.codes), self.width, self.skeleton_at, self.skeleton, length_at))
        self._open()

    def walk(self, data, offset: int, depth: int = 0) -> Tuple[str, int]:
        """The builder expression of the value at ``offset``, and where it ends."""
        if depth > _LAYOUT_DEPTH_MAX:
            raise _Unlearnable
        tag = data[offset]
        self._skeleton("B", 1, tag)
        if tag in _CONSTANT_EXPRESSIONS:
            return _CONSTANT_EXPRESSIONS[tag], offset + 1
        if tag == _T_INT64:
            return self._item("q", 8), offset + 9
        if tag == _T_FLOAT:
            return self._item("d", 8), offset + 9
        if tag == _T_DATACLASS:
            class_id = _unpack_H(data, offset + 1)[0]
            self._skeleton("H", 2, class_id)
            build, count = _BY_ID[class_id]
            name = f"c{class_id}"
            self.constructors[name] = build
            args, offset = self._walk_run(data, offset + 3, count, depth)
            return f"{name}({', '.join(args)})", offset
        length = _unpack_I(data, offset + 1)[0]
        if tag == _T_BYTES:  # the length is data: the segment ends here
            self._item("I", 4)
            self._close(length_at=len(self.codes) - 2)
            return f"b{len(self.segments) - 1}", offset + 5 + length
        self._skeleton("I", 4, length)
        if tag == _T_STR:
            raw = self._item(f"{length}s", length)
            return f"(S.get({raw}) or text({raw}))", offset + 5 + length
        if tag == _T_BIGINT:
            raw = self._item(f"{length}s", length)
            return f"big({raw}, 'big', signed=True)", offset + 5 + length
        if tag == _T_DICT:
            args, offset = self._walk_run(data, offset + 5, 2 * length, depth)
            return "{" + ", ".join(f"{k}: {v}" for k, v in zip(args[0::2], args[1::2])) + "}", offset
        args, offset = self._walk_run(data, offset + 5, length, depth)
        return _COLLECTION_EXPRESSIONS[tag].format("".join(arg + ", " for arg in args)), offset

    def _walk_run(self, data, offset: int, count: int, depth: int) -> Tuple[List[str], int]:
        args = []
        for _ in range(count):
            arg, offset = self.walk(data, offset, depth + 1)
            args.append(arg)
        return args, offset

    def compile(self, expression: str) -> Callable[[Any, int], Optional[Tuple[Any, int]]]:
        """``decode(data, pos)``: ``(value, end)``, or ``None`` if the skeleton differs.

        The source holds indices, names and constants only: the skeleton
        values it checks and every width are bound in its namespace.
        """
        self._close(None)
        namespace: Dict[str, Any] = dict(
            self.constructors, S=_shared_raw, text=_text, big=int.from_bytes, bytes=bytes
        )
        lines = ["def decode(data, pos):"]
        for k, (codes, width, skeleton_at, skeleton, length_at) in enumerate(self.segments):
            if not width:  # nothing follows the last bytes value
                continue
            namespace[f"U{k}"] = struct.Struct(codes).unpack_from
            namespace[f"K{k}"] = itemgetter(*skeleton_at)
            namespace[f"V{k}"] = tuple(skeleton) if len(skeleton) > 1 else skeleton[0]
            namespace[f"W{k}"] = width
            lines += [
                f"    t{k} = U{k}(data, pos)",
                f"    if K{k}(t{k}) != V{k}:",
                "        return None",
                f"    pos += W{k}",
            ]
            if length_at is not None:
                lines += [
                    f"    end = pos + t{k}[{length_at}]",
                    f"    b{k} = bytes(data[pos:end])",
                    "    pos = end",
                ]
        lines.append(f"    return {expression}, pos")
        exec(compile("\n".join(lines), "<codec layout>", "exec"), namespace)
        return namespace["decode"]


class _Layout:
    """A compiled shape, and the next one learned with the same segment 0.

    Shapes that differ only after a ``bytes`` value (a traced and an
    untraced ``Decision`` of a batch) cannot be told apart at a fixed
    offset; they chain, in the order learned, and each refuses the other's
    bytes by its skeleton check.
    """

    __slots__ = ("decode", "items", "next")

    def __init__(self, decode: Callable, items: List[Tuple[int, int, int]]) -> None:
        self.decode = decode
        self.items = items
        self.next: Optional[_Layout] = None


class _Branch:
    """Where the layouts below it first differ: one skeleton item of segment 0."""

    __slots__ = ("index", "offset", "unpack", "items", "children")

    def __init__(self, index: int, items: List[Tuple[int, int, int]], children: Dict[int, Any]) -> None:
        self.index = index
        self.offset, width, _ = items[index]
        self.unpack = None if width == 1 else (_unpack_H if width == 2 else _unpack_I)
        self.items = items  # a layout's below: they all share its items before ``index``
        self.children = children


def _insert(node: Any, layout: _Layout) -> Any:
    """``node`` with ``layout`` in it."""
    items, known = layout.items, node.items
    limit = node.index if node.__class__ is _Branch else min(len(items), len(known))
    differ = next((i for i in range(limit) if items[i] != known[i]), limit)
    if differ < limit:
        return _Branch(differ, known, {known[differ][2]: node, items[differ][2]: layout})
    if node.__class__ is _Layout:  # the same segment 0: chained behind the older shapes
        last = node
        while last.next is not None:
            last = last.next
        last.next = layout
        return node
    key = items[node.index][2]
    child = node.children.get(key)
    node.children[key] = layout if child is None else _insert(child, layout)
    return node


class _LayoutTable:
    """Learned layouts of one kind of encoded value, by class id.

    Within a class, layouts are told apart by a tree over the first
    skeleton items where they differ, so finding one reads a byte or two;
    only shapes with the same segment 0 are tried in turn.  A class learns
    at most ``_LAYOUTS_PER_CLASS_MAX`` shapes, counting those too big to
    compile, and keeps them.
    """

    __slots__ = ("roots", "counts")

    def __init__(self) -> None:
        self.roots: Dict[int, Any] = {}
        self.counts: Dict[int, int] = {}

    def decode(self, class_id: int, data, base: int) -> Optional[Tuple[Any, int]]:
        """``(value, end)`` by a learned layout, or ``None`` if none accepts the bytes."""
        node = self.roots.get(class_id)
        while node.__class__ is _Branch:
            at = base + node.offset
            node = node.children.get(data[at] if node.unpack is None else node.unpack(data, at)[0])
        while node is not None:
            try:
                decoded = node.decode(data, base)
            except _MALFORMED:  # a longer shape read past the end: the next may fit
                decoded = None
            if decoded is not None:
                return decoded
            node = node.next
        return None

    def learn(self, class_id: int, data, base: int) -> None:
        """Compile the shape of the valid encoded value at ``base``, while the class may learn."""
        count = self.counts.get(class_id, 0)
        if count >= _LAYOUTS_PER_CLASS_MAX:
            return
        self.counts[class_id] = count + 1
        shape = _Shape()
        try:
            expression, _ = shape.walk(data, base)
        except _Unlearnable:
            return
        layout = _Layout(shape.compile(expression), shape.first)
        root = self.roots.get(class_id)
        self.roots[class_id] = layout if root is None else _insert(root, layout)


#: Frames, found by their payload's class id; batch-body values, by theirs.
_FRAMES = _LayoutTable()
_VALUES = _LayoutTable()


def decode_counts() -> Tuple[int, int]:
    """Frames and batch-body values decoded so far in this process: ``(by a layout, by the walk)``."""
    return _DECODES[0], _DECODES[1]


def encode_batch_body(values: Iterable[Any]) -> bytes:
    """The body of a value batch: its values encoded back to back."""
    _ensure_registry()
    out = bytearray()
    for value in values:
        (_BY_CLS.get(value.__class__) or _encode_one)(out, value)
    return bytes(out)


def decode_batch_body(count: int, body: bytes) -> Tuple[Any, ...]:
    """The ``count`` values of a batch body; anything else is a ``CodecError``."""
    _ensure_registry()
    values: List[Any] = []
    append = values.append
    decode = _VALUES.decode
    position = 0
    try:
        while len(values) < count:  # a body holds Values (class id 1) only
            decoded = decode(1, body, position)
            if decoded is None:
                break
            value, position = decoded
            append(value)
    except _MALFORMED:
        pass
    _DECODES[0] += len(values)
    if len(values) < count or position != len(body):
        # The walk decodes the rest: the layouts only ever accept what it
        # would, so its errors are the errors of the whole body.
        rest = _decode_exactly(body, position, len(body), count - len(values))
        value_class = _BY_ID[1][0]
        for value in rest:
            if value.__class__ is not value_class:
                raise CodecError(f"batch body holds a {type(value).__name__}, not a Value")
        _DECODES[1] += len(rest)
        if rest:
            _VALUES.learn(1, body, position)
        values += rest
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


def _payload_class_id(data, start: int) -> int:
    """The class id of the payload of the frame body at ``start``: after the two names."""
    src = _unpack_I(data, start + 6)[0]
    dst = _unpack_I(data, start + 11 + src)[0]
    return _unpack_H(data, start + 16 + src + dst)[0]


def _walk_frame(buffer, start: int, end: int, class_id: Optional[int]) -> Tuple[Any, Any, Any]:
    """The frame body ``buffer[start:end]`` decoded by the walk; its layout learned."""
    if not buffer.startswith(_TRIPLE, start):
        raise CodecError("malformed transport frame: expected (src, dst, payload)")
    message = tuple(_decode_exactly(buffer, start + 5, end, 3))
    _DECODES[1] += 1
    if class_id is not None and message[2].__class__ in _BY_CLS:
        _FRAMES.learn(class_id, buffer, start)
    return message


def frame_message(src: str, dst: str, payload: Any) -> bytes:
    """Encode one transport message (sender, receiver, payload) as a frame."""
    _ensure_registry()
    out = bytearray(_MESSAGE_PREFIX)
    if src.__class__ is str and dst.__class__ is str:
        out += _encoded_strings.get(src) or _encoded_string(src)
        out += _encoded_strings.get(dst) or _encoded_string(dst)
        (_BY_CLS.get(payload.__class__) or _encode_one)(out, payload)
    else:
        _encode_run(out, (src, dst, payload))
    _pack_I_into(out, 0, len(out) - 4)
    return bytes(out)


def iter_frames(buffer: bytearray):
    """Yield ``(src, dst, payload)`` for every complete frame in ``buffer``.

    Frames are decoded in place at an advancing offset -- by the layout
    learned for their shape, else by the walk -- and the consumed bytes
    removed from ``buffer`` once per call; a trailing partial frame is left
    for the next read.
    """
    _ensure_registry()
    decode = _FRAMES.decode
    offset = 0
    compiled = 0
    try:
        while True:
            end = _frame_end(buffer, offset)
            if not end:
                return
            start = offset + 5
            class_id = None
            try:
                class_id = _payload_class_id(buffer, start)
                decoded = decode(class_id, buffer, start)
            except _MALFORMED:  # the tree read past a frame shorter than the shapes learned
                decoded = None
            if decoded is not None and decoded[1] == end:
                message = decoded[0]
                compiled += 1
            else:
                message = _walk_frame(buffer, start, end, class_id)
            offset = end
            yield message
    finally:
        _DECODES[0] += compiled
        if offset:
            del buffer[:offset]
