"""Round-trip property tests for the versioned wire codec.

Every registered wire dataclass must

* survive ``decode(encode(x)) == x``,
* encode **byte-stably**: ``encode(decode(encode(x))) == encode(x)``,
* keep its ``size_bytes`` contract across the wire (the decoded message
  reports the same wire-model size as the original), and
* obey the framing length contract (the ``!I`` prefix covers exactly the
  version byte plus the body), and
* come out of the compiled encoders and learned decode layouts exactly as
  out of the generic walk (same bytes, same objects, same ``CodecError``).

The golden digests at the bottom freeze the bytes.  The id table is
append-only: a new shape takes a new id, and a retired shape keeps its id in
``RETIRED_IDS`` forever -- its golden entry stays too, and the digest test
checks that those historical bytes are now refused instead of decoded.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import random
import typing

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.runtime.codec import (
    CODEC_VERSION,
    RETIRED_IDS,
    CodecError,
    WIRE_TYPES,
    decode_value,
    encode_value,
    frame_message,
    iter_frames,
)
from repro.smr.command import Command, CommandBatch, Response, SubmitCommand
from repro.types import Value, ValueBatch, batch_values, skip_value


def _value(rng: random.Random) -> Value:
    if rng.random() < 0.15:
        return skip_value(created_at=rng.random(), proposer="coord")
    payload = rng.choice(
        [
            ("append", "log-0", rng.randrange(4096)),
            ("update", f"key-{rng.randrange(100)}", 1024),
            "plain-string",
            rng.randrange(10**12),
            None,
            (("multi-append", ("a", "b"), 64), 1.5),
        ]
    )
    return Value.create(payload, rng.randrange(1, 65536), proposer=f"n{rng.randrange(5)}", created_at=rng.random())


def _command(rng: random.Random) -> Command:
    return Command.create(
        client=f"client-{rng.randrange(4)}",
        operation=("update", f"key-{rng.randrange(50)}", 1024),
        size_bytes=rng.randrange(1, 4096),
        created_at=rng.random(),
        expected_responses=rng.choice([1, 2, 4]),
    )


def _samples(rng: random.Random):
    """One randomized instance of every registered wire dataclass."""
    value = _value(rng)
    ballot = Ballot(rng.randrange(1, 5), f"n{rng.randrange(3)}")
    command = _command(rng)
    checkpoint = Checkpoint.create(
        replica=f"rep{rng.randrange(3)}",
        cursor={f"g{i}": rng.randrange(1000) for i in range(rng.randrange(1, 4))},
        state={"tree": [("k", rng.randrange(10))], "epoch": rng.randrange(5)},
        state_size_bytes=rng.randrange(1, 1 << 20),
        taken_at=rng.random() * 100,
    )
    return [
        value,
        batch_values((value, _value(rng)), proposer="n0", created_at=rng.random()),
        ValueBatch(values=(value, _value(rng))),
        ballot,
        Proposal(group="g0", value=value),
        Phase2(
            group="g0",
            instance=rng.randrange(10000),
            count=rng.choice([1, 1, 1, rng.randrange(2, 50)]),
            ballot=ballot,
            value=value,
            votes=frozenset(f"n{i}" for i in range(rng.randrange(1, 5))),
            origin="n0",
        ),
        Decision(group="g0", instance=rng.randrange(10000), count=1, value=value, origin="n1"),
        RetransmitRequest(group="g0", first=3, last=17, reply_to="rep0", token=rng.choice([0, -1])),
        RetransmitReply(
            group="g0",
            entries=tuple((i, _value(rng)) for i in range(rng.randrange(3))),
            trimmed_up_to=rng.choice([None, 5]),
            token=0,
        ),
        command,
        CommandBatch(commands=(command, _command(rng))),
        SubmitCommand(group="g1", command=command),
        Response(
            command_id=command.command_id,
            replica="rep1",
            partition="p0",
            result=("ok", rng.randrange(100)),
            result_size_bytes=64,
        ),
        CheckpointQuery(reply_to="rep0"),
        CheckpointInfo(cursor={"g0": 10, "g1": 7}, checkpoint_id=3, state_size_bytes=4096),
        CheckpointFetch(reply_to="rep0", checkpoint_id=3),
        CheckpointData(checkpoint=checkpoint),
        TrimQuery(group="g0", reply_to="coord"),
        TrimReply(group="g0", replica="rep2", safe_instance=42),
        TrimCommand(group="g0", up_to=41),
        checkpoint,
        SpliceRing(group="g2", learners=("rep0", "rep1")),
        MigrationPrepare(
            migration_id=7,
            service="mrp-store",
            new_map={"p0": "g0", "p1": "g1"},
            source="p0",
            dest="p1",
            designated="rep0",
        ),
        MigrationInstall(
            migration_id=7,
            service="mrp-store",
            new_map={"p0": "g0"},
            source="p0",
            dest="p1",
            entries={"key-1": (128, 3), "key-2": (256, 4)},
        ),
        ForwardedCommand(migration_id=7, dest="p1", command=command),
        ProposeControl(group="g0", payload=SpliceRing(group="g2", learners=("rep0",)), payload_bytes=256),
    ]


def _shape(class_id: int, *fields) -> bytes:
    """The bytes of a dataclass: tag ``0x0d``, its two-byte class id, then its fields in order."""
    return bytes((0x0D, 0x00, class_id)) + b"".join(encode_value(field) for field in fields)


@dataclasses.dataclass(frozen=True)
class _RetiredSample:
    """What a random instance of a retired wire class encoded to."""

    name: str
    raw: bytes


def _retired_samples(rng: random.Random):
    """One randomized instance of every retired White-Box Atomic Multicast shape (ids 50-54)."""
    value = _value(rng)
    ballot = Ballot(rng.randrange(1, 5), f"n{rng.randrange(3)}")
    uid, ts = value.uid, rng.randrange(1, 1000)
    return [
        _RetiredSample("WbSubmit", _shape(50, "g0", ("g0", "g1"), value)),
        _RetiredSample("WbAccept", _shape(51, "g0", uid, ballot, ts, ("g0", "g2"), value)),
        _RetiredSample("WbAccepted", _shape(52, "g1", uid, ballot, ts)),
        _RetiredSample("WbTimestamp", _shape(53, "g1", "g0", uid, ts)),
        _RetiredSample("WbCommit", _shape(54, "g0", uid, ts)),
    ]


def _seeded_samples():
    rng = random.Random(0xC0DEC)
    collected = []
    for _ in range(25):
        collected.extend(_samples(rng))
        collected.extend(_retired_samples(rng))
    return collected


def _sample_id(sample) -> str:
    return sample.name if isinstance(sample, _RetiredSample) else type(sample).__name__


def _assert_refused_as_retired(raw: bytes) -> None:
    with pytest.raises(CodecError, match=r"unknown wire class id \d+ \(retired\)"):
        decode_value(raw)


@pytest.mark.parametrize("message", _seeded_samples(), ids=_sample_id)
def test_round_trip_identity_and_byte_stability(message):
    if isinstance(message, _RetiredSample):
        # A retired shape has no round trip any more: its bytes are refused.
        _assert_refused_as_retired(message.raw)
        return
    raw = encode_value(message)
    decoded = decode_value(raw)
    assert decoded == message
    # Byte stability: re-encoding the decoded object reproduces the bytes.
    assert encode_value(decoded) == raw


@pytest.mark.parametrize("message", _seeded_samples(), ids=_sample_id)
def test_size_bytes_contract_survives_the_wire(message):
    if isinstance(message, _RetiredSample):
        # No message comes out of a retired shape's bytes to carry a size.
        _assert_refused_as_retired(message.raw)
        return
    size = getattr(message, "size_bytes", None)
    if size is None:
        return
    decoded = decode_value(encode_value(message))
    assert decoded.size_bytes == size
    assert isinstance(size, int) and size >= 0


def test_every_registered_type_is_covered():
    covered = {type(m) for m in _seeded_samples()}
    registered = set(WIRE_TYPES().values())
    assert registered <= covered, f"untested wire types: {registered - covered}"


def test_frame_length_contract():
    rng = random.Random(1)
    for message in _samples(rng):
        frame = frame_message("a", "b", message)
        # !I prefix counts version byte + body, nothing more.
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4
        assert frame[4] == CODEC_VERSION
        assert frame[5:] == encode_value(("a", "b", message))
        buffer = bytearray(frame)
        assert list(iter_frames(buffer)) == [("a", "b", message)] and not buffer


def test_partial_frames_wait_for_more_bytes():
    frame = frame_message("a", "b", Value.create("x", 8))
    for cut in (0, 1, 3, 4, len(frame) - 1):
        buffer = bytearray(frame[:cut])
        assert list(iter_frames(buffer)) == [] and len(buffer) == cut
    buffer = bytearray(frame + frame[: len(frame) // 2])
    messages = list(iter_frames(buffer))
    assert len(messages) == 1
    assert messages[0][:2] == ("a", "b")
    assert len(buffer) == len(frame) // 2  # partial tail kept


def test_version_mismatch_is_loud():
    frame = bytearray(frame_message("a", "b", None))
    frame[4] = CODEC_VERSION + 1
    with pytest.raises(CodecError, match="version mismatch"):
        list(iter_frames(frame))


@pytest.mark.parametrize(
    "body, complaint",
    [
        (b"", "expected \\(src, dst, payload\\)"),
        (encode_value(("a", "b")), "expected \\(src, dst, payload\\)"),
        (encode_value(("a", "b", None)) + b"\x00", "trailing garbage"),
        (encode_value(("a", "b", None))[:-1] + b"\x7f", "unknown value tag"),
        (b"\x08\x00\x00\x00\x03\x0d\xff\xff", "unknown wire class id"),
        (b"\x08\x00\x00\x00\x03\x06\x00\x00\x00\x02\xff\xfe", "malformed value"),
        (b"\x08\x00\x00\x00\x03\x03\x00", "malformed value"),
    ],
)
def test_malformed_frames_raise_codec_error_only(body, complaint):
    frame = len(body).to_bytes(4, "big")[:3] + bytes([len(body) + 1, CODEC_VERSION]) + body
    with pytest.raises(CodecError, match=complaint):
        list(iter_frames(bytearray(frame)))


def test_impossible_length_prefixes_are_rejected_before_buffering():
    with pytest.raises(CodecError, match="exceeds"):
        list(iter_frames(bytearray(b"\xff\xff\xff\xff")))
    with pytest.raises(CodecError, match="empty frame"):
        list(iter_frames(bytearray(b"\x00\x00\x00\x00")))


def test_unregistered_types_are_rejected():
    class NotWire:
        pass

    with pytest.raises(CodecError, match="not a registered wire type"):
        encode_value(NotWire())


def test_container_and_primitive_round_trips():
    rng = random.Random(2)
    samples = [
        None,
        True,
        False,
        0,
        -1,
        2**63 - 1,
        -(2**63),
        2**200,
        -(2**200),
        0.0,
        -1.5,
        float("inf"),
        "",
        "héllo ⚙",
        b"\x00\xffbytes",
        (),
        (1, ("nested", b"x"), [None, {"k": 1}]),
        {"b": 1, "a": 2},
        frozenset({"x", "y"}),
        set(),
        [rng.random() for _ in range(5)],
    ]
    for value in samples:
        raw = encode_value(value)
        decoded = decode_value(raw)
        assert decoded == value
        assert type(decoded) is type(value)
        assert encode_value(decoded) == raw


def test_equal_decoded_strings_are_one_object():
    word = "-".join(["log", str(random.randrange(10**6))])  # built at run time, not a constant
    first = decode_value(encode_value(("append", word, 1)))
    second = decode_value(encode_value(("append", word, 2)))
    assert first[1] == word and first[1] is second[1] and first[0] is second[0]


def test_shared_string_table_stays_bounded():
    from repro.runtime import codec

    for index in range(10_000):
        assert decode_value(encode_value(f"distinct-{index}")) == f"distinct-{index}"
        assert len(codec._shared_strings) <= codec._SHARED_STRINGS_MAX


def test_dict_encoding_is_insertion_order_independent():
    a = {"x": 1, "y": 2, "z": 3}
    b = {"z": 3, "x": 1, "y": 2}
    assert encode_value(a) == encode_value(b)


def test_frozenset_encoding_is_order_independent():
    votes1 = frozenset(["n0", "n1", "n2"])
    votes2 = frozenset(["n2", "n0", "n1"])
    assert encode_value(votes1) == encode_value(votes2)


# ----------------------------------------------------------------------
# frozen wire format: golden digests computed at the parent of the codec
# rewrite (PR 14).  A digest that moves means peers stop understanding
# each other: bump CODEC_VERSION instead of editing the table.
# ----------------------------------------------------------------------
def _canonical():
    """One fixed instance of every registered wire type, keyed by class id."""
    value = Value(
        uid=1001,
        payload=("append", "log-0", 1024, 17),
        size_bytes=1088,
        proposer="n1",
        created_at=1.25,
    )
    skip = Value(uid=1002, payload=None, size_bytes=0, proposer="n0", created_at=2.5, is_skip=True)
    traced = Value(uid=1003, payload="héllo ⚙", size_bytes=16, proposer="n2", trace="n2-1003")
    ballot = Ballot(3, "n0")
    command = Command(
        command_id=77,
        client="client-1",
        operation=("update", "key-9", 1024),
        size_bytes=1100,
        created_at=0.5,
        expected_responses=2,
    )
    checkpoint = Checkpoint(
        checkpoint_id=4,
        replica="rep1",
        cursor={"g1": 20, "g0": 10},
        state={"tree": [("k", 3)], "epoch": 2, "blob": b"\x00\xff"},
        state_size_bytes=4096,
        taken_at=12.75,
    )
    splice = SpliceRing(group="g2", learners=("rep0", "rep1"))
    return {
        1: value,
        3: ballot,
        4: ValueBatch(values=(value, skip, traced)),
        10: Proposal(group="ring-0", value=value),
        11: Phase2(
            group="ring-0",
            instance=41,
            count=1,
            ballot=ballot,
            value=value,
            votes=frozenset({"n2", "n0", "n1"}),
            origin="n0",
            started_at=0.125,
        ),
        12: Decision(
            group="ring-0", instance=42, count=7, value=skip, origin="n0", started_at=0.125, decided_at=0.25
        ),
        13: RetransmitRequest(group="g0", first=3, last=17, reply_to="rep0", token=-1),
        14: RetransmitReply(group="g0", entries=((3, value), (4, skip)), trimmed_up_to=2, token=0),
        20: command,
        21: CommandBatch(commands=(command, command)),
        22: SubmitCommand(group="g1", command=command),
        23: Response(
            command_id=77, replica="rep1", partition="p0", result=("ok", 2**70, -1.5, True, False), result_size_bytes=64
        ),
        30: CheckpointQuery(reply_to="rep0"),
        31: CheckpointInfo(cursor={"g1": 7, "g0": 10}, checkpoint_id=3, state_size_bytes=4096),
        32: CheckpointFetch(reply_to="rep0", checkpoint_id=3),
        33: CheckpointData(checkpoint=checkpoint),
        34: TrimQuery(group="g0", reply_to="coord"),
        35: TrimReply(group="g0", replica="rep2", safe_instance=42),
        36: TrimCommand(group="g0", up_to=41),
        37: checkpoint,
        40: splice,
        41: MigrationPrepare(
            migration_id=7, service="mrp-store", new_map={"p1": "g1", "p0": "g0"}, source="p0", dest="p1", designated="rep0"
        ),
        42: MigrationInstall(
            migration_id=7,
            service="mrp-store",
            new_map={"p0": "g0"},
            source="p0",
            dest="p1",
            entries={"key-2": (256, 4), "key-1": (128, 3)},
        ),
        43: ForwardedCommand(migration_id=7, dest="p1", command=command),
        44: ProposeControl(group="g0", payload=splice, payload_bytes=256),
    }


def _hot_frames():
    """The four frames of one append proposed at ``n2`` on the ring ``n0, n1, n2``.

    Coordinator ``n0``: the proposal takes one hop, ``n1`` completes the
    quorum and the decision travels on to ``n2`` and ``n0`` -- 595 bytes, the
    benchmark's ``runtime.codec.bytes_per_op``.
    """
    value = Value(
        uid=1001,
        payload=("append", "log-0", 1024, 17),
        size_bytes=1088,
        proposer="n2",
        created_at=1.25,
    )
    decision = Decision(group="ring-0", instance=41, count=1, value=value, origin="n1")
    return [
        ("n2", "n0", Proposal(group="ring-0", value=value)),
        ("n0", "n1", Phase2("ring-0", 41, 1, Ballot(1, "n0"), value, frozenset({"n0"}), "n0")),
        ("n1", "n2", decision),
        ("n2", "n0", decision),
    ]


#: class id -> (encoded length, sha1 of ``encode_value(_canonical()[id])``).
_GOLDEN_VALUES = {
    1: (83, "6ace21a9ea789c3447d26de2d171cef226a51625"),
    2: (196, "3533bcfb22b329b53e667c57aef9f4ee10aa5f17"),  # retired: _retired_bytes()[2]
    3: (19, "e4a898a8d122e5b30a89516636eb508139e0201e"),
    4: (205, "665bf5d02cd5097337a141b6e54b5f2cf08f0890"),
    10: (97, "94ada3a1df814190432d6da688c9e31a4a6fd3dd"),
    11: (176, "c03a99c796c43f41e46d0f1c083431513b81a399"),
    12: (97, "345c648ea67b705b147386b63b27d1f7eb3f3ffb"),
    13: (46, "497d3426587eb8714ef5bf38b26bcdf97d2cd721"),
    14: (184, "afda8ed3257345942859db534085002307f43a30"),
    20: (87, "f8da086172d2bb7c5be60531eb98e332e8151830"),
    21: (182, "d66ff40c910c1c77bab7b1faba32588d925c55aa"),
    22: (97, "3f6aa9fd1a1ba5214eaff572e2d5b3b5f7cf02d5"),
    23: (74, "1a689819f56407cb3226ed4af110958b51240879"),
    30: (12, "8a9bccb5d217c74826302bdd3859cc998cb90ab7"),
    31: (58, "68e25625bc3b0efff366882630a9deb7ad475087"),
    32: (21, "f2c81195a0c59dce5833db8bee99108669217e10"),
    33: (153, "99a2a62d086f1f2a6ba335c0e809aa6975dffd2a"),
    34: (20, "24eb14160ccd1e1260b3e1fe9c947b5e81cbb42b"),
    35: (28, "ca81cd3078bca6c752aed7f3cd1646875c3addb8"),
    36: (19, "7af080da541e3397d0f0a12fe223e7afcfd8cda3"),
    37: (150, "882cb04373d0770baafa2414f9f6538a3bd99b46"),
    40: (33, "46965065792fc718c0e0855b6f1f548198e546e0"),
    41: (82, "d7bca56f9a06512ae819ddf6ff7555b0301faa3e"),
    42: (130, "6b0ec16e1374f8405a0d8e559903341650e0bb5c"),
    43: (106, "1beafa1299eec455228f6bff689bc6310161b62f"),
    44: (52, "e4e30365330d738fbcc3b704801f5fa6dbbb7031"),
    50: (112, "11bdc2db9497e6a0f923efbca28baf45862759db"),  # retired: _retired_bytes()[50]
    51: (149, "593677ae89dd6d7b928180be3c567775461f6cd7"),  # retired: _retired_bytes()[51]
    52: (47, "b6187638772546477689e358a156e771bb68fe5f"),  # retired: _retired_bytes()[52]
    53: (35, "1fbb9c7baecdbf497fc4b93fdef4605fd52fd821"),  # retired: _retired_bytes()[53]
    54: (28, "af17e28b1d41cfca48fb8e07358e8c926e177f46"),  # retired: _retired_bytes()[54]
}

#: (frame length, sha1 of ``frame_message(...)``) for ``_hot_frames()``, in order.
_GOLDEN_HOT_FRAMES = [
    (121, "839fa14df726efd1ca20f240c1cae93917aa20c0"),
    (178, "db426ef44ac9a81e503474e730bb315444cc8320"),
    (148, "3f08950cff6bc7096a5a62c269bab7fe327726ea"),
    (148, "16526283aa6d87ea7fb05022b14687e515430402"),
]


def _retired_bytes():
    """Retired id -> the bytes its last shape gave the canonical instance."""
    canonical = _canonical()
    value, ballot, batch = canonical[1], canonical[3], canonical[4]
    return {
        # ValueBatch(values=...), the values decoded inline as a tuple.
        2: _shape(2, batch.values),
        # White-Box Atomic Multicast: WbSubmit(group, dests, value),
        # WbAccept(group, uid, ballot, ts, dests, value),
        # WbAccepted(group, uid, ballot, ts), WbTimestamp(group, origin, uid, ts)
        # and WbCommit(group, uid, ts).
        50: _shape(50, "g0", ("g0", "g1"), value),
        51: _shape(51, "g0", 1001, ballot, 9, ("g0", "g2"), value),
        52: _shape(52, "g1", 1001, ballot, 9),
        53: _shape(53, "g1", "g0", 1001, 9),
        54: _shape(54, "g0", 1001, 9),
    }


def _digest(raw: bytes):
    return len(raw), hashlib.sha1(raw).hexdigest()


def test_golden_table_covers_exactly_the_registered_ids():
    registered = WIRE_TYPES()
    assert sorted(_GOLDEN_VALUES) == sorted([*registered, *RETIRED_IDS])
    assert not set(registered) & set(RETIRED_IDS)
    assert {cid: type(obj) for cid, obj in _canonical().items()} == registered


@pytest.mark.parametrize("class_id", sorted(_GOLDEN_VALUES))
def test_wire_bytes_of_every_registered_type_are_frozen(class_id):
    if class_id in RETIRED_IDS:
        raw = _retired_bytes()[class_id]
        assert _digest(raw) == _GOLDEN_VALUES[class_id]
        with pytest.raises(CodecError, match=f"unknown wire class id {class_id} \\(retired\\)"):
            decode_value(raw)
        return
    message = _canonical()[class_id]
    raw = encode_value(message)
    assert _digest(raw) == _GOLDEN_VALUES[class_id]
    assert decode_value(raw) == message


def test_hot_frames_of_one_append_are_frozen():
    frames = [frame_message(*hop) for hop in _hot_frames()]
    assert [_digest(frame) for frame in frames] == _GOLDEN_HOT_FRAMES
    assert sum(len(frame) for frame in frames) == 595
    # ... and one receive buffer holding all four decodes back to the hops.
    assert list(iter_frames(bytearray(b"".join(frames)))) == _hot_frames()


# ----------------------------------------------------------------------
# fuzz: whatever bytes arrive, the codec answers with messages or a
# CodecError -- never another exception -- and so does every batch body
# those messages carry, decoded as a delivering node decodes it.
# ----------------------------------------------------------------------
def _batch_bodies(message):
    """Every value batch inside ``message`` (walked without recursion)."""
    wire_classes = set(WIRE_TYPES().values())
    stack = [message]
    while stack:
        item = stack.pop()
        if isinstance(item, ValueBatch):
            yield item
        elif isinstance(item, (tuple, list, set, frozenset)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif type(item) in wire_classes:
            stack.extend(getattr(item, field.name) for field in dataclasses.fields(item))


def _receive(raw: bytes):
    """What a node makes of ``raw``: the messages, every batch decoded; or CodecError."""
    messages = list(iter_frames(bytearray(raw)))
    for message in messages:
        for batch in _batch_bodies(message):
            if batch.values is None:
                assert len(batch.decode()) == batch.count
    return messages


def _frame(body: bytes) -> bytes:
    return (len(body) + 1).to_bytes(4, "big") + bytes([CODEC_VERSION]) + body


#: A frame body up to its payload: the ``(src, dst, payload)`` header, "a", "b".
_TO_PAYLOAD = encode_value(("a", "b", None))[:-1]


def _batched_frames():
    """Frames carrying batches: every ring message a batch travels in."""
    canonical = _canonical()
    batch = Value(uid=2001, payload=canonical[4], size_bytes=1200, proposer="n1", created_at=0.5)
    ballot = Ballot(1, "n0")
    return [
        frame_message("n1", "n2", Proposal(group="ring-0", value=batch)),
        frame_message("n0", "n1", Phase2("ring-0", 7, 1, ballot, batch, frozenset({"n0"}), "n0")),
        frame_message("n1", "n2", Decision(group="ring-0", instance=7, count=1, value=batch, origin="n1")),
        frame_message("n2", "r0", RetransmitReply(group="ring-0", entries=((7, batch),), token=-1)),
        *(frame_message(*hop) for hop in _hot_frames()),
    ]


def _settle(raw: bytes) -> None:
    try:
        _receive(raw)
    except CodecError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=256))
def test_fuzz_arbitrary_frame_bodies(body):
    _settle(_frame(body))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64), st.binary(max_size=64))
def test_fuzz_arbitrary_bytes_after_a_valid_prefix(prefix, tail):
    _settle(_frame(_TO_PAYLOAD + prefix) + tail)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_fuzz_mutated_frames(data):
    frames = _batched_frames()
    raw = bytearray(frames[data.draw(st.integers(0, len(frames) - 1))])
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
        at = data.draw(st.integers(0, len(raw)))
        if kind == "flip" and at < len(raw):
            raw[at] ^= data.draw(st.integers(1, 255))
        elif kind == "insert":
            raw[at:at] = data.draw(st.binary(min_size=1, max_size=8))
        elif kind == "delete":
            del raw[at : at + data.draw(st.integers(1, 8))]
        else:
            del raw[at:]
    _settle(bytes(raw))


def _lone_batch_frame(count: int, body: bytes, body_length: int) -> bytes:
    """A frame whose payload is one batch, with every number chosen by the caller."""
    batch = b"\x0d\x00\x04" + b"\x03" + count.to_bytes(8, "big", signed=True)
    batch += b"\x07" + body_length.to_bytes(4, "big") + body
    return _frame(_TO_PAYLOAD + batch)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzz_batch_bodies_that_do_not_hold_their_count(data):
    batch = _canonical()[4]
    body, count = batch.body, batch.count
    assert _receive(_lone_batch_frame(count, body, len(body)))[0][2] == batch
    kind = data.draw(st.sampled_from(["truncated", "over-long", "length lies", "wrong count"]))
    if kind == "truncated":  # framing holds, the last value is cut short
        body = body[: data.draw(st.integers(0, len(body) - 1))]
        length = len(body)
    elif kind == "over-long":  # framing holds, bytes trail the last value
        body += data.draw(st.binary(min_size=1, max_size=32))
        length = len(body)
    elif kind == "length lies":  # the frame's own bytes contradict the length
        length = len(body) + data.draw(st.integers(-len(body), 64).filter(bool))
    else:
        count = data.draw(st.integers(-(2**63), 2**63 - 1).filter(lambda c: c != batch.count))
        length = len(body)
    with pytest.raises(CodecError):
        _receive(_lone_batch_frame(count, body, length))


# ----------------------------------------------------------------------
# compiled paths: the straight-line encoders and the learned layouts must
# give exactly what the generic walk gives -- the same bytes, the same
# objects, the same CodecError -- whatever arrives.
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _fresh_layouts():
    """Empty layout tables for the ``with`` body, the old ones back after it: learning spent there is not spent outside."""
    from repro.runtime import codec

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "_FRAMES", codec._LayoutTable())
        patch.setattr(codec, "_VALUES", codec._LayoutTable())
        yield


@pytest.fixture(autouse=True, scope="module")
def _module_layouts():
    """What this module teaches the tables stays here; a live ring elsewhere learns its own shapes."""
    with _fresh_layouts():
        yield


class _WalkOnly:
    """A layout table that decodes nothing and learns nothing."""

    def decode(self, *args):
        return None

    def learn(self, *args):
        pass


def _walked(encode_or_decode, *args):
    """``encode_or_decode(*args)`` with every compiled path swapped for the walk."""
    from repro.runtime import codec

    codec._ensure_registry()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "_BY_CLS", {cls: codec._generic_encoder(cls) for cls in codec._SPEC})
        patch.setattr(codec, "_FRAMES", _WalkOnly())
        patch.setattr(codec, "_VALUES", _WalkOnly())
        return encode_or_decode(*args)


def _outcome(raw: bytes):
    """What :func:`_receive` makes of ``raw``: the messages and decoded bodies, or CodecError."""
    try:
        messages = list(iter_frames(bytearray(raw)))
        return messages, [batch.decode() for m in messages for batch in _batch_bodies(m) if batch.values is None]
    except CodecError:
        return CodecError


def _body_outcome(count: int, body: bytes):
    try:
        return ValueBatch(count=count, body=body).decode()
    except CodecError:
        return CodecError


def _agree(raw: bytes) -> None:
    assert _outcome(raw) == _walked(_outcome, raw)


def _wire_values():
    """Any value the codec can encode, registered instances included."""
    leaves = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        st.floats(allow_nan=False),
        st.text(max_size=12),
        st.binary(max_size=12),
        st.sampled_from(list(_canonical().values())),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner),
            st.lists(inner, max_size=3),
            st.frozensets(st.text(max_size=4), max_size=4),
            st.dictionaries(st.text(max_size=4), inner, max_size=3),
        ),
        max_leaves=6,
    )


def _typed(hint):
    """Values of the type a field declares, so the compiled fast paths run."""
    optional = typing.get_origin(hint) is typing.Union and type(None) in typing.get_args(hint)
    base = {int: st.integers(-(2**64), 2**64), float: st.floats(), bool: st.booleans(), str: st.text(max_size=8)}
    args = [a for a in typing.get_args(hint) if a is not type(None)] if optional else [hint]
    inner = base.get(args[0]) if len(args) == 1 else None
    if typing.get_origin(args[0]) is frozenset:
        inner = st.frozensets(st.one_of(st.text(max_size=4), st.integers(0, 2), st.booleans()), max_size=4)
    if inner is None:
        return _wire_values()
    return st.one_of(st.none(), inner) if optional else inner


@st.composite
def _registered_instances(draw):
    cls = draw(st.sampled_from(sorted(WIRE_TYPES().values(), key=lambda c: c.__name__)))
    if cls is ValueBatch:
        if draw(st.booleans()):
            return ValueBatch(values=tuple(draw(st.lists(st.builds(_value, st.randoms()), min_size=1, max_size=3))))
        return ValueBatch(count=draw(st.integers(1, 5)), body=draw(st.binary(max_size=16)))
    try:
        hints = typing.get_type_hints(cls)
    except NameError:  # an annotation only importable for type checkers: the encoder walks it
        hints = {}
    return cls(**{
        f.name: draw(st.one_of(_typed(hints.get(f.name)), _wire_values())) for f in dataclasses.fields(cls)
    })


@settings(max_examples=250, deadline=None)
@given(_registered_instances())
def test_compiled_encoders_write_the_walks_bytes(message):
    assert encode_value(message) == _walked(encode_value, message)
    assert frame_message("src", "dst", message) == _walked(frame_message, "src", "dst", message)


def test_equal_sets_that_encode_apart_are_not_confused():
    ballot = Ballot(1, "n0")
    for votes in (frozenset({1}), frozenset({True}), frozenset({1.0}), frozenset({"n0"})):
        message = Phase2("g", 1, 1, ballot, None, votes, "n0")
        assert encode_value(message) == _walked(encode_value, message)
        assert decode_value(encode_value(message)).votes == votes


def _learned():
    """Batch-carrying and hot frames, decoded until their layouts are learned."""
    frames = _batched_frames()
    for _ in range(2):
        for frame in frames:
            _receive(frame)
    return frames


@_fresh_layouts()
def test_layouts_and_the_walk_agree_on_every_cut_flip_and_tail():
    from repro.runtime import codec

    frames = _learned()
    before = codec.decode_counts()
    for frame in frames:
        body = frame[5:]
        assert _outcome(frame) == _walked(_outcome, frame) != CodecError
        for cut in range(len(body)):
            _agree(_frame(body[:cut]))
        for tail in (b"\x00", b"\x03" + bytes(8), body[-9:]):
            _agree(_frame(body + tail))
        for at in range(len(body)):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(body)
                mutated[at] ^= flip
                _agree(_frame(bytes(mutated)))
    batch = _canonical()[4]
    body = batch.body
    for count in (batch.count - 1, batch.count, batch.count + 1):
        for cut in range(len(body) + 1):
            assert _body_outcome(count, body[:cut]) == _walked(_body_outcome, count, body[:cut])
        assert _body_outcome(count, body + b"\x00") == _walked(_body_outcome, count, body + b"\x00")
    for at in range(len(body)):
        mutated = bytearray(body)
        mutated[at] ^= 0x01
        assert _body_outcome(batch.count, bytes(mutated)) == _walked(_body_outcome, batch.count, bytes(mutated))
    compiled, walked = (after - start for after, start in zip(codec.decode_counts(), before))
    assert compiled > walked  # most of those bytes were decoded by a layout


@settings(max_examples=300, deadline=None)
@given(st.data())
@_fresh_layouts()
def test_fuzz_layouts_and_the_walk_agree_on_mutated_frames(data):
    frames = _learned()
    raw = bytearray(frames[data.draw(st.integers(0, len(frames) - 1))][5:])
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(raw) - 1))
        if data.draw(st.booleans()):
            raw[at] ^= data.draw(st.integers(1, 255))
        else:
            raw[at:at] = data.draw(st.binary(min_size=1, max_size=4))
    _agree(_frame(bytes(raw)))


@_fresh_layouts()
def test_a_layout_refuses_a_skeleton_that_differs_in_one_tag_or_class_id():
    from repro.runtime import codec

    value = Value(uid=7, payload=("append", "log-0", 1024, 17), size_bytes=1088, proposer="n2", created_at=1.25)
    ballot = Ballot(1, "n0")
    proposal = frame_message("n2", "n0", Proposal(group="ring-0", value=value))
    phase2 = frame_message("n0", "n1", Phase2("ring-0", 41, 1, ballot, value, frozenset({"n0"}), "n0"))
    for frame in (proposal, phase2, proposal, phase2):
        _receive(frame)
    is_skip = encode_value(value).rindex(b"\x02\x00")  # the False tag of ``is_skip``, trace None after it
    ballot_id = phase2.index(encode_value(ballot)) + 2  # low byte of Ballot's class id
    cases = [
        (proposal, len(proposal) - len(encode_value(value)) + is_skip, 0x02 ^ 0x01),  # False -> True
        (phase2, ballot_id, 3 ^ 36),  # Ballot(number, coordinator) -> TrimCommand(group, up_to)
    ]
    for frame, at, flip in cases:
        mutated = bytearray(frame)
        mutated[at] ^= flip
        before = codec.decode_counts()
        got = list(iter_frames(bytearray(mutated)))
        assert codec.decode_counts()[1] == before[1] + 1, "the walk decoded it, not a layout"
        assert got == _walked(lambda raw: list(iter_frames(bytearray(raw))), bytes(mutated))
    assert got[0][2].ballot.__class__.__name__ == "TrimCommand"


def _leaves(node):
    from repro.runtime import codec

    if isinstance(node, codec._Layout):
        return 1 + (_leaves(node.next) if node.next is not None else 0)
    return sum(_leaves(child) for child in node.children.values())


@_fresh_layouts()
def test_layout_tables_stay_bounded_and_every_shape_still_decodes():
    from repro.runtime import codec

    def payloads():
        for length in range(41):
            yield "x" * length
            yield {"k" * (length % 7): length, "big": 2 ** (64 + length)}
            yield ("append", "y" * length, -(2 ** (70 + length)))

    shapes = 0
    for index, payload in enumerate(payloads()):
        for skip, trace in ((False, None), (True, None), (False, "t" * (index % 30))):
            value = Value(index, payload, 64, "n" * (index % 5), float(index), skip, trace)
            votes = frozenset(f"n{i}" for i in range(index % 4))
            for message in (
                Proposal(group="g" * (index % 3), value=value),
                Phase2("g", index, 1, Ballot(index, "n0"), value, votes, "n0"),
                Decision("g", index, 1, value, "n0"),
            ):
                frame = frame_message("n0", "n1", message)
                for _ in range(2):  # learned by the walk while the class learns, then by a layout
                    assert list(iter_frames(bytearray(frame))) == [("n0", "n1", message)]
                shapes += 1
            body = encode_value(value)
            assert ValueBatch(count=2, body=body + body).decode() == (value, value)
    assert shapes >= 1000
    for table in (codec._FRAMES, codec._VALUES):
        for class_id, root in table.roots.items():
            assert _leaves(root) <= table.counts[class_id] <= codec._LAYOUTS_PER_CLASS_MAX


@_fresh_layouts()
def test_a_class_that_spent_its_learning_is_left_to_the_walk():
    """Shapes that never repeat (a new payload length each time) compile at most the cap per class."""
    from repro.runtime import codec

    built = []
    shape = codec._Shape
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "_Shape", lambda: built.append(1) or shape())
        for length in range(4 * codec._LAYOUTS_PER_CLASS_MAX):
            value = Value(length, "p" * length, 64, "n1", 0.5)
            assert list(iter_frames(bytearray(frame_message("n1", "n0", Proposal("g", value))))) == [
                ("n1", "n0", Proposal("g", value))
            ]
            body = encode_value(value)
            assert ValueBatch(count=1, body=body).decode() == (value,)
    assert len(built) == 2 * codec._LAYOUTS_PER_CLASS_MAX  # Proposal frames and body values
    before = codec.decode_counts()
    frame = frame_message("n1", "n0", Proposal("g", Value(0, "", 64, "n1", 0.5)))
    list(iter_frames(bytearray(frame)))  # the first shape learned is kept
    assert codec.decode_counts()[0] == before[0] + 1


@pytest.mark.parametrize("order", [1, -1], ids=["short-first", "long-first"])
@_fresh_layouts()
def test_shapes_that_differ_only_after_a_body_are_all_kept(order):
    """Traced and untraced batch frames, votes of two sizes: after warm-up none takes the walk.

    Learned longest first, a shorter frame alone in its buffer makes the
    longer layouts read past its end before the right one is tried.
    """
    from repro.runtime import codec

    batch = Value(uid=2001, payload=_canonical()[4], size_bytes=1200, proposer="n1", created_at=0.5)
    ballot = Ballot(1, "n0")
    messages = [
        Decision("ring-0", 7, 1, batch, "n1"),
        Decision("ring-0", 7, 1, batch, "n1", started_at=1.5, decided_at=2.5),
        Phase2("ring-0", 7, 1, ballot, batch, frozenset({"n0"}), "n0"),
        Phase2("ring-0", 7, 1, ballot, batch, frozenset({"n0", "n1"}), "n0"),
        Phase2("ring-0", 7, 1, ballot, batch, frozenset({"n0"}), "n0", started_at=1.5),
    ][::order]
    frames = [frame_message("n0", "n1", message) for message in messages]
    for frame in frames:  # warm-up: each shape is walked once and learned
        _receive(frame)
    before = codec.decode_counts()
    for _ in range(20):
        for frame, message in zip(frames, messages):
            assert list(iter_frames(bytearray(frame))) == [("n0", "n1", message)]
    compiled, walked = (after - start for after, start in zip(codec.decode_counts(), before))
    assert (compiled, walked) == (20 * len(frames), 0)


@_fresh_layouts()
def test_a_new_shape_shorter_than_the_learned_ones_is_learned():
    """The tree over learned shapes reads past the end of a short frame: that frame is still learned."""
    from repro.runtime import codec

    long_value = Value(1, "p" * 200, 64, "n1", 0.5)
    for origin in ("n1", "n22"):  # two long shapes that differ only late, at the origin's length
        _receive(frame_message("n0", "n1", Decision("ring-0", 7, 1, long_value, origin)))
    short = frame_message("n0", "n1", Decision("g", 7, 1, Value(1, "", 64, "n1", 0.5), "n1"))
    before = codec.decode_counts()
    for _ in range(2):
        _receive(short)
    assert codec.decode_counts() == (before[0] + 1, before[1] + 1)  # walked once, then by its layout


@_fresh_layouts()
def test_long_decoded_strings_are_not_kept_by_their_bytes():
    from repro.runtime import codec

    value = Value(1, "q" * 1000, 1064, "n1", 0.5)
    body = encode_value(value)
    before = codec.decode_counts()
    for _ in range(2):  # the walk, then a layout
        assert ValueBatch(count=1, body=body).decode() == (value,)
    assert codec.decode_counts() == (before[0] + 1, before[1] + 1)
    assert all(len(raw) <= codec._ENCODED_STRING_CHARS for raw in codec._shared_raw)
