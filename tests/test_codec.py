"""Round-trip property tests for the versioned wire codec.

Every registered wire dataclass must

* survive ``decode(encode(x)) == x``,
* encode **byte-stably**: ``encode(decode(encode(x))) == encode(x)``,
* keep its ``size_bytes`` contract across the wire (the decoded message
  reports the same wire-model size as the original), and
* obey the framing length contract (the ``!I`` prefix covers exactly the
  version byte plus the body).

The golden digests at the bottom freeze the bytes.  The id table is
append-only: a new shape takes a new id, and a retired shape keeps its id in
``RETIRED_IDS`` forever -- its golden entry stays too, and the digest test
checks that those historical bytes are now refused instead of decoded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engines.whitebox import (
    WbAccept,
    WbAccepted,
    WbCommit,
    WbSubmit,
    WbTimestamp,
)
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
        WbSubmit(group="g0", dests=("g0", "g1"), value=value),
        WbAccept(
            group="g0",
            uid=value.uid,
            ballot=ballot,
            ts=rng.randrange(1, 1000),
            dests=("g0", "g2"),
            value=value,
        ),
        WbAccepted(group="g1", uid=value.uid, ballot=ballot, ts=rng.randrange(1, 1000)),
        WbTimestamp(group="g1", origin="g0", uid=value.uid, ts=rng.randrange(1, 1000)),
        WbCommit(group="g0", uid=value.uid, ts=rng.randrange(1, 1000)),
    ]


def _seeded_samples():
    rng = random.Random(0xC0DEC)
    collected = []
    for _ in range(25):
        collected.extend(_samples(rng))
    return collected


@pytest.mark.parametrize("message", _seeded_samples(), ids=lambda m: type(m).__name__)
def test_round_trip_identity_and_byte_stability(message):
    raw = encode_value(message)
    decoded = decode_value(raw)
    assert decoded == message
    # Byte stability: re-encoding the decoded object reproduces the bytes.
    assert encode_value(decoded) == raw


@pytest.mark.parametrize("message", _seeded_samples(), ids=lambda m: type(m).__name__)
def test_size_bytes_contract_survives_the_wire(message):
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
        50: WbSubmit(group="g0", dests=("g0", "g1"), value=value),
        51: WbAccept(group="g0", uid=1001, ballot=ballot, ts=9, dests=("g0", "g2"), value=value),
        52: WbAccepted(group="g1", uid=1001, ballot=ballot, ts=9),
        53: WbTimestamp(group="g1", origin="g0", uid=1001, ts=9),
        54: WbCommit(group="g0", uid=1001, ts=9),
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
    50: (112, "11bdc2db9497e6a0f923efbca28baf45862759db"),
    51: (149, "593677ae89dd6d7b928180be3c567775461f6cd7"),
    52: (47, "b6187638772546477689e358a156e771bb68fe5f"),
    53: (35, "1fbb9c7baecdbf497fc4b93fdef4605fd52fd821"),
    54: (28, "af17e28b1d41cfca48fb8e07358e8c926e177f46"),
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
    batch = _canonical()[4]
    # id 2: ValueBatch(values=...), the values decoded inline as a tuple.
    return {2: b"\x0d\x00\x02" + encode_value(batch.values)}


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
