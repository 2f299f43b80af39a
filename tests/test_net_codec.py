"""Tests for the binary wire codec (repro.net.codec).

Three layers of coverage:

- example round-trips for every registered hot message type, with
  realistic payloads (batch item lists, diff-run tuples, error codes);
- hypothesis property tests over the codec's whole value vocabulary,
  pinning decode(encode(m)) == m and len(encode(m)) == encoded_size(m);
- corrupt frame bodies (seeded mutation/truncation, and a hypothesis
  property): ``frame.decode_body`` yields a Message or raises
  ``FrameError``, never whatever the decoder tripped over;
- an end-to-end test that taps a live simulated cluster and checks
  every hot-type message actually sent encodes, sizes, and round-trips.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.locks import LockMode
from repro.net import frame
from repro.net.codec import WIRE_IDS, decode, encode, encoded_size
from repro.net.message import ENVELOPE_BYTES, Message, MessageType

PAGE = 4096

#: One realistic payload per registered hot type.  Addresses are
#: 128-bit-scale ints on purpose: the varint encoding must survive
#: values far beyond any fixed-width field.
EXAMPLE_PAYLOADS = {
    MessageType.PAGE_FETCH: {"rid": 1 << 100, "page": (1 << 100) + PAGE},
    MessageType.PAGE_DATA: {"data": b"\x00\xffpage" * 512, "version": 7},
    MessageType.LOCK_REQUEST: {
        "rid": 123, "page": 456, "mode": "write", "requester": 2,
    },
    MessageType.LOCK_REPLY: {
        "granted": True, "sharers": [1, 2, 3], "version": 9,
    },
    MessageType.UPDATE_PUSH: {
        "rid": 5, "page": PAGE,
        "diff": [(0, b"abc"), (4000, b"\x01" * 96)],
        "release_token": False,
    },
    MessageType.UPDATE_ACK: {"applied": True},
    MessageType.INVALIDATE: {"rid": 5, "page": 0, "epoch": 3},
    MessageType.INVALIDATE_ACK: {"page": 0},
    MessageType.SHARER_REGISTER: {"rid": 5, "page": 0, "node": 3},
    MessageType.SHARER_UNREGISTER: {"rid": 5, "page": 0, "node": 3},
    MessageType.PAGE_FETCH_BATCH: {"rid": 5, "pages": [0, PAGE, 2 * PAGE]},
    MessageType.PAGE_DATA_BATCH: {
        "pages": [
            {"page": 0, "data": b"x" * PAGE, "version": 1},
            {"page": PAGE, "data": b"y" * PAGE, "version": 2},
        ],
    },
    MessageType.TOKEN_ACQUIRE_BATCH: {
        "rid": 5, "pages": [0, PAGE], "mode": "write", "requester": 2,
    },
    MessageType.TOKEN_GRANT_BATCH: {
        "granted": [0, PAGE], "denied": [], "sharers": {"0": [1], "4096": []},
    },
    MessageType.UPDATE_PUSH_BATCH: {
        "rid": 5,
        "updates": [
            {"page": 0, "data": b"x" * PAGE, "release_token": True},
            {"page": PAGE, "diff": [(16, b"hole")], "release_token": True},
        ],
    },
    MessageType.UPDATE_ACK_BATCH: {"applied": 2},
    MessageType.ERROR: {"code": "lock_denied", "detail": "busy"},
}


def roundtrip(msg: Message) -> Message:
    wire = encode(msg)
    assert wire is not None
    assert len(wire) == encoded_size(msg)
    return decode(wire)


def assert_messages_equal(a: Message, b: Message) -> None:
    assert a.msg_type is b.msg_type
    assert (a.src, a.dst, a.msg_id) == (b.src, b.dst, b.msg_id)
    assert a.request_id == b.request_id
    assert a.reply_to == b.reply_to
    assert a.payload == b.payload
    # Container *types* survive too: diff runs must come back as
    # tuples, batch item lists as lists.
    def types_of(value):
        if isinstance(value, (list, tuple)):
            return (type(value), [types_of(v) for v in value])
        if isinstance(value, dict):
            return {k: types_of(v) for k, v in value.items()}
        return type(value)

    assert types_of(a.payload) == types_of(b.payload)


class TestExampleRoundTrips:
    @pytest.mark.parametrize(
        "msg_type", sorted(WIRE_IDS, key=lambda t: WIRE_IDS[t])
    )
    def test_every_registered_type_round_trips(self, msg_type):
        assert msg_type in EXAMPLE_PAYLOADS, (
            f"add an example payload for {msg_type} to EXAMPLE_PAYLOADS"
        )
        msg = Message(msg_type, src=1, dst=2,
                      payload=EXAMPLE_PAYLOADS[msg_type], request_id=42)
        assert_messages_equal(msg, roundtrip(msg))

    def test_error_reply_round_trips(self):
        request = Message(MessageType.PAGE_FETCH, src=1, dst=2,
                          payload={"rid": 9, "page": 0}, request_id=5)
        nak = request.error_reply("region_not_found", "gone")
        revived = roundtrip(nak)
        assert revived.reply_to == 5
        assert revived.payload == {"code": "region_not_found",
                                   "detail": "gone"}

    def test_optional_header_fields_survive(self):
        bare = Message(MessageType.PAGE_FETCH, src=0, dst=3,
                       payload={"page": 0})
        revived = roundtrip(bare)
        assert revived.request_id is None and revived.reply_to is None

    def test_bytearray_and_memoryview_decode_as_bytes(self):
        backing = bytearray(b"q" * 64)
        msg = Message(MessageType.PAGE_DATA, src=1, dst=2, payload={
            "a": backing, "b": memoryview(backing)[16:32],
        })
        revived = roundtrip(msg)
        assert revived.payload == {"a": b"q" * 64, "b": b"q" * 16}
        # ...and all three spellings are charged the same wire size.
        as_bytes = Message(MessageType.PAGE_DATA, src=1, dst=2, payload={
            "a": b"q" * 64, "b": b"q" * 16,
        }, msg_id=msg.msg_id)
        assert encoded_size(msg) == encoded_size(as_bytes)


class TestFallback:
    def test_cold_type_returns_none(self):
        msg = Message(MessageType.REGION_LOOKUP, src=1, dst=2,
                      payload={"rid": 5})
        assert encode(msg) is None
        assert encoded_size(msg) is None
        # size_bytes still works via the object estimator.
        assert msg.size_bytes() >= ENVELOPE_BYTES

    def test_unencodable_payload_returns_none(self):
        msg = Message(MessageType.PAGE_DATA, src=1, dst=2,
                      payload={"descriptor": object()})
        assert encode(msg) is None
        assert encoded_size(msg) is None
        assert msg.size_bytes() >= ENVELOPE_BYTES

    def test_non_str_key_returns_none(self):
        msg = Message(MessageType.PAGE_DATA, src=1, dst=2,
                      payload={1: b"x"})
        assert encode(msg) is None
        assert encoded_size(msg) is None
        nested = Message(MessageType.PAGE_DATA, src=1, dst=2,
                         payload={"map": {1: b"x"}})
        assert encode(nested) is None
        assert encoded_size(nested) is None


class TestMalformedInput:
    def test_bad_magic_rejected(self):
        wire = encode(Message(MessageType.PAGE_FETCH, src=1, dst=2,
                              payload={"page": 0}))
        with pytest.raises(ValueError, match="magic"):
            decode(b"\x00" + wire[1:])

    def test_unknown_wire_id_rejected(self):
        wire = encode(Message(MessageType.PAGE_FETCH, src=1, dst=2,
                              payload={"page": 0}))
        with pytest.raises(ValueError, match="wire type"):
            decode(wire[:1] + b"\xfe" + wire[2:])

    def test_trailing_bytes_rejected(self):
        wire = encode(Message(MessageType.PAGE_FETCH, src=1, dst=2,
                              payload={"page": 0}))
        with pytest.raises(ValueError, match="trailing"):
            decode(wire + b"\x00")


# --- property tests --------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 140), max_value=1 << 140),
    st.floats(allow_nan=False, allow_infinity=False),
    st.binary(max_size=64),
    st.text(max_size=32),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)

payloads = st.dictionaries(st.text(max_size=12), values, max_size=5)

hot_types = st.sampled_from(sorted(WIRE_IDS, key=lambda t: WIRE_IDS[t]))

headers = st.tuples(
    st.integers(min_value=0, max_value=2 ** 31 - 1),     # src
    st.integers(min_value=0, max_value=2 ** 31 - 1),     # dst
    st.none() | st.integers(min_value=0, max_value=2 ** 62),  # request_id
    st.none() | st.integers(min_value=0, max_value=2 ** 62),  # reply_to
)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(msg_type=hot_types, payload=payloads, header=headers)
    def test_roundtrip_and_size_agree(self, msg_type, payload, header):
        src, dst, request_id, reply_to = header
        msg = Message(msg_type, src=src, dst=dst, payload=payload,
                      request_id=request_id, reply_to=reply_to)
        assert_messages_equal(msg, roundtrip(msg))

    @settings(max_examples=200, deadline=None)
    @given(payload=payloads)
    def test_size_bytes_reports_exact_codec_length(self, payload):
        msg = Message(MessageType.UPDATE_PUSH_BATCH, src=1, dst=2,
                      payload=payload)
        assert msg.size_bytes() == len(encode(msg))


# --- corrupt frame bodies ----------------------------------------------------

def _decode_outcome(body: bytes):
    """The Message, or the FrameError, ``decode_body`` made of ``body``.

    Anything else it raises propagates and fails the calling test.
    """
    try:
        return frame.decode_body(body)
    except frame.FrameError as exc:
        return exc


class TestCorruptFrameBodies:
    def test_empty_body_and_unknown_tag_are_frame_errors(self):
        with pytest.raises(frame.FrameError, match="empty"):
            frame.decode_body(b"")
        with pytest.raises(frame.FrameError, match="tag 0x0"):
            frame.decode_body(b"\x00rest")
        assert issubclass(frame.FrameError, ValueError)

    def test_garbage_after_the_pickle_tag_is_a_frame_error(self):
        with pytest.raises(frame.FrameError, match="undecodable"):
            frame.decode_body(bytes([frame.PICKLE_TAG]) + b"not a pickle")

    def test_seeded_mutations_of_an_update_push(self):
        body = encode(Message(MessageType.UPDATE_PUSH, src=1, dst=2,
                              payload=EXAMPLE_PAYLOADS[MessageType.UPDATE_PUSH],
                              request_id=9))
        rng = random.Random(17)
        causes = set()
        for _ in range(4000):
            mutated = bytearray(body)
            for _ in range(rng.randint(1, 3)):
                mutated[rng.randrange(1, len(mutated))] = rng.randrange(256)
            if rng.random() < 0.5:
                del mutated[rng.randrange(1, len(mutated)):]
            outcome = _decode_outcome(bytes(mutated))
            if isinstance(outcome, frame.FrameError):
                causes.add(type(outcome.__cause__).__name__)
            else:
                assert isinstance(outcome, Message)
        # The decoder trips in more than one way; all of them come out
        # as the one typed error.
        assert {"error", "IndexError", "ValueError"} <= causes

    @settings(max_examples=300, deadline=None)
    @given(msg_type=hot_types, payload=payloads,
           edits=st.lists(st.tuples(st.integers(min_value=1),
                                    st.integers(0, 255)), max_size=4),
           cut=st.none() | st.integers(min_value=1))
    def test_mutated_codec_bodies_decode_or_raise_frame_error(
            self, msg_type, payload, edits, cut):
        mutated = bytearray(encode(Message(msg_type, src=1, dst=2,
                                           payload=payload)))
        for position, value in edits:
            mutated[1 + position % (len(mutated) - 1)] = value
        if cut is not None:
            del mutated[1 + cut % (len(mutated) - 1):]
        assert isinstance(_decode_outcome(bytes(mutated)),
                          (Message, frame.FrameError))

    @settings(max_examples=300, deadline=None)
    @given(tail=st.binary(max_size=128))
    def test_arbitrary_bytes_behind_the_codec_magic(self, tail):
        # A view, as the transport passes: decoding happens in place.
        body = memoryview(bytearray(b"\xc5" + tail))
        assert isinstance(_decode_outcome(body),
                          (Message, frame.FrameError))


# --- end to end ------------------------------------------------------------

class TestLiveTraffic:
    def test_every_hot_message_on_the_wire_round_trips(self, quiet_cluster):
        """Tap a live cluster: every hot-type message actually sent must
        be codec-encodable (no silent estimator fallback on the data
        path), size exactly, and survive a decode round-trip."""
        cluster = quiet_cluster
        seen = []
        cluster.network.tap(
            lambda m: seen.append(m) if m.msg_type in WIRE_IDS else None
        )

        owner = cluster.client(node=1)
        attrs = RegionAttributes(
            consistency_level=ConsistencyLevel.RELEASE
        )
        desc = owner.reserve(4 * PAGE, attrs)
        owner.allocate(desc.rid)
        # Write from a non-home node so the unlock pushes its updates
        # over the wire as an UPDATE_PUSH_BATCH.
        writer = cluster.client(node=2)
        ctx = writer.lock(desc.rid, 4 * PAGE, LockMode.WRITE)
        writer.write(ctx, desc.rid, b"w" * (4 * PAGE))
        writer.unlock(ctx)
        reader = cluster.client(node=3)
        assert reader.read_at(desc.rid, 4 * PAGE) == b"w" * (4 * PAGE)

        hot_kinds = {m.msg_type for m in seen}
        assert MessageType.PAGE_FETCH_BATCH in hot_kinds
        assert MessageType.UPDATE_PUSH_BATCH in hot_kinds
        for msg in seen:
            wire = encode(msg)
            assert wire is not None, f"estimator fallback on {msg!r}"
            assert len(wire) == encoded_size(msg) == msg.size_bytes()
            revived = decode(wire)
            assert revived.msg_type is msg.msg_type
            assert (revived.src, revived.dst) == (msg.src, msg.dst)
            assert revived.request_id == msg.request_id
            assert revived.reply_to == msg.reply_to
            # Live page data travels as zero-copy memoryviews and
            # decodes as bytes; == compares the underlying buffers.
            assert revived.payload == msg.payload
