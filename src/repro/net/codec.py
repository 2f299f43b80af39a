"""The one binary wire codec: every message type, one size.

How a :class:`~repro.net.message.Message` becomes bytes, and how many,
is decided here and nowhere else.  Every :class:`MessageType` has a
wire id in :data:`WIRE_IDS`; :func:`encode` and :func:`encoded_size`
are total over that table — they return ``bytes``/``int`` or raise
:class:`EncodeError` for a payload outside the value vocabulary, never
a fallback.  The simulator charges ``encoded_size`` per send, the
stream framing (:mod:`repro.net.frame`) adds its length prefix to the
same number, so both runtimes agree on what a message weighs and on
which messages can be sent at all.

Wire layout (documented for docs/performance.md):

``header``
    ``<BBiiqqq``: magic ``0xC5``, type id, src, dst, msg_id,
    request_id, reply_to (``-1`` encodes ``None``).

``payload``
    varint field count, then per field: varint-length key (UTF-8) and
    a tagged value.  Tags: ``0`` None, ``1`` False, ``2`` True,
    ``3`` int (zigzag varint of at most :data:`MAX_VARINT_BYTES` bytes
    — global addresses are 128-bit), ``4`` float (8-byte IEEE double),
    ``5`` bytes (varint length + raw; ``bytearray``/``memoryview``
    payloads encode identically and decode as ``bytes``), ``6`` str
    (varint length + UTF-8), ``7`` list and ``8`` tuple (varint count
    + items — the distinction matters: diff runs are tuples, page
    items are lists), ``9`` dict (the payload layout again: varint
    count + key/value pairs, string keys only).
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

from repro.core.addressing import ADDRESS_BITS
from repro.net.message import Message, MessageType

_MAGIC = 0xC5

_HEADER = struct.Struct("<BBiiqqq")
_DOUBLE = struct.Struct("<d")

#: Longest varint on the wire: what a zig-zagged 128-bit global address
#: needs (129 bits, 7 to a byte).  The decoder refuses a longer run
#: instead of shifting an attacker's megabyte of 0xFF into one integer;
#: the encoder refuses an int that would not fit.
MAX_VARINT_BYTES = -(-(ADDRESS_BITS + 1) // 7)
_MAX_VARINT_BITS = 7 * MAX_VARINT_BYTES

#: Stable wire id of every message type.  Ids are forever: 1-10 and 17
#: (the data path) are pinned by golden frames in tests/test_net_codec.py,
#: a new type takes the next free number, and a deleted type's id is
#: retired, never reused — 11-16 (the multi-page twins of 1-6, folded
#: into them when every page request became a list) and 34 (a reserved
#: owner-transfer type nothing ever sent) decode as unknown.
WIRE_IDS: Dict[MessageType, int] = {
    MessageType.PAGE_FETCH: 1,
    MessageType.PAGE_DATA: 2,
    MessageType.LOCK_REQUEST: 3,
    MessageType.LOCK_REPLY: 4,
    MessageType.UPDATE_PUSH: 5,
    MessageType.UPDATE_ACK: 6,
    MessageType.INVALIDATE: 7,
    MessageType.INVALIDATE_ACK: 8,
    MessageType.SHARER_REGISTER: 9,
    MessageType.SHARER_UNREGISTER: 10,
    MessageType.ERROR: 17,
    MessageType.REGION_LOOKUP: 18,
    MessageType.REGION_LOOKUP_REPLY: 19,
    MessageType.CM_HINT_QUERY: 20,
    MessageType.CM_HINT_REPLY: 21,
    MessageType.CM_HINT_UPDATE: 22,
    MessageType.SPACE_REQUEST: 23,
    MessageType.SPACE_GRANT: 24,
    MessageType.FREE_SPACE_REPORT: 25,
    MessageType.DESCRIPTOR_FETCH: 26,
    MessageType.DESCRIPTOR_REPLY: 27,
    MessageType.DESCRIPTOR_UPDATE: 28,
    MessageType.REGION_UNRESERVE: 29,
    MessageType.ALLOC_REQUEST: 30,
    MessageType.ALLOC_REPLY: 31,
    MessageType.FREE_REQUEST: 32,
    MessageType.FREE_REPLY: 33,
    MessageType.REPLICA_CREATE: 35,
    MessageType.REPLICA_ACK: 36,
    MessageType.REGION_MIGRATE: 37,
    MessageType.PING: 38,
    MessageType.PONG: 39,
    MessageType.RING_QUERY: 40,
    MessageType.RING_REPLY: 41,
    MessageType.RING_PUBLISH: 42,
    MessageType.MEMBER_JOIN: 43,
    MessageType.MEMBER_WELCOME: 44,
    MessageType.MEMBER_UPDATE: 45,
    MessageType.APP_REQUEST: 46,
    MessageType.APP_REPLY: 47,
    MessageType.MAP_MUTATE: 48,
    MessageType.MAP_REPLY: 49,
}

_TYPE_BY_ID: Dict[int, MessageType] = {
    wire_id: msg_type for msg_type, wire_id in WIRE_IDS.items()
}

# Value tags.
_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3
_T_FLOAT = 4
_T_BYTES = 5
_T_STR = 6
_T_LIST = 7
_T_TUPLE = 8
_T_DICT = 9


class EncodeError(ValueError):
    """A message that cannot become one well-formed frame.

    Raised to the *sender* — by :func:`encode`, :func:`encoded_size`
    and :func:`repro.net.frame.encode_frame`, hence by every
    transport's ``send`` before the message is counted or tapped — for
    a payload value outside the wire vocabulary, a non-string key, an
    int wider than :data:`MAX_VARINT_BYTES`, or a body over the frame
    limit.  It is a bug in the code that built the payload, never a
    network condition.
    """


# --- varints ---------------------------------------------------------------

def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _varint_size(value: int) -> int:
    size = 1
    value >>= 7
    while value:
        size += 1
        value >>= 7
    return size


def _read_varint(data: memoryview, pos: int) -> Tuple[int, int]:
    result = data[pos]
    if result < 0x80:      # counts, key lengths, small ints: one byte
        return result, pos + 1
    result &= 0x7F
    for shift in range(7, _MAX_VARINT_BITS, 7):
        pos += 1
        byte = data[pos]
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos + 1
    raise ValueError(f"varint longer than {MAX_VARINT_BYTES} bytes")


def _zigzag(value: int) -> int:
    """Zig-zag ``value``, refusing what the decoder's varint cap would."""
    encoded = (value << 1) ^ (value >> (value.bit_length() + 1)) \
        if value < 0 else value << 1
    if encoded >> _MAX_VARINT_BITS:
        raise EncodeError(
            f"int of {value.bit_length()} bits does not fit a "
            f"{MAX_VARINT_BYTES}-byte varint"
        )
    return encoded


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


# --- value encoding --------------------------------------------------------

def _encode_fields(out: bytearray, fields: Dict[str, Any]) -> None:
    """A string-keyed mapping: the payload itself and every nested dict."""
    _write_varint(out, len(fields))
    for key, value in fields.items():
        if type(key) is not str:
            raise EncodeError(f"non-str dict key {key!r}")
        raw = key.encode("utf-8")
        _write_varint(out, len(raw))
        out += raw
        _encode_value(out, value)


def _encode_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is False:
        out.append(_T_FALSE)
    elif value is True:
        out.append(_T_TRUE)
    elif type(value) is int:
        out.append(_T_INT)
        _write_varint(out, _zigzag(value))
    elif type(value) is float:
        out.append(_T_FLOAT)
        out += _DOUBLE.pack(value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        out.append(_T_BYTES)
        _write_varint(out, len(value))
        out += value
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(_T_STR)
        _write_varint(out, len(raw))
        out += raw
    elif type(value) is list:
        out.append(_T_LIST)
        _write_varint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif type(value) is tuple:
        out.append(_T_TUPLE)
        _write_varint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif type(value) is dict:
        out.append(_T_DICT)
        _encode_fields(out, value)
    else:
        raise EncodeError(f"value of type {type(value).__name__}")


def _fields_size(fields: Dict[str, Any]) -> int:
    size = _varint_size(len(fields))
    for key, value in fields.items():
        if type(key) is not str:
            raise EncodeError(f"non-str dict key {key!r}")
        n = len(key.encode("utf-8"))
        size += _varint_size(n) + n + _value_size(value)
    return size


def _value_size(value: Any) -> int:
    """Exact encoded size of one value, without building the bytes.

    Mirrors :func:`_encode_value` case by case; the codec property
    tests pin ``len(encode(msg)) == encoded_size(msg)``.
    """
    if value is None or value is False or value is True:
        return 1
    if type(value) is int:
        return 1 + _varint_size(_zigzag(value))
    if type(value) is float:
        return 9
    if isinstance(value, (bytes, bytearray, memoryview)):
        n = len(value)
        return 1 + _varint_size(n) + n
    if type(value) is str:
        n = len(value.encode("utf-8"))
        return 1 + _varint_size(n) + n
    if type(value) is list or type(value) is tuple:
        size = 1 + _varint_size(len(value))
        for item in value:
            size += _value_size(item)
        return size
    if type(value) is dict:
        return 1 + _fields_size(value)
    raise EncodeError(f"value of type {type(value).__name__}")


def _decode_fields(data: memoryview, pos: int) -> Tuple[Dict[str, Any], int]:
    count, pos = _read_varint(data, pos)
    fields: Dict[str, Any] = {}
    for _ in range(count):
        n, pos = _read_varint(data, pos)
        key = str(data[pos : pos + n], "utf-8")
        pos += n
        fields[key], pos = _decode_value(data, pos)
    return fields, pos


def _decode_value(data: memoryview, pos: int) -> Tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_INT:
        raw, pos = _read_varint(data, pos)
        return _unzigzag(raw), pos
    if tag == _T_FLOAT:
        return _DOUBLE.unpack_from(data, pos)[0], pos + 8
    if tag == _T_BYTES:
        n, pos = _read_varint(data, pos)
        return bytes(data[pos : pos + n]), pos + n
    if tag == _T_STR:
        n, pos = _read_varint(data, pos)
        return str(data[pos : pos + n], "utf-8"), pos + n
    if tag == _T_LIST or tag == _T_TUPLE:
        count, pos = _read_varint(data, pos)
        items: List[Any] = []
        for _ in range(count):
            item, pos = _decode_value(data, pos)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_DICT:
        return _decode_fields(data, pos)
    raise ValueError(f"unknown value tag {tag}")


# --- message encoding ------------------------------------------------------

def encode(message: Message) -> bytes:
    """The binary encoding of ``message``; :class:`EncodeError` if its
    payload holds anything outside the wire vocabulary."""
    out = bytearray(
        _HEADER.pack(
            _MAGIC,
            WIRE_IDS[message.msg_type],
            message.src,
            message.dst,
            message.msg_id,
            -1 if message.request_id is None else message.request_id,
            -1 if message.reply_to is None else message.reply_to,
        )
    )
    _encode_fields(out, message.payload)
    return bytes(out)


def decode(data: bytes) -> Message:
    """Inverse of :func:`encode`; raises ValueError on malformed input."""
    magic, wire_id, src, dst, msg_id, request_id, reply_to = (
        _HEADER.unpack_from(data, 0)
    )
    if magic != _MAGIC:
        raise ValueError(f"bad magic byte {magic:#x}")
    msg_type = _TYPE_BY_ID.get(wire_id)
    if msg_type is None:
        raise ValueError(f"unknown wire type id {wire_id}")
    payload, pos = _decode_fields(memoryview(data), _HEADER.size)
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} trailing bytes after payload")
    return Message(
        msg_type=msg_type,
        src=src,
        dst=dst,
        payload=payload,
        request_id=None if request_id == -1 else request_id,
        reply_to=None if reply_to == -1 else reply_to,
        msg_id=msg_id,
    )


def encoded_size(message: Message) -> int:
    """Exact wire size of ``message`` without encoding it.

    The simulated network asks for a size on *every* send, so this is
    arithmetic over the payload rather than a throwaway encode; the
    property tests hold it bit-for-bit equal to ``len(encode(msg))``,
    and it raises :class:`EncodeError` exactly when ``encode`` would.
    """
    return _HEADER.size + _fields_size(message.payload)
