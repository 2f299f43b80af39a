"""The one binary wire codec: every message type, one size.

How a :class:`~repro.net.message.Message` becomes bytes, and how many,
is decided here and nowhere else.  Every :class:`MessageType` has a
wire id in :data:`WIRE_IDS`; :func:`encode` and :func:`encoded_size`
are total over that table — they return ``bytes``/``int`` or raise
:class:`EncodeError` for a payload outside the value vocabulary, never
a fallback.  The simulator charges ``encoded_size`` per send, the
stream framing (:mod:`repro.net.frame`) adds its length prefix to the
same number, so both runtimes agree on what a message weighs and on
which messages can be sent at all.  ``encoded_size`` *is* the encoder
(header size plus the encoded payload's length), so size and bytes
agree by construction.

Wire layout (documented for docs/performance.md):

``header``
    ``<BBiiqqq``: magic ``0xC5``, type id, src, dst, msg_id,
    request_id, reply_to (``-1`` encodes ``None``).

``payload``
    varint field count, then per field: varint-length key (UTF-8) and
    a tagged value.  Tags: ``0`` None, ``1`` False, ``2`` True,
    ``3`` int (zigzag varint; the encoder uses it for ints of at most
    four varint bytes, the decoder accepts :data:`MAX_VARINT_BYTES`),
    ``4`` float (8-byte IEEE double), ``5`` bytes (varint length +
    raw; ``bytearray``/``memoryview`` payloads encode identically and
    decode as ``bytes``), ``6`` str (varint length + UTF-8), ``7`` list
    and ``8`` tuple (varint count + items — the distinction matters:
    diff runs are tuples, page items are lists), ``9`` dict (the
    payload layout again: varint count + key/value pairs, string keys
    only), ``10`` record list (a non-empty list of dicts sharing one
    non-empty key order — every page, update and error item list:
    varint row count, varint key count, the keys once, then each row's
    values in key order), ``11`` wide int (every other int — global
    addresses, rids: one length byte, at most :data:`MAX_WIDE_BYTES`,
    then ``int.to_bytes(length, "little", signed=True)``).
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
#: instead of shifting an attacker's megabyte of 0xFF into one integer.
MAX_VARINT_BYTES = -(-(ADDRESS_BITS + 1) // 7)
_MAX_VARINT_BITS = 7 * MAX_VARINT_BYTES

#: Longest wide int: the fewest bytes that hold a 129-bit signed value,
#: so every global address (and its negation) fits.  The encoder
#: refuses an int that needs more, the decoder a longer length byte.
MAX_WIDE_BYTES = -(-(ADDRESS_BITS + 1) // 8)

#: Ints in ``[-_SMALL_INT, _SMALL_INT)`` zig-zag into at most four varint
#: bytes and travel as tag 3; every other int is a wide int (tag 11).
_SMALL_INT = 1 << 27

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

# Value tags.  10 and 11 make a page list cost per list, not per field.
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
_T_RECORDS = 10
_T_WIDE = 11


class EncodeError(ValueError):
    """A message that cannot become one well-formed frame.

    Raised to the *sender* — by :func:`encode`, :func:`encoded_size`
    and :func:`repro.net.frame.encode_frame`, hence by every
    transport's ``send`` before the message is counted or tapped — for
    a payload value outside the wire vocabulary, a non-string key, an
    int wider than :data:`MAX_WIDE_BYTES`, or a body over the frame
    limit.  It is a bug in the code that built the payload, never a
    network condition.
    """


# --- varints and wide ints ---------------------------------------------------

def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


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


def _write_wide(out: bytearray, value: int) -> None:
    width = value.bit_length() // 8 + 1
    if width > MAX_WIDE_BYTES:
        raise EncodeError(
            f"int of {value.bit_length()} bits is wider than "
            f"{MAX_WIDE_BYTES} bytes"
        )
    out.append(_T_WIDE)
    out.append(width)
    out += value.to_bytes(width, "little", signed=True)


def _bad_wide(width: int) -> ValueError:
    return ValueError(f"wide int of {width} bytes: over the "
                      f"{MAX_WIDE_BYTES}-byte cap or past the body")


def _read_wide(data: memoryview, pos: int) -> Tuple[int, int]:
    width = data[pos]
    end = pos + 1 + width
    if width > MAX_WIDE_BYTES or end > len(data):
        raise _bad_wide(width)
    return int.from_bytes(data[pos + 1 : end], "little", signed=True), end


# --- value encoding --------------------------------------------------------

def _write_key(out: bytearray, key: Any) -> None:
    if type(key) is not str:
        raise EncodeError(f"non-str dict key {key!r}")
    raw = key.encode("utf-8")
    _write_varint(out, len(raw))
    out += raw


def _encode_fields(out: bytearray, fields: Dict[str, Any]) -> None:
    """A string-keyed mapping: the payload itself and every nested dict."""
    _write_varint(out, len(fields))
    for key, value in fields.items():
        _write_key(out, key)
        _encode_value(out, value)


def _encode_records(out: bytearray, rows: List[Dict[str, Any]]) -> bool:
    """``rows`` as one record list: row count, the keys once, then each
    row's values in key order.  Writes nothing and returns False when
    the rows do not all share the first row's key order."""
    keys = tuple(rows[0])
    for row in rows:
        if type(row) is not dict or tuple(row) != keys:
            return False
    out.append(_T_RECORDS)
    _write_varint(out, len(rows))
    _write_varint(out, len(keys))
    for key in keys:
        _write_key(out, key)
    for row in rows:
        for value in row.values():
            _encode_value(out, value)
    return True


def _encode_value(out: bytearray, value: Any) -> None:
    kind = type(value)
    if kind is int:
        if -_SMALL_INT <= value < _SMALL_INT:
            out.append(_T_INT)
            _write_varint(out, value << 1 if value >= 0 else ~value << 1 | 1)
        else:
            _write_wide(out, value)
    elif kind is bytes or kind is memoryview or kind is bytearray:
        out.append(_T_BYTES)
        _write_varint(out, len(value))
        out += value
    elif kind is str:
        raw = value.encode("utf-8")
        out.append(_T_STR)
        _write_varint(out, len(raw))
        out += raw
    elif kind is list:
        if not (value and type(value[0]) is dict and value[0]
                and _encode_records(out, value)):
            out.append(_T_LIST)
            _write_varint(out, len(value))
            for item in value:
                _encode_value(out, item)
    elif kind is dict:
        out.append(_T_DICT)
        _encode_fields(out, value)
    elif value is None:
        out.append(_T_NONE)
    elif value is False:
        out.append(_T_FALSE)
    elif value is True:
        out.append(_T_TRUE)
    elif kind is float:
        out.append(_T_FLOAT)
        out += _DOUBLE.pack(value)
    elif kind is tuple:
        out.append(_T_TUPLE)
        _write_varint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        out.append(_T_BYTES)
        _write_varint(out, len(value))
        out += value
    else:
        raise EncodeError(f"value of type {kind.__name__}")


# --- value decoding --------------------------------------------------------

def _decode_fields(data: memoryview, pos: int) -> Tuple[Dict[str, Any], int]:
    count, pos = _read_varint(data, pos)
    fields: Dict[str, Any] = {}
    for _ in range(count):
        n, pos = _read_varint(data, pos)
        key = str(data[pos : pos + n], "utf-8")
        pos += n
        fields[key], pos = _decode_value(data, pos)
    return fields, pos


def _decode_records(data: memoryview,
                    pos: int) -> Tuple[List[Dict[str, Any]], int]:
    count, pos = _read_varint(data, pos)
    key_count, pos = _read_varint(data, pos)
    if not key_count:
        raise ValueError("record list without keys")
    # Every value takes at least its tag byte: a row count the body
    # cannot hold is refused before any row is built.
    if count * key_count > len(data) - pos:
        raise ValueError(f"record list of {count} rows overruns the body")
    keys: List[str] = []
    for _ in range(key_count):
        n, pos = _read_varint(data, pos)
        keys.append(str(data[pos : pos + n], "utf-8"))
        pos += n
    if len(set(keys)) != key_count:
        raise ValueError("record list repeats a key")
    size = len(data)
    rows: List[Dict[str, Any]] = []
    for _ in range(count):
        row: Dict[str, Any] = {}
        for key in keys:
            # Inline paths for what a page item holds; the rest recurses.
            tag = data[pos]
            if tag == _T_BYTES:
                n = data[pos + 1]
                pos += 2
                if n >= 0x80:
                    n, pos = _read_varint(data, pos - 1)
                end = pos + n
                row[key] = bytes(data[pos:end])
                pos = end
            elif tag == _T_WIDE:   # _read_wide, inlined
                width = data[pos + 1]
                end = pos + 2 + width
                if width > MAX_WIDE_BYTES or end > size:
                    raise _bad_wide(width)
                row[key] = int.from_bytes(data[pos + 2 : end], "little",
                                          signed=True)
                pos = end
            elif tag == _T_INT:
                raw, pos = _read_varint(data, pos + 1)
                row[key] = (raw >> 1) ^ -(raw & 1)
            else:
                row[key], pos = _decode_value(data, pos)
        rows.append(row)
    return rows, pos


def _decode_value(data: memoryview, pos: int) -> Tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == _T_INT:
        raw, pos = _read_varint(data, pos)
        return (raw >> 1) ^ -(raw & 1), pos
    if tag == _T_WIDE:
        return _read_wide(data, pos)
    if tag == _T_BYTES:
        n, pos = _read_varint(data, pos)
        return bytes(data[pos : pos + n]), pos + n
    if tag == _T_STR:
        n, pos = _read_varint(data, pos)
        return str(data[pos : pos + n], "utf-8"), pos + n
    if tag == _T_RECORDS:
        return _decode_records(data, pos)
    if tag == _T_DICT:
        return _decode_fields(data, pos)
    if tag == _T_LIST or tag == _T_TUPLE:
        count, pos = _read_varint(data, pos)
        items: List[Any] = []
        for _ in range(count):
            item, pos = _decode_value(data, pos)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_NONE:
        return None, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FLOAT:
        return _DOUBLE.unpack_from(data, pos)[0], pos + 8
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
    """Exact wire size of ``message``: the header plus its encoded
    payload, so it equals ``len(encode(message))`` by construction and
    raises :class:`EncodeError` exactly when ``encode`` would."""
    out = bytearray()
    _encode_fields(out, message.payload)
    return _HEADER.size + len(out)
