"""Length-prefixed message framing for stream transports.

One frame on the wire is::

    <u32 little-endian body length> <body>

where the body is the binary codec encoding of one message
(:mod:`repro.net.codec`; first byte is the codec magic ``0xC5``) — for
every message type; there is no second serialisation.

This module adds only what a byte stream needs on top of the codec:
the length prefix, the frame-size limit, and the conversion of
whatever a decoder trips over on socket bytes into :class:`FrameError`,
the one exception a transport has to expect from :func:`decode_body`.
Nothing read from a socket is ever executed or unpickled.
"""

from __future__ import annotations

import struct
from typing import Union

from repro.net import codec
from repro.net.message import Message

#: Frame length prefix: one unsigned 32-bit little-endian integer.
LENGTH_PREFIX = struct.Struct("<I")

#: Upper bound on one frame body; a prefix above this is treated as a
#: corrupt stream rather than an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(ValueError):
    """Bytes off the wire that are not one well-formed frame."""


def encode_frame(message: Message) -> bytes:
    """One message as a complete frame (length prefix + body).

    Raises :class:`~repro.net.codec.EncodeError` for an unencodable
    payload or a body over :data:`MAX_FRAME_BYTES` — a frame every
    receiver would reject and the RPC layer retransmit.
    """
    body = codec.encode(message)
    if len(body) > MAX_FRAME_BYTES:
        raise codec.EncodeError(
            f"{message!r} encodes to {len(body)} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return LENGTH_PREFIX.pack(len(body)) + body


def decode_body(body: Union[bytes, memoryview]) -> Message:
    """Inverse of the body part of :func:`encode_frame`.

    ``body`` is bytes off a socket (the transport passes a view of its
    receive buffer), so whatever it holds the outcome is a
    :class:`Message` or a :class:`FrameError` — never the
    ``struct.error``/``IndexError``/``UnicodeDecodeError`` the decoder
    happened to trip over.
    """
    if not body:
        raise FrameError("empty frame body")
    try:
        return codec.decode(body)
    except Exception as exc:  # khz: allow-broad-except(converted, not swallowed: whatever the decoder trips over on socket bytes re-raises as the one typed FrameError)
        raise FrameError(
            f"undecodable frame body (tag {body[0]:#x}, {len(body)} bytes): "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def frame_size(message: Message) -> int:
    """Exact on-the-wire size of ``message`` as one stream frame."""
    return LENGTH_PREFIX.size + codec.encoded_size(message)
