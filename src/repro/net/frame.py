"""Length-prefixed message framing for stream transports.

One frame on the wire is::

    <u32 little-endian body length> <body>

where the body is either

- the PR-6 binary codec encoding (first byte is the codec magic
  ``0xC5``) for the 17 hot message types, or
- a tagged pickle (first byte ``0x50``, then ``pickle.dumps`` of the
  envelope tuple) for cold message types and for hot-type payloads the
  codec cannot express.  The tag bytes are disjoint, so the decoder
  dispatches on the body's first byte.

Anything else — an empty body, an unknown tag, a body its decoder
cannot finish — is a :class:`FrameError`, the one exception a
transport has to expect from :func:`decode_body`.

Pickle is acceptable here because frames only ever arrive from peer
daemons of the same deployment on localhost/trusted links — the same
trust domain as the shared address space itself.

This module is also the satellite fix for ``Message.size_bytes`` over
TCP: :func:`frame_size` is the *actual* number of bytes a message
occupies on a stream (prefix included), for cold types included, and
:func:`install_exact_sizes` swaps it in as the message-size hook for
as long as a TCP transport is alive, so tap-reported sizes match
socket-measured bytes exactly.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Optional, Union

from repro.net import codec
from repro.net.message import Message, MessageType, set_size_codec

#: Frame length prefix: one unsigned 32-bit little-endian integer.
LENGTH_PREFIX = struct.Struct("<I")

#: First body byte of a pickled (non-codec) envelope.
PICKLE_TAG = 0x50

#: Upper bound on one frame body; a prefix above this is treated as a
#: corrupt stream rather than an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(ValueError):
    """Bytes off the wire that are not one well-formed frame."""


def _picklable(value: Any) -> Any:
    """Deep-copy container payloads, normalising buffer views.

    The zero-copy dataplane ships page bytes as ``memoryview`` slices
    over frozen buffers; those views pickle as plain ``bytes`` here so
    the receiving process gets an ordinary immutable buffer.
    """
    if isinstance(value, (memoryview, bytearray)):
        return bytes(value)
    if isinstance(value, dict):
        return {key: _picklable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        converted = [_picklable(item) for item in value]
        return type(value)(converted) if isinstance(value, tuple) \
            else converted
    return value


def _pickle_body(message: Message) -> bytes:
    envelope = (
        message.msg_type.value,
        message.src,
        message.dst,
        _picklable(message.payload),
        message.request_id,
        message.reply_to,
        message.msg_id,
    )
    return bytes([PICKLE_TAG]) + pickle.dumps(envelope, protocol=4)


def encode_frame(message: Message) -> bytes:
    """One message as a complete frame (length prefix + body)."""
    body = codec.encode(message)
    if body is None:
        body = _pickle_body(message)
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
        if body[0] != PICKLE_TAG:
            return codec.decode(body)
        msg_type, src, dst, payload, request_id, reply_to, msg_id = (
            pickle.loads(body[1:])
        )
        return Message(
            msg_type=MessageType(msg_type),
            src=src,
            dst=dst,
            payload=payload,
            request_id=request_id,
            reply_to=reply_to,
            msg_id=msg_id,
        )
    except Exception as exc:  # khz: allow-broad-except(converted, not swallowed: whatever a decoder trips over on socket bytes re-raises as the one typed FrameError)
        raise FrameError(
            f"undecodable frame body (tag {body[0]:#x}, {len(body)} bytes): "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def frame_size(message: Message) -> int:
    """Exact on-the-wire size of ``message`` as one stream frame.

    Hot types use the codec's arithmetic size; cold types pay for the
    actual pickle (they are rare control traffic, so the throwaway
    encode is cheap where it matters not at all).
    """
    body_size = codec.encoded_size(message)
    if body_size is None:
        body_size = len(_pickle_body(message))
    return LENGTH_PREFIX.size + body_size


# --- Message.size_bytes integration ----------------------------------------
#
# While any TCP transport is alive, every Message.size_bytes() call in
# the process answers with the true frame size.  Reference-counted so
# several transports in one process (the in-process benchmark builds
# one per daemon) install once and the original hook — the codec-only
# sizer the simulator uses — comes back when the last one closes.

_installs = 0
_previous = None


def _hook(message: Message) -> Optional[int]:
    return frame_size(message)


def install_exact_sizes() -> None:
    """Make ``Message.size_bytes`` report exact frame sizes."""
    global _installs, _previous
    if _installs == 0:
        _previous = set_size_codec(_hook)
    _installs += 1


def uninstall_exact_sizes() -> None:
    """Undo one :func:`install_exact_sizes`; restores the prior hook
    when the last installer has gone."""
    global _installs, _previous
    if _installs == 0:
        return
    _installs -= 1
    if _installs == 0:
        set_size_codec(_previous)
        _previous = None
