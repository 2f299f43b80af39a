"""Real-socket transport: length-prefixed frames on asyncio protocols.

The second implementation of the :class:`~repro.net.transport.Transport`
seam (the first is the simulator).  Semantics deliberately mirror the
datagram model every protocol is written against:

- ``send`` never blocks and never raises for anything the network
  does: once the lazy per-destination :class:`ServiceConnection` is
  up, a frame is written to its socket in the sender's own stack, and
  a dead or unreachable peer silently drops frames (counted in
  ``stats.messages_dropped``), exactly as the simulator drops traffic
  to a crashed node.  The RPC layer's retransmission machinery
  provides reliability on top, same as over the sim.  A message that
  cannot be framed at all raises :class:`~repro.net.codec.EncodeError`
  to the sender, uncounted and untapped — as over the sim.
- a slow peer cannot make the sender hold unbounded memory: past
  :data:`WRITE_HIGH_WATER` buffered bytes, frames for that peer are
  shed (``stats.messages_shed``) until its socket drains.
- delivery order per (src, dst) pair follows the stream, matching the
  jitter-free simulator link.

Inbound, each accepted socket is a :class:`FrameReceiver`: the kernel
``recv_into``s one persistent buffer and frames are parsed and
dispatched where they land, inside the loop's read callback.

Each daemon process (or each in-process daemon, in the transport
bench) owns one ``TcpTransport`` listening on its address-book entry;
the address book is shared mutable state so ephemeral ports chosen by
``listen`` become visible to every transport built over the same book.

``stats.bytes_sent`` counts whole frames, so traffic accounting equals
bytes on the socket: :func:`repro.net.frame.frame_size` per message.
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from typing import Deque, Dict, List, Set, Tuple, cast

from repro.net import frame
from repro.net.message import Message
from repro.net.sim import NetworkStats
from repro.net.transport import MessageHandler, Transport

logger = logging.getLogger(__name__)

#: Give a peer this many wall seconds to accept before dropping.
CONNECT_TIMEOUT = 2.0

#: Most bytes one peer may have buffered on our side (the asyncio write
#: buffer once connected, the pre-connect queue before) before frames
#: for it are shed.  One largest legal frame, so no frame trips the
#: mark by itself and the bound tightens with ``MAX_FRAME_BYTES``.
WRITE_HIGH_WATER = frame.LENGTH_PREFIX.size + frame.MAX_FRAME_BYTES

#: Receive buffer a connection starts with; it grows to the largest
#: frame that connection has carried.
INITIAL_RECV_BYTES = 64 * 1024

Address = Tuple[str, int]


def _abort(wire: asyncio.Transport) -> None:
    try:
        wire.abort()
    except RuntimeError:
        pass   # loop already closed during interpreter teardown


class ServiceConnection(asyncio.Protocol):
    """One outbound connection to one peer, with datagram drop semantics.

    Frames offered while the connect is in flight queue here and are
    flushed, in order, the moment it completes; from then on
    ``enqueue`` is a direct socket write.  Connect failure or a lost
    connection drops what is queued (the peer is treated as dead, like
    a crashed sim node) and closes this object — the transport's next
    ``send`` to that peer builds a fresh one.  Frames enqueued after
    ``close`` drop silently.
    """

    def __init__(self, transport: "TcpTransport", dst: int) -> None:
        self.transport = transport
        self.dst = dst
        self.closed = False
        self._queue: Deque[bytes] = deque()
        self._queued_bytes = 0
        self._wire: asyncio.Transport | None = None
        self._paused = False
        self._opened = False
        #: Resolves once no socket of this connection remains open.
        self.released: asyncio.Future = transport.loop.create_future()
        self._connecting = transport.loop.create_task(self._connect())

    @property
    def buffered_bytes(self) -> int:
        """Bytes accepted for the peer that its socket has not taken."""
        if self._wire is not None:
            return self._wire.get_write_buffer_size()
        return self._queued_bytes

    def enqueue(self, data: bytes) -> None:
        wire = self._wire
        if wire is not None and not self._paused:
            wire.write(data)
            return
        stats = self.transport.stats
        if self.closed:
            stats.messages_dropped += 1
        elif wire is not None or self._queued_bytes > WRITE_HIGH_WATER:
            stats.messages_shed += 1
        else:
            self._queue.append(data)
            self._queued_bytes += len(data)

    def close(self) -> None:
        if self.closed:
            return
        self._connecting.cancel()
        self._drop()
        if self._wire is not None:
            _abort(self._wire)
            self._wire = None

    def _drop(self) -> None:
        self.closed = True
        self.transport.stats.messages_dropped += len(self._queue)
        self._queue.clear()
        self._queued_bytes = 0

    async def _connect(self) -> None:
        try:
            host, port = self.transport.addresses[self.dst]
            await asyncio.wait_for(
                self.transport.loop.create_connection(
                    lambda: self, host, port),
                CONNECT_TIMEOUT,
            )
        except (OSError, asyncio.TimeoutError, KeyError):
            # Unreachable peer: everything queued for it is lost, like
            # datagrams into a crashed node.
            self._drop()
        finally:
            if not self._opened:
                self.released.set_result(None)

    # --- asyncio.Protocol --------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        wire = cast(asyncio.Transport, transport)
        self._opened = True
        if self.closed:   # closed while the connect was in flight
            _abort(wire)
            return
        wire.set_write_buffer_limits(high=WRITE_HIGH_WATER)
        self._wire = wire
        wire.writelines(self._queue)
        self._queue.clear()
        self._queued_bytes = 0

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False

    def connection_lost(self, exc: Exception | None) -> None:
        self.closed = True
        self._wire = None
        self.released.set_result(None)


class FrameReceiver(asyncio.BufferedProtocol):
    """One accepted socket: frames parsed where the kernel put them.

    The loop reads straight into ``_view``'s bytearray; unparsed bytes
    always start at offset 0 between reads, so the only state is how
    many there are.  A frame that fails to parse is counted, logged, and
    costs the peer this one connection.
    """

    def __init__(self, transport: "TcpTransport") -> None:
        self.transport = transport
        self._view = memoryview(bytearray(INITIAL_RECV_BYTES))
        self._pending = 0
        self._wire: asyncio.Transport | None = None
        #: Resolves once the socket is released.
        self.released: asyncio.Future = transport.loop.create_future()

    def close(self) -> None:
        if self._wire is not None:
            _abort(self._wire)
            self._wire = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._wire = cast(asyncio.Transport, transport)
        self.transport._receivers.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self._wire = None
        self.transport._receivers.discard(self)
        self.released.set_result(None)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view[self._pending:]

    def buffer_updated(self, nbytes: int) -> None:
        view = self._view
        prefix = frame.LENGTH_PREFIX.size
        start, end = 0, self._pending + nbytes
        need = prefix
        while end - start >= prefix:
            (length,) = frame.LENGTH_PREFIX.unpack_from(view, start)
            if not 0 < length <= frame.MAX_FRAME_BYTES:
                self._reject(f"bad frame length {length}")
                return
            stop = start + prefix + length
            if stop > end:
                need = prefix + length
                break
            try:
                message = frame.decode_body(view[start + prefix:stop])
            except frame.FrameError as exc:
                self._reject(str(exc))
                return
            start = stop
            self.transport._dispatch(message)
            if self._wire is None:
                return   # the handler closed the transport under us
        self._pending = end - start
        if need > len(view):
            # Largest frame this connection has seen: the buffer grows
            # to hold it whole and stays that size.
            grown = memoryview(bytearray(need))
            grown[:self._pending] = view[start:end]
            self._view = grown
        elif start and self._pending:
            view[:self._pending] = view[start:end]   # memmove; may overlap

    def _reject(self, reason: str) -> None:
        self.transport.stats.frames_rejected += 1
        logger.warning("dropping connection after a corrupt frame: %s",
                       reason)
        self.close()


class TcpTransport(Transport):
    """Frames the binary codec over asyncio protocols."""

    def __init__(self, addresses: Dict[int, Address],
                 loop: asyncio.AbstractEventLoop) -> None:
        #: node id -> (host, port); shared and mutated by ``listen``.
        self.addresses = addresses
        self.loop = loop
        self.stats = NetworkStats()
        self._handlers: Dict[int, MessageHandler] = {}
        self._servers: Dict[int, asyncio.AbstractServer] = {}
        self._connections: Dict[int, ServiceConnection] = {}
        self._taps: List[MessageHandler] = []
        self._delivery_taps: List[MessageHandler] = []
        #: live accepted sockets
        self._receivers: Set[FrameReceiver] = set()
        self._closed = False

    # --- Server side -----------------------------------------------------

    async def listen(self, node_id: int) -> int:
        """Accept frames for ``node_id`` at its address-book entry.

        Binds the configured (host, port); with port 0 the kernel
        picks one, and the book entry is updated so peers sharing the
        book can reach it.  Returns the bound port.
        """
        host, port = self.addresses.get(node_id, ("127.0.0.1", 0))
        server = await self.loop.create_server(
            lambda: FrameReceiver(self), host, port)
        bound = server.sockets[0].getsockname()[1]
        self.addresses[node_id] = (host, bound)
        self._servers[node_id] = server
        return bound

    def _dispatch(self, message: Message) -> None:
        handler = self._handlers.get(message.dst)
        if handler is None:
            self.stats.messages_dropped += 1
            return
        self.stats.messages_delivered += 1
        for tap in self._delivery_taps:
            tap(message)
        try:
            handler(message)
        except Exception:
            # Handler isolation, as in the sim: one poisoned message
            # must not kill the receiver for the whole connection.
            logger.exception(
                "handler for %s failed on node %d",
                message.msg_type.value, message.dst,
            )

    # --- Transport interface ---------------------------------------------

    def attach(self, node_id: int, handler: MessageHandler) -> None:
        self._handlers[node_id] = handler

    def detach(self, node_id: int) -> None:
        self._handlers.pop(node_id, None)
        server = self._servers.pop(node_id, None)
        if server is not None:
            server.close()

    def node_ids(self) -> List[int]:
        """All peers in the address book (the deployment membership,
        not just locally attached daemons)."""
        return sorted(self.addresses)

    def send(self, message: Message) -> None:
        if self._closed:
            return
        data = frame.encode_frame(message)
        self.stats.record_send(message, len(data))
        for tap in self._taps:
            tap(message)
        if message.dst in self._handlers:
            # Local destination: loop back through the event loop
            # (delivery stays asynchronous, as over a wire) without
            # paying for a socket to ourselves.
            self.loop.call_soon(self._dispatch, message)
            return
        if message.dst not in self.addresses:
            self.stats.messages_dropped += 1
            return
        connection = self._connections.get(message.dst)
        if connection is None or connection.closed:
            connection = ServiceConnection(self, message.dst)
            self._connections[message.dst] = connection
        connection.enqueue(data)

    # --- Observation (same hooks as the simulator) ------------------------

    def tap(self, handler: MessageHandler) -> None:
        self._taps.append(handler)

    def tap_delivery(self, handler: MessageHandler) -> None:
        self._delivery_taps.append(handler)

    # --- Lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()
        for server in self._servers.values():
            server.close()
        self._servers.clear()
        for receiver in self._receivers:
            receiver.close()
        self._handlers.clear()

    async def aclose(self) -> None:
        """Close and wait for every socket to be released."""
        servers = list(self._servers.values())
        links = [*self._connections.values(), *self._receivers]
        self.close()
        for server in servers:
            try:
                await server.wait_closed()
            except Exception:
                logger.debug("server close raced with shutdown",
                             exc_info=True)
        await asyncio.gather(*(link.released for link in links))
