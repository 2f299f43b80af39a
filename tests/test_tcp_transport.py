"""Tests for the real-socket transport (repro.net.tcp / repro.net.frame).

Everything here runs over genuine localhost sockets: two transports
share one loop and one address book, so frames between them cross the
kernel.  Covered contracts:

- exact size accounting — ``frame.frame_size`` (and so
  ``stats.bytes_sent``) equals the bytes that actually hit the socket,
  for data-path and control-plane types alike;
- RPC timeout/retry — a request into a dead port retransmits per its
  :class:`~repro.net.rpc.RetryPolicy` and then fails with
  :class:`~repro.net.rpc.RpcTimeout`, exactly as over the simulator;
- detach semantics — sends to a dead peer drop silently (counted,
  never raised), and ``RpcEndpoint.shutdown`` fails every in-flight
  request cleanly;
- framing — :class:`~repro.net.tcp.FrameReceiver` fed the way asyncio
  feeds it (``get_buffer``/``buffer_updated``) delivers the same
  messages however the bytes are cut, grows for a big frame, and
  rejects a bad length prefix or corrupt body by closing that one
  connection (``stats.frames_rejected``);
- lifecycle — pre-connect frames keep their order, a restarted peer is
  reconnected by the next send, ``aclose`` releases every socket;
- back-pressure — a peer that stops reading costs the sender at most
  ``WRITE_HIGH_WATER`` + one frame; the rest is shed and counted.
"""

from __future__ import annotations

import asyncio
import gc
import warnings

import pytest

from repro.net import frame, tcp
from repro.net.aio import AsyncioRuntime
from repro.net.message import Message, MessageType
from repro.net.rpc import RetryPolicy, RpcEndpoint, RpcTimeout
from repro.net.tasks import Future
from repro.net.tcp import TcpTransport


@pytest.fixture()
def loopback():
    """Two transports (nodes 1 and 2) on one loop and shared book."""
    runtime = AsyncioRuntime()
    book = {}
    t1 = TcpTransport(book, runtime.loop)
    t2 = TcpTransport(book, runtime.loop)
    runtime.loop.run_until_complete(t1.listen(1))
    runtime.loop.run_until_complete(t2.listen(2))
    try:
        yield runtime, book, t1, t2
    finally:
        runtime.loop.run_until_complete(t1.aclose())
        runtime.loop.run_until_complete(t2.aclose())
        runtime.close()


def _drain_until(runtime: AsyncioRuntime, predicate, timeout: float = 5.0):
    """Run the loop until ``predicate()`` is true (or fail the test)."""
    fence = Future(label="fence")

    def poll() -> None:
        if predicate():
            fence.set_result(None)
        else:
            runtime.call_later(0.005, poll, label="poll")

    poll()
    runtime.run_future(fence, timeout=timeout)


class TestFrameRoundtrip:
    def test_hot_and_cold_types_cross_the_socket(self, loopback):
        runtime, _book, t1, t2 = loopback
        received = []
        t2.attach(2, received.append)

        hot = Message(MessageType.PAGE_DATA, src=1, dst=2,
                      payload={"address": 0x1000, "data": b"p" * 256})
        cold = Message(MessageType.APP_REPLY, src=1, dst=2,
                       payload={"snapshot": {"nested": [1, 2, 3]}},
                       reply_to=7)
        t1.send(hot)
        t1.send(cold)
        _drain_until(runtime, lambda: len(received) == 2)

        got_hot, got_cold = received
        assert got_hot.msg_type is MessageType.PAGE_DATA
        assert bytes(got_hot.payload["data"]) == b"p" * 256
        assert got_cold.msg_type is MessageType.APP_REPLY
        assert got_cold.payload == {"snapshot": {"nested": [1, 2, 3]}}
        assert got_cold.reply_to == 7

    def test_memoryview_payloads_cross_as_bytes(self, loopback):
        runtime, _book, t1, t2 = loopback
        received = []
        t2.attach(2, received.append)
        # Zero-copy reads hand out memoryviews; a control-plane frame
        # carries them as bytes like a data-path one does.
        msg = Message(MessageType.APP_REPLY, src=1, dst=2,
                      payload={"data": memoryview(b"z" * 64)})
        t1.send(msg)
        _drain_until(runtime, lambda: received)
        assert bytes(received[0].payload["data"]) == b"z" * 64


class TestExactSizes:
    def test_reported_size_equals_bytes_on_the_wire(self, loopback):
        runtime, _book, t1, t2 = loopback
        received = []
        t2.attach(2, received.append)

        messages = [
            Message(MessageType.PAGE_DATA, src=1, dst=2,
                    payload={"address": 0x2000, "data": b"q" * 512}),
            Message(MessageType.APP_REPLY, src=1, dst=2,
                    payload={"snapshot": {"k": list(range(40))}},
                    reply_to=3),
        ]
        before = t1.stats.bytes_sent
        for msg in messages:
            assert frame.frame_size(msg) == len(frame.encode_frame(msg))
            t1.send(msg)
        _drain_until(runtime, lambda: len(received) == 2)

        tap_measured = t1.stats.bytes_sent - before
        reported = sum(frame.frame_size(msg) for msg in messages)
        assert tap_measured == reported


class TestRpcOverTcp:
    def test_request_reply_roundtrip(self, loopback):
        runtime, _book, t1, t2 = loopback
        a = RpcEndpoint(1, t1, runtime)
        b = RpcEndpoint(2, t2, runtime)
        b.on(MessageType.APP_REQUEST,
             lambda msg: b.reply(msg, MessageType.APP_REPLY,
                                 {"echo": msg.payload["n"]}))
        reply = runtime.run_future(
            a.request(2, MessageType.APP_REQUEST, {"n": 17}),
            timeout=5.0,
        )
        assert reply.payload["echo"] == 17

    def test_timeout_and_retry_against_a_dead_port(self, loopback):
        runtime, book, t1, _t2 = loopback
        # Node 9 has a book entry but nothing listening there.
        book[9] = ("127.0.0.1", 1)
        a = RpcEndpoint(1, t1, runtime)
        policy = RetryPolicy(timeout=0.05, retries=1)
        with pytest.raises(RpcTimeout) as exc:
            runtime.run_future(
                a.request(9, MessageType.APP_REQUEST, {}, policy=policy),
                timeout=10.0,
            )
        # First send plus one retransmission, then the failure.
        assert exc.value.attempts == 2

    def test_send_to_dead_peer_drops_silently(self, loopback):
        runtime, book, t1, _t2 = loopback
        book[9] = ("127.0.0.1", 1)
        before = t1.stats.messages_dropped
        t1.send(Message(MessageType.APP_REQUEST, src=1, dst=9))
        _drain_until(runtime,
                     lambda: t1.stats.messages_dropped == before + 1)

    def test_send_to_unknown_node_drops_immediately(self, loopback):
        _runtime, _book, t1, _t2 = loopback
        before = t1.stats.messages_dropped
        t1.send(Message(MessageType.APP_REQUEST, src=1, dst=99))
        assert t1.stats.messages_dropped == before + 1

    def test_shutdown_fails_in_flight_requests(self, loopback):
        runtime, _book, t1, t2 = loopback
        a = RpcEndpoint(1, t1, runtime)
        b = RpcEndpoint(2, t2, runtime)
        b.on(MessageType.APP_REQUEST, lambda msg: None)   # never replies
        future = a.request(2, MessageType.APP_REQUEST, {},
                           policy=RetryPolicy(timeout=10.0, retries=0))
        runtime.call_later(0.05, a.shutdown, label="detach")
        with pytest.raises(RpcTimeout):
            runtime.run_future(future, timeout=5.0)

    def test_detached_node_stops_receiving(self, loopback):
        runtime, _book, t1, t2 = loopback
        received = []
        t2.attach(2, received.append)
        t2.detach(2)
        before_delivered = t2.stats.messages_delivered
        t1.send(Message(MessageType.APP_REQUEST, src=1, dst=2))
        # The frame either fails to connect (server closed) or arrives
        # with no handler attached; both count as a drop, not a crash.
        _drain_until(
            runtime,
            lambda: (t1.stats.messages_dropped
                     + t2.stats.messages_dropped) >= 1,
        )
        assert t2.stats.messages_delivered == before_delivered
        assert received == []


# --- Framing: FrameReceiver driven as asyncio drives it ----------------------


class _Wire:
    """Stands in for the accepted socket's asyncio transport."""

    def __init__(self, protocol: tcp.FrameReceiver) -> None:
        self.protocol = protocol
        self.aborted = False

    def abort(self) -> None:
        # As asyncio does it: the protocol hears on a later loop turn.
        if not self.aborted:
            self.aborted = True
            self.protocol.transport.loop.call_soon(
                self.protocol.connection_lost, None)


def _receiver(transport: TcpTransport):
    receiver = tcp.FrameReceiver(transport)
    wire = _Wire(receiver)
    receiver.connection_made(wire)
    return receiver, wire


def _feed(receiver, data: bytes, chunk: int) -> None:
    """Hand ``data`` over ``chunk`` bytes per read, through the
    BufferedProtocol calls the loop's read callback makes."""
    for offset in range(0, len(data), chunk):
        piece = data[offset:offset + chunk]
        while piece:
            room = receiver.get_buffer(-1)
            assert len(room) > 0, "asyncio refuses an empty buffer"
            taken = min(len(room), len(piece))
            room[:taken] = piece[:taken]
            receiver.buffer_updated(taken)
            piece = piece[taken:]


def _page(n: int, size: int = 32) -> Message:
    return Message(MessageType.PAGE_DATA, src=1, dst=2, request_id=n,
                   payload={"address": n, "data": bytes([n % 251]) * size})


def _bodies(messages):
    return [(m.request_id, bytes(m.payload["data"])) for m in messages]


class TestFraming:
    def test_any_cut_of_the_stream_delivers_the_same_messages(self, loopback):
        _runtime, _book, _t1, t2 = loopback
        sent = [_page(n, size=n * 37) for n in range(12)]
        sent.append(Message(MessageType.APP_REPLY, src=1, dst=2,
                            payload={"cold": ["pickled", 1]}, request_id=99))
        stream = b"".join(frame.encode_frame(m) for m in sent)
        for chunk in (1, 7, len(stream)):
            received = []
            t2.attach(2, received.append)
            receiver, _wire = _receiver(t2)
            _feed(receiver, stream, chunk)
            assert [m.request_id for m in received] == \
                [m.request_id for m in sent]
            assert _bodies(received[:-1]) == _bodies(sent[:-1])
            assert received[-1].payload == {"cold": ["pickled", 1]}
        assert t2.stats.frames_rejected == 0

    def test_a_big_frame_grows_the_buffer_and_small_ones_still_parse(
            self, loopback):
        _runtime, _book, _t1, t2 = loopback
        received = []
        t2.attach(2, received.append)
        receiver, _wire = _receiver(t2)
        assert len(receiver.get_buffer(-1)) == tcp.INITIAL_RECV_BYTES
        big = _page(1, size=3 * tcp.INITIAL_RECV_BYTES)
        sent = [_page(0), big, _page(2), _page(3)]
        _feed(receiver, b"".join(frame.encode_frame(m) for m in sent), 50_000)
        assert _bodies(received) == _bodies(sent)
        # Grown to that frame, not beyond, and kept.
        assert len(receiver.get_buffer(-1)) == len(frame.encode_frame(big))

    @pytest.mark.parametrize("length", [0, frame.MAX_FRAME_BYTES + 1])
    def test_a_bad_length_prefix_closes_the_connection(self, loopback, length):
        _runtime, _book, _t1, t2 = loopback
        received = []
        t2.attach(2, received.append)
        receiver, wire = _receiver(t2)
        _feed(receiver, frame.encode_frame(_page(1))
              + frame.LENGTH_PREFIX.pack(length) + b"trailing", 1 << 20)
        assert len(received) == 1
        assert wire.aborted
        assert t2.stats.frames_rejected == 1
        # The prefix was a claim, not an allocation request.
        assert len(receiver.get_buffer(-1)) <= tcp.INITIAL_RECV_BYTES

    def test_a_handler_closing_the_transport_mid_read_does_not_raise(
            self, loopback):
        _runtime, _book, _t1, t2 = loopback
        received = []

        def close_on_first(message: Message) -> None:
            received.append(message)
            t2.close()

        t2.attach(2, close_on_first)
        receiver, wire = _receiver(t2)
        _feed(receiver, frame.encode_frame(_page(1))
              + frame.encode_frame(_page(2)), 1 << 20)
        assert [m.request_id for m in received] == [1]
        assert wire.aborted

    def test_a_corrupt_body_costs_the_peer_that_connection_only(
            self, loopback):
        runtime, book, t1, t2 = loopback
        received = []
        t2.attach(2, received.append)
        closed = Future(label="peer-saw-close")

        class Peer(asyncio.Protocol):
            def connection_lost(self, exc):
                closed.set_result(None)

        async def connect():
            return await runtime.loop.create_connection(Peer, *book[2])

        wire, _peer = runtime.loop.run_until_complete(connect())
        good = frame.encode_frame(_page(1))
        # A codec header cut short: struct.error inside the decoder.
        wire.write(good + frame.LENGTH_PREFIX.pack(5) + b"\xc5\x02abc" + good)
        runtime.run_future(closed, timeout=5.0)
        assert [m.request_id for m in received] == [1]
        assert t2.stats.frames_rejected == 1
        # Other connections to the same transport carry on.
        t1.send(_page(7))
        _drain_until(runtime, lambda: len(received) == 2)
        assert received[-1].request_id == 7


class TestLifecycle:
    def test_frames_sent_before_the_connect_precede_frames_sent_after(
            self, loopback):
        runtime, _book, t1, t2 = loopback
        received = []
        t2.attach(2, received.append)
        for n in range(3):
            t1.send(_page(n))       # connect in flight: these queue
        assert received == []
        _drain_until(runtime, lambda: received)
        for n in range(3, 6):
            t1.send(_page(n))       # connected: direct writes
        _drain_until(runtime, lambda: len(received) == 6)
        assert [m.request_id for m in received] == list(range(6))
        assert t1.stats.messages_dropped == t1.stats.messages_shed == 0

    def test_a_restarted_peer_is_reconnected_by_the_next_send(self, loopback):
        runtime, book, t1, t2 = loopback
        received = []
        t2.attach(2, received.append)
        t1.send(_page(0))
        _drain_until(runtime, lambda: received)

        runtime.loop.run_until_complete(t2.aclose())
        _drain_until(runtime, lambda: t1._connections[2].closed)
        before = t1.stats.messages_dropped
        for n in range(1, 4):
            t1.send(_page(n))       # nobody listening: lost, and counted
        _drain_until(runtime,
                     lambda: t1.stats.messages_dropped == before + 3)

        reborn = TcpTransport(book, runtime.loop)
        try:
            port = book[2][1]
            assert runtime.loop.run_until_complete(reborn.listen(2)) == port
            reborn.attach(2, received.append)
            t1.send(_page(4))
            _drain_until(runtime, lambda: len(received) == 2)
            assert [m.request_id for m in received] == [0, 4]
            assert t1.stats.messages_dropped == before + 3
        finally:
            runtime.loop.run_until_complete(reborn.aclose())

    def test_aclose_releases_every_socket(self, caplog):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            runtime = AsyncioRuntime()
            book = {9: ("127.0.0.1", 1)}     # nothing listens there
            t1 = TcpTransport(book, runtime.loop)
            t2 = TcpTransport(book, runtime.loop)
            runtime.loop.run_until_complete(t1.listen(1))
            runtime.loop.run_until_complete(t2.listen(2))
            received = []
            t2.attach(2, received.append)
            t1.send(_page(1))
            _drain_until(runtime, lambda: received)
            runtime.loop.run_until_complete(t1.aclose())
            # t2 closes holding an accepted socket and two connects in
            # flight, and the loop goes away right behind it.
            t2.send(Message(MessageType.PAGE_DATA, src=2, dst=1))
            t2.send(Message(MessageType.PAGE_DATA, src=2, dst=9))
            runtime.loop.run_until_complete(t2.aclose())
            runtime.close()
            del t1, t2, runtime
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]
        # No task destroyed while pending, no exception never retrieved.
        assert [r for r in caplog.records if r.name == "asyncio"] == []


# --- Back-pressure: what a slow peer can make us hold -------------------------


class _Stalled(asyncio.Protocol):
    """Accepts, then leaves everything in the kernel until released."""

    def __init__(self) -> None:
        self.wire = None
        self.taken = 0

    def connection_made(self, wire) -> None:
        self.wire = wire
        wire.pause_reading()

    def data_received(self, data: bytes) -> None:
        self.taken += len(data)


class TestBackPressure:
    BOUND = 256 * 1024

    @pytest.fixture(autouse=True)
    def small_bound(self, monkeypatch):
        monkeypatch.setattr(tcp, "WRITE_HIGH_WATER", self.BOUND)

    def test_a_peer_that_never_reads_is_bounded_and_shed(self, loopback):
        runtime, book, t1, t2 = loopback
        received = []
        t2.attach(2, received.append)
        stalled = _Stalled()

        async def serve():
            return await runtime.loop.create_server(
                lambda: stalled, "127.0.0.1", 0)

        server = runtime.loop.run_until_complete(serve())
        book[3] = server.sockets[0].getsockname()[:2]
        big = Message(MessageType.PAGE_DATA, src=1, dst=3,
                      payload={"data": b"s" * 65536})
        size = len(frame.encode_frame(big))
        try:
            t1.send(big)
            _drain_until(runtime, lambda: stalled.wire is not None)
            link = t1._connections[3]
            # Kernel socket buffers fill first, then ours, then we shed.
            for _ in range(4000):
                t1.send(big)
                assert link.buffered_bytes <= self.BOUND + size
                if t1.stats.messages_shed >= 5:
                    break
            assert t1.stats.messages_shed >= 5
            assert link.buffered_bytes > self.BOUND
            assert not link.closed and t1.stats.messages_dropped == 0

            # A second peer is a second buffer: unaffected.
            shed = t1.stats.messages_shed
            t1.send(_page(1))
            _drain_until(runtime, lambda: received)
            assert t1.stats.messages_shed == shed

            # Once the peer reads, the buffer drains and sends flow.
            stalled.wire.resume_reading()
            _drain_until(runtime, lambda: link.buffered_bytes == 0)
            t1.send(big)
            assert t1.stats.messages_shed == shed
            # Every frame not shed arrives whole (our buffer being empty
            # does not mean the kernel's is: wait on the total).
            accepted = t1.stats.by_type["page_data"] - 1 - shed
            _drain_until(runtime, lambda: stalled.taken == accepted * size)
        finally:
            server.close()
            if stalled.wire is not None:
                stalled.wire.close()

    def test_the_pre_connect_queue_has_the_same_bound(self, loopback):
        runtime, _book, t1, t2 = loopback
        received = []
        t2.attach(2, received.append)
        big = Message(MessageType.PAGE_DATA, src=1, dst=2,
                      payload={"data": b"q" * 65536})
        size = len(frame.encode_frame(big))
        for _ in range(12):
            t1.send(big)            # the loop has not run: all pre-connect
        link = t1._connections[2]
        kept = 12 - t1.stats.messages_shed
        assert self.BOUND < link.buffered_bytes <= self.BOUND + size
        assert link.buffered_bytes == kept * size
        _drain_until(runtime, lambda: len(received) == kept)
        assert t1.stats.messages_dropped == 0
