"""Tests for the MessageRouter interceptor chain.

Duplicate suppression, interceptor ordering, latency accounting, and
error-reply classification — the dispatch behaviour every wire route
inherits, tested directly against hand-crafted messages rather than
through full client operations.
"""

import asyncio
import time

import pytest

from repro.api import create_cluster
from repro.core.router import (
    Interceptor,
    REPLY_CACHE_BYTES,
    REPLY_CACHE_LIMIT,
    Route,
)
from repro.net.message import Message, MessageType
from repro.net.rpc import RemoteError
from repro.tools.cluster import node_config
from tests.test_session_driver import tcp_sessions  # noqa: F401  (fixture)


class Recorder(Interceptor):
    """Test middleware: logs its position, optionally drops."""

    def __init__(self, router, log, tag, drop=False):
        super().__init__(router)
        self.log = log
        self.tag = tag
        self.drop = drop

    def handle(self, msg, route, proceed):
        self.log.append(self.tag)
        if not self.drop:
            proceed()


class TestDedup:
    def test_duplicate_of_answered_request_resends_cached_reply(
        self, cluster
    ):
        daemon = cluster.daemon(2)
        calls = []

        def handler(msg):
            calls.append(msg)
            daemon.reply_request(msg, MessageType.PONG, {"n": len(calls)})

        daemon.rpc.on(MessageType.PING, daemon.router.dedup(handler))
        replies = []
        cluster.network.attach(1, lambda m: replies.append(m))
        for _ in range(3):
            cluster.network.send(
                Message(MessageType.PING, src=1, dst=2, request_id=99)
            )
            cluster.run(0.1)
        assert len(calls) == 1
        assert len(replies) == 3
        assert all(r.payload == {"n": 1} for r in replies)

    def test_message_without_request_id_is_never_deduplicated(self, cluster):
        daemon = cluster.daemon(2)
        calls = []
        daemon.rpc.on(MessageType.PING, daemon.router.dedup(calls.append))
        for _ in range(3):
            cluster.network.send(Message(MessageType.PING, src=1, dst=2))
        cluster.run(0.1)
        assert len(calls) == 3

    def test_non_dedup_route_runs_handler_every_time(self, cluster):
        daemon = cluster.daemon(2)
        calls = []
        route = Route(msg_type=None, handler=calls.append, dedup=False)
        daemon.rpc.on(MessageType.PING,
                      lambda msg: daemon.router.dispatch(route, msg))
        for _ in range(2):
            cluster.network.send(
                Message(MessageType.PING, src=1, dst=2, request_id=7)
            )
        cluster.run(0.1)
        assert len(calls) == 2

    def test_reply_cache_is_bounded(self, cluster):
        daemon = cluster.daemon(2)

        def handler(msg):
            daemon.reply_request(msg, MessageType.PONG, {})

        daemon.rpc.on(MessageType.PING, daemon.router.dedup(handler))
        for rid in range(REPLY_CACHE_LIMIT + 50):
            cluster.network.send(
                Message(MessageType.PING, src=1, dst=2, request_id=rid)
            )
        cluster.run(1.0)
        assert len(daemon.router.reply_cache) <= REPLY_CACHE_LIMIT

    def test_reply_cache_is_bounded_by_page_bytes(self, cluster):
        """Replies that carry pages are forgotten oldest-first once their
        page bytes pass the budget; a retransmit of a recent request is
        still answered from the cache, not served twice."""
        daemon = cluster.daemon(2)
        router = daemon.router
        body = b"p" * (REPLY_CACHE_BYTES // 8)
        calls = []

        def handler(msg):
            calls.append((msg.src, msg.request_id))
            daemon.reply_request(msg, MessageType.PONG, {
                "pages": [{"page": msg.request_id, "data": body}],
                "errors": [],
            })

        daemon.rpc.on(MessageType.PING, router.dedup(handler))
        replies = []
        cluster.network.attach(1, lambda m: replies.append(m))
        for rid in range(1, 25):
            cluster.network.send(
                Message(MessageType.PING, src=1, dst=2, request_id=rid)
            )
        cluster.run(1.0)
        assert 0 < router.reply_cache_bytes <= REPLY_CACHE_BYTES
        assert router.reply_cache_bytes == sum(
            len(item["data"]) for reply in router.reply_cache.values()
            if reply is not None for item in reply.payload.get("pages", ()))
        assert (1, 1) not in router.reply_cache     # the oldest went first
        cluster.network.send(
            Message(MessageType.PING, src=1, dst=2, request_id=24)
        )
        cluster.run(0.1)
        assert calls.count((1, 24)) == 1
        assert replies[-1].payload["pages"][0]["page"] == 24


class TestInterceptorOrdering:
    def test_inserted_recorders_run_in_list_order_before_handler(
        self, cluster
    ):
        daemon = cluster.daemon(2)
        log = []
        router = daemon.router
        router.interceptors.insert(0, Recorder(router, log, "first"))
        router.interceptors.append(Recorder(router, log, "last"))
        daemon.rpc.on(
            MessageType.PING,
            router.dedup(lambda msg: log.append("handler")),
        )
        cluster.network.send(
            Message(MessageType.PING, src=1, dst=2, request_id=1)
        )
        cluster.run(0.1)
        assert log == ["first", "last", "handler"]

    def test_dedup_drop_stops_later_stages(self, cluster):
        """A duplicate dropped by the dedup stage must not reach
        interceptors (or the handler) further down the chain."""
        daemon = cluster.daemon(2)
        log = []
        router = daemon.router
        router.interceptors.append(Recorder(router, log, "late"))
        daemon.rpc.on(
            MessageType.PING,
            router.dedup(lambda msg: log.append("handler")),
        )
        for _ in range(2):
            cluster.network.send(
                Message(MessageType.PING, src=1, dst=2, request_id=5)
            )
        cluster.run(0.1)
        assert log == ["late", "handler"]   # second transmission dropped

    def test_dropping_interceptor_suppresses_dispatch(self, cluster):
        daemon = cluster.daemon(2)
        log = []
        router = daemon.router
        router.interceptors.insert(
            0, Recorder(router, log, "gate", drop=True)
        )
        daemon.rpc.on(
            MessageType.PING,
            router.dedup(lambda msg: log.append("handler")),
        )
        cluster.network.send(
            Message(MessageType.PING, src=1, dst=2, request_id=1)
        )
        cluster.run(0.1)
        assert log == ["gate"]


class TestLatencyAccounting:
    def test_reply_records_virtual_clock_latency_under_op_name(
        self, cluster
    ):
        daemon = cluster.daemon(2)

        def handler(msg):
            def task():
                yield daemon.sleep(0.25)
                daemon.reply_request(msg, MessageType.PONG, {})

            daemon.spawn(task(), label="slow-pong")

        daemon.rpc.on(MessageType.PING, daemon.router.dedup(handler))
        cluster.network.send(
            Message(MessageType.PING, src=1, dst=2, request_id=11)
        )
        cluster.run(1.0)
        lat = daemon.stats.op_latency[MessageType.PING.value]
        assert lat.count == 1
        assert lat.mean == pytest.approx(0.25)
        assert lat.max == pytest.approx(0.25)
        # The reply stopped this request's timer (the failure
        # detector's own heartbeat pings may still be in flight).
        assert (1, 11) not in daemon.router.inflight

    def test_error_reply_also_stops_the_timer(self, cluster):
        daemon = cluster.daemon(2)

        def handler(msg):
            daemon.reply_error(msg, "lock_denied", "no")

        daemon.rpc.on(MessageType.PING, daemon.router.dedup(handler))
        cluster.network.send(
            Message(MessageType.PING, src=1, dst=2, request_id=12)
        )
        cluster.run(0.1)
        assert daemon.stats.op_latency[MessageType.PING.value].count == 1
        assert (1, 12) not in daemon.router.inflight

    def test_unanswered_request_leaves_no_latency_record(self, cluster):
        daemon = cluster.daemon(2)
        daemon.rpc.on(MessageType.PING,
                      daemon.router.dedup(lambda msg: None))
        cluster.network.send(
            Message(MessageType.PING, src=1, dst=2, request_id=13)
        )
        cluster.run(0.1)
        assert MessageType.PING.value not in daemon.stats.op_latency
        assert (1, 13) in daemon.router.inflight


class TestErrorReplyClassification:
    def test_cm_route_for_unknown_region_naks_region_not_found(
        self, cluster
    ):
        daemon1 = cluster.daemon(1)
        future = daemon1.rpc.request(
            2, MessageType.PAGE_FETCH, {"rid": 0xDEAD000}
        )
        with pytest.raises(RemoteError) as info:
            cluster.driver.wait(future)
        assert info.value.code == "region_not_found"

    def test_khazana_error_in_handler_task_keeps_its_code(self, cluster):
        from repro.core.errors import LockDenied

        daemon2 = cluster.daemon(2)

        def handler(msg):
            def task():
                raise LockDenied("router test says no")
                yield  # pragma: no cover

            daemon2.spawn_handler(msg, task(), label="nak")

        daemon2.rpc.on(MessageType.PING, daemon2.router.dedup(handler))
        future = cluster.daemon(1).rpc.request(2, MessageType.PING, {})
        with pytest.raises(RemoteError) as info:
            cluster.driver.wait(future)
        assert info.value.code == "lock_denied"

    def test_foreign_exception_becomes_generic_khazana_error(self, cluster):
        daemon2 = cluster.daemon(2)

        def handler(msg):
            def task():
                raise ValueError("router test bug")
                yield  # pragma: no cover

            daemon2.spawn_handler(msg, task(), label="crash")

        daemon2.rpc.on(MessageType.PING, daemon2.router.dedup(handler))
        future = cluster.daemon(1).rpc.request(2, MessageType.PING, {})
        with pytest.raises(RemoteError) as info:
            cluster.driver.wait(future)
        assert info.value.code == "khazana_error"


#: A request id far above any a node's own RPC endpoint reaches.
BAD_LOOKUP = 1 << 40


def _lookups(sessions, settle):
    """Node 0 sends node 1 a ``region_lookup`` with no address, the
    same request again (a retransmit), then a valid lookup of a region
    node 1 homes; returns node 1's answers and its kernel."""
    home = sessions[1].daemon
    desc = sessions[1].reserve(4096)
    answers = []
    home.network.tap(lambda m: m.src == 1 and m.dst == 0
                     and m.reply_to in (BAD_LOOKUP, BAD_LOOKUP + 1)
                     and answers.append(m))
    sends = ((BAD_LOOKUP, {}), (BAD_LOOKUP, {}),
             (BAD_LOOKUP + 1, {"address": desc.rid}))
    for count, (request_id, payload) in enumerate(sends, start=1):
        sessions[0].daemon.network.send(Message(
            MessageType.REGION_LOOKUP, src=0, dst=1,
            request_id=request_id, payload=payload))
        settle(lambda: len(answers) >= count)
    return answers, home, desc


class TestHandlerFailure:
    """A synchronous handler that raises NAKs its request on both
    runtimes: the NAK is cached for retransmits, and the node goes on
    serving."""

    def _check(self, answers, home, desc):
        assert [m.msg_type for m in answers] == [
            MessageType.ERROR, MessageType.ERROR,
            MessageType.REGION_LOOKUP_REPLY]
        assert answers[0].payload["code"] == "bad_request"
        assert answers[1].payload == answers[0].payload
        assert answers[2].payload["descriptor"]["start"] == desc.rid
        assert home.router.reply_cache[(0, BAD_LOOKUP)] is not None
        assert home.stats.requests_rejected == 1

    def test_sim(self):
        cluster = create_cluster(num_nodes=2, config=node_config())
        try:
            sessions = [cluster.client(node=0), cluster.client(node=1)]
            self._check(*_lookups(sessions, lambda _done: cluster.run(0.1)))
        finally:
            cluster.shutdown()

    def test_asyncio(self, tcp_sessions):  # noqa: F811
        sessions, _entered = tcp_sessions
        loop = sessions[0].driver.runtime.loop

        def settle(done):
            deadline = time.monotonic() + 5.0
            while not done() and time.monotonic() < deadline:
                loop.run_until_complete(asyncio.sleep(0.01))

        self._check(*_lookups(sessions, settle))
