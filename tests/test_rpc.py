"""Tests for the RPC layer: matching, retries, timeouts, NAKs."""

import pytest

from repro.net.clock import EventScheduler
from repro.net.message import Message, MessageType
from repro.net.rpc import RemoteError, RetryPolicy, RpcEndpoint, RpcTimeout
from repro.net.sim import SimNetwork, Topology


def make_pair(topology=None, seed=0):
    sched = EventScheduler()
    net = SimNetwork(sched, topology, seed=seed)
    a = RpcEndpoint(1, net, sched)
    b = RpcEndpoint(2, net, sched)
    return sched, net, a, b


class TestRequestReply:
    def test_roundtrip(self):
        sched, _net, a, b = make_pair()
        b.on(MessageType.PING, lambda m: b.reply(m, MessageType.PONG,
                                                 {"echo": m.payload["x"]}))
        future = a.request(2, MessageType.PING, {"x": 7})
        sched.run_until_idle()
        assert future.result().payload["echo"] == 7

    def test_error_reply_becomes_remote_error(self):
        sched, _net, a, b = make_pair()
        b.on(MessageType.PING, lambda m: b.reply_error(m, "lock_denied", "no"))
        future = a.request(2, MessageType.PING)
        sched.run_until_idle()
        with pytest.raises(RemoteError) as info:
            future.result()
        assert info.value.code == "lock_denied"

    def test_unhandled_type_naks(self):
        sched, _net, a, _b = make_pair()
        future = a.request(2, MessageType.PAGE_FETCH, {})
        sched.run_until_idle()
        with pytest.raises(RemoteError) as info:
            future.result()
        assert info.value.code == "unhandled"

    def test_concurrent_requests_match_correctly(self):
        sched, _net, a, b = make_pair()
        b.on(MessageType.PING,
             lambda m: b.reply(m, MessageType.PONG, {"v": m.payload["v"]}))
        futures = [a.request(2, MessageType.PING, {"v": i}) for i in range(10)]
        sched.run_until_idle()
        assert [f.result().payload["v"] for f in futures] == list(range(10))


class TestTimeoutsAndRetries:
    def test_timeout_after_retries(self):
        sched, net, a, _b = make_pair()
        net.detach(2)
        policy = RetryPolicy(timeout=0.1, retries=2, backoff=2.0)
        future = a.request(2, MessageType.PING, policy=policy)
        sched.run_until_idle()
        with pytest.raises(RpcTimeout) as info:
            future.result()
        assert info.value.attempts == 3
        # messages: 1 original + 2 retransmissions, all dropped
        assert net.stats.messages_dropped == 3

    def test_retransmission_recovers_from_loss(self):
        sched, _net, a, b = make_pair(Topology.lan(loss=0.4), seed=7)
        b.on(MessageType.PING, lambda m: b.reply(m, MessageType.PONG, {}))
        policy = RetryPolicy(timeout=0.05, retries=10, backoff=1.0)
        futures = [a.request(2, MessageType.PING, policy=policy)
                   for _ in range(20)]
        sched.run_until_idle()
        assert all(f.result() is not None for f in futures)

    def test_late_duplicate_reply_ignored(self):
        sched, _net, a, b = make_pair()
        replies = []

        def handler(m):
            # Reply twice: the second must be dropped by the requester.
            b.reply(m, MessageType.PONG, {"n": 1})
            b.reply(m, MessageType.PONG, {"n": 2})

        b.on(MessageType.PING, handler)
        future = a.request(2, MessageType.PING)
        sched.run_until_idle()
        assert future.result().payload["n"] == 1

    def test_backoff_schedule(self):
        policy = RetryPolicy(timeout=1.0, retries=3, backoff=2.0)
        assert policy.attempt_timeout(0) == 1.0
        assert policy.attempt_timeout(1) == 2.0
        assert policy.attempt_timeout(2) == 4.0


class TestShutdown:
    def test_shutdown_fails_pending(self):
        sched, net, a, _b = make_pair()
        net.detach(2)
        future = a.request(2, MessageType.PING)
        a.shutdown()
        assert isinstance(future.exception(), RpcTimeout)

    def test_request_after_shutdown_fails_at_once(self):
        sched, net, a, _b = make_pair()
        a.shutdown()
        future = a.request(2, MessageType.PING)
        assert isinstance(future.exception(), RpcTimeout)
        sched.run_until_idle()
        assert net.stats.messages_sent == 0

    def test_shutdown_detaches(self):
        sched, net, a, b = make_pair()
        a.shutdown()
        b.send(Message(MessageType.PING, src=2, dst=1))
        sched.run_until_idle()
        assert net.stats.messages_dropped == 1
