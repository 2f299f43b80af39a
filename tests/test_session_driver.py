"""The session → driver contract on both runtimes.

A synchronous session call runs one protocol task.  When ``spawn``
already finished it (every page it touches is held here), the result
comes back without entering the driver; only a task still waiting for a
message or a timer is handed to ``driver.wait`` — on TCP, one
``AsyncioRuntime.run_future``.  The sim and the asyncio backend must
agree on the bytes and on the error a failing task raises.
"""

from __future__ import annotations

import pytest

from repro.api import create_cluster
from repro.core.client import KhazanaSession
from repro.core.errors import InvalidRange
from repro.net.aio import AsyncioDriver, AsyncioRuntime
from repro.net.tasks import Future
from repro.tools.cluster import build_node, node_config

PAGE = 4096


@pytest.fixture()
def tcp_sessions():
    """Two in-process asyncio nodes on one loop; yields a session on
    each and the list of ``run_future`` calls made through them."""
    book, runtimes, daemons = {}, [], []
    loop = None
    for node in (0, 1):
        runtime, daemon = build_node(node, book,
                                     runtime=AsyncioRuntime(loop))
        loop = runtime.loop
        runtimes.append(runtime)
        daemons.append(daemon)
    entered = []
    for runtime in runtimes:
        inner = runtime.run_future

        def counting(future, timeout=None, inner=inner):
            entered.append(future.label)
            return inner(future, timeout)

        runtime.run_future = counting
    try:
        for daemon in daemons:
            daemon.bootstrap_system_region(peers=[0, 1])
        yield [KhazanaSession(daemon, AsyncioDriver(runtime, timeout=10.0))
               for runtime, daemon in zip(runtimes, daemons)], entered
    finally:
        for daemon in daemons:
            daemon.stop()

        async def shutdown():
            for daemon in daemons:
                await daemon.network.aclose()

        loop.run_until_complete(shutdown())
        loop.close()


@pytest.fixture()
def sim_sessions():
    cluster = create_cluster(num_nodes=2, config=node_config())
    yield [cluster.client(node=0), cluster.client(node=1)]
    cluster.shutdown()


def _local_round_trip(session):
    """Reserve two pages on the session's own node; return the region
    and what a write_at/read_at pair there observes."""
    desc = session.reserve(2 * PAGE)
    session.allocate(desc.rid)
    session.write_at(desc.rid + PAGE - 3, b"straddles a page")
    return desc, bytes(session.read_at(desc.rid + PAGE - 8, 24))


def test_local_read_at_and_write_at_stay_out_of_the_loop(tcp_sessions,
                                                         sim_sessions):
    sessions, entered = tcp_sessions
    desc = sessions[0].reserve(2 * PAGE)
    sessions[0].allocate(desc.rid)
    entered.clear()
    sessions[0].write_at(desc.rid + PAGE - 3, b"straddles a page")
    observed = bytes(sessions[0].read_at(desc.rid + PAGE - 8, 24))
    assert entered == []
    _sim_desc, expected = _local_round_trip(sim_sessions[0])
    assert observed == expected == (
        b"\x00" * 5 + b"straddles a page" + b"\x00" * 3)


def test_a_call_that_must_wait_enters_the_loop_once(tcp_sessions,
                                                    sim_sessions):
    sessions, entered = tcp_sessions
    desc, _ = _local_round_trip(sessions[0])
    entered.clear()
    observed = bytes(sessions[1].read_at(desc.rid + PAGE - 3, 16))
    assert observed == b"straddles a page"
    assert entered == ["n1:read_at"]
    sim_desc, _ = _local_round_trip(sim_sessions[0])
    assert bytes(sim_sessions[1].read_at(sim_desc.rid + PAGE - 3, 16)) \
        == observed


def test_a_task_failing_inside_spawn_raises_the_same_error(tcp_sessions,
                                                           sim_sessions):
    tcp, entered = tcp_sessions
    raised = []
    for session in (tcp[0], sim_sessions[0]):
        desc = session.reserve(PAGE)
        session.allocate(desc.rid)
        entered.clear()
        with pytest.raises(InvalidRange) as caught:
            session.read_at(desc.rid + PAGE - 8, 16)   # past the region
        raised.append((type(caught.value), list(entered)))
    assert raised == [(InvalidRange, [])] * 2


async def _one_turn() -> None:
    return None


class TestRunFutureDeadline:
    def test_unresolved_future_times_out_and_leaves_no_timer(self):
        runtime = AsyncioRuntime()
        try:
            never = Future(label="never")
            with pytest.raises(TimeoutError, match="0.05s"):
                runtime.run_future(never, timeout=0.05)
            never.set_result("too late")   # ignored: the mirror has failed
            runtime.loop.run_until_complete(_one_turn())
            assert runtime.loop._scheduled == []
        finally:
            runtime.close()

    def test_resolution_cancels_the_deadline(self):
        runtime = AsyncioRuntime()
        try:
            future = Future(label="soon")
            runtime.call_soon(lambda: future.set_result(7), label="fire")
            assert runtime.run_future(future, timeout=30.0) == 7
            assert all(h.cancelled() for h in runtime.loop._scheduled)
            # The next loop turn drops the cancelled deadline outright.
            runtime.loop.run_until_complete(_one_turn())
            assert runtime.loop._scheduled == []
        finally:
            runtime.close()
