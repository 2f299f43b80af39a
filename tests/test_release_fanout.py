"""A home's fan-out reaches each replica site in one UPDATE_PUSH.

When a release lands at the home (a remote writer's push, or the
home's own release) and when eventual's anti-entropy tick runs, the
updated pages go to every replica site in one one-way push per site,
carrying exactly the pages that site replicates — the page count of a
release sets the size of a push, never the number of pushes.
"""

from __future__ import annotations

import asyncio
import time

from repro.api import create_cluster
from repro.consistency.eventual import ANTI_ENTROPY_PERIOD
from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.kernel import DaemonConfig
from repro.core.locks import LockMode
from repro.net.message import MessageType
from repro.tools.cluster import node_config
from tests.test_session_driver import tcp_sessions  # noqa: F401  (fixture)

PAGE = 4096
PAGES = 8


def _cluster(num_nodes):
    return create_cluster(num_nodes=num_nodes, config=DaemonConfig(
        enable_failure_handling=False))


def _home_region(session, level, pages=PAGES):
    desc = session.reserve(pages * PAGE,
                           RegionAttributes(consistency_level=level))
    session.allocate(desc.rid)
    assert desc.primary_home == session.daemon.node_id
    return desc


def _pushes_from(cluster, src):
    """Record every UPDATE_PUSH ``src`` sends as (dst, [page, ...])."""
    sent = []

    def tap(msg):
        if msg.msg_type is MessageType.UPDATE_PUSH and msg.src == src:
            sent.append((msg.dst, [u["page"] for u in msg.payload["updates"]]))

    cluster.network.tap(tap)
    return sent


def _write_all(session, desc, fill):
    ctx = session.lock(desc.rid, PAGES * PAGE, LockMode.WRITE)
    session.write(ctx, desc.rid, fill)
    session.unlock(ctx)


def test_remote_writer_release_is_one_push_to_the_home_and_one_per_replica():
    cluster = _cluster(3)
    try:
        desc = _home_region(cluster.client(node=0), ConsistencyLevel.RELEASE)
        reader = cluster.client(node=2)
        assert reader.read_at(desc.rid, PAGES * PAGE) == bytes(PAGES * PAGE)
        cluster.run(1.0)
        before = cluster.stats.snapshot()
        _write_all(cluster.client(node=1), desc, b"n" * (PAGES * PAGE))
        cluster.run(1.0)
        pushes = cluster.stats.delta_since(before).count(
            MessageType.UPDATE_PUSH)
        assert pushes == 2   # writer -> home, home -> node 2
        assert reader.read_at(desc.rid, PAGES * PAGE) == b"n" * (PAGES * PAGE)
    finally:
        cluster.shutdown()


def test_each_replica_site_gets_only_the_pages_it_replicates():
    cluster = _cluster(4)
    try:
        desc = _home_region(cluster.client(node=0), ConsistencyLevel.RELEASE)
        half = PAGES // 2 * PAGE
        cluster.client(node=2).read_at(desc.rid, half)
        cluster.client(node=3).read_at(desc.rid + half, half)
        cluster.run(1.0)
        sent = _pushes_from(cluster, src=0)
        _write_all(cluster.client(node=1), desc, b"c" * (PAGES * PAGE))
        cluster.run(1.0)
        pages = [desc.rid + i * PAGE for i in range(PAGES)]
        assert sent == [(2, pages[:4]), (3, pages[4:])]
        assert cluster.client(node=3).read_at(desc.rid + half, 4) == b"cccc"
    finally:
        cluster.shutdown()


def _replica_view(sessions, deliveries, until):
    """Node 0 homes a release region and node 1 replicates it; node 0
    then writes every page under one lock.  Returns node 1's bytes once
    ``until()`` has let the fan-out arrive."""
    home, replica = sessions
    desc = _home_region(home, ConsistencyLevel.RELEASE)
    replica.read_at(desc.rid, PAGES * PAGE)
    deliveries.clear()
    _write_all(home, desc, bytes(range(256)) * (PAGES * PAGE // 256))
    until()
    return bytes(replica.read_at(desc.rid, PAGES * PAGE))


def test_home_local_release_reaches_a_tcp_replica_in_one_push(tcp_sessions):
    sessions, _entered = tcp_sessions
    pushes = []
    sessions[1].daemon.network.tap_delivery(
        lambda msg: msg.msg_type is MessageType.UPDATE_PUSH
        and pushes.append(len(msg.payload["updates"])))
    loop = sessions[0].driver.runtime.loop

    def delivered():
        deadline = time.monotonic() + 5.0
        while not pushes and time.monotonic() < deadline:
            loop.run_until_complete(asyncio.sleep(0.01))

    observed = _replica_view(sessions, pushes, delivered)
    assert pushes == [PAGES]
    sim = create_cluster(num_nodes=2, config=node_config())
    try:
        expected = _replica_view([sim.client(node=0), sim.client(node=1)],
                                 [], lambda: sim.run(1.0))
    finally:
        sim.shutdown()
    assert observed == expected == bytes(range(256)) * (PAGES * PAGE // 256)


def test_eventual_tick_sends_one_push_per_sharer():
    cluster = _cluster(3)
    try:
        home = cluster.client(node=0)
        desc = _home_region(home, ConsistencyLevel.EVENTUAL, pages=4)
        for node in (1, 2):
            cluster.client(node=node).read_at(desc.rid, 4 * PAGE)
        cluster.run(2 * ANTI_ENTROPY_PERIOD)
        sent = _pushes_from(cluster, src=0)
        home.write_at(desc.rid, b"e" * (4 * PAGE))
        cluster.run(2 * ANTI_ENTROPY_PERIOD)
        pages = [desc.rid + i * PAGE for i in range(4)]
        assert sorted(sent) == [(1, pages), (2, pages)]
    finally:
        cluster.shutdown()
