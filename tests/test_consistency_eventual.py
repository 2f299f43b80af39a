"""Tests for the bounded-staleness protocol (paper Section 3.3's
planned relaxed model for web caches and query engines)."""

import pytest

from repro.api import create_cluster
from repro.consistency.eventual import DEFAULT_STALENESS_BOUND
from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.kernel import DaemonConfig
from repro.net.message import Message, MessageType


def make_region(cluster, node=1, size=4096, **kwargs):
    kz = cluster.client(node=node)
    attrs = RegionAttributes(
        consistency_level=ConsistencyLevel.EVENTUAL, **kwargs
    )
    desc = kz.reserve(size, attrs)
    kz.allocate(desc.rid)
    return kz, desc


class TestStaleness:
    def test_fresh_replica_served_without_messages(self, cluster):
        kz1, desc = make_region(cluster)
        kz1.write_at(desc.rid, b"cached")
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 6)
        before = cluster.stats.snapshot()
        kz3.read_at(desc.rid, 6)   # within the staleness bound
        delta = cluster.stats.delta_since(before)
        assert delta.count(MessageType.PAGE_FETCH) == 0

    def test_stale_replica_refreshed_after_bound(self, cluster):
        kz1, desc = make_region(cluster)
        kz1.write_at(desc.rid, b"v1")
        kz3 = cluster.client(node=3)
        assert kz3.read_at(desc.rid, 2) == b"v1"
        kz1.write_at(desc.rid, b"v2")
        # Do NOT run long enough for anti-entropy fanout... instead
        # exceed the staleness bound so the next read refreshes.
        cluster.run(DEFAULT_STALENESS_BOUND + 0.1)
        assert kz3.read_at(desc.rid, 2) == b"v2"

    def test_reads_can_be_stale_within_bound(self, cluster):
        """The whole point: 'data that is temporarily out-of-date ...
        as long as they get fast response'."""
        kz1, desc = make_region(cluster)
        kz1.write_at(desc.rid, b"v1")
        kz3 = cluster.client(node=3)
        assert kz3.read_at(desc.rid, 2) == b"v1"
        kz1.write_at(desc.rid, b"v2")
        # Immediately after the remote write, the replica may serve v1.
        got = kz3.read_at(desc.rid, 2)
        assert got in (b"v1", b"v2")

    def test_anti_entropy_converges_replicas(self, cluster):
        kz1, desc = make_region(cluster)
        kz1.write_at(desc.rid, b"v1")
        readers = [cluster.client(node=n) for n in (0, 2, 3)]
        for reader in readers:
            reader.read_at(desc.rid, 2)   # everyone replicates
        kz1.write_at(desc.rid, b"v9")
        cluster.run(5.0)   # several anti-entropy ticks
        for node in (0, 2, 3):
            page = cluster.daemon(node).storage.peek(desc.rid)
            assert page is not None and page.data[:2] == b"v9"


class TestConflicts:
    def test_last_writer_wins_convergence(self, cluster):
        kz1, desc = make_region(cluster, node=1)
        kz2 = cluster.client(node=2)
        kz1.write_at(desc.rid, b"from-1")
        kz2.write_at(desc.rid, b"from-2")
        cluster.run(5.0)
        values = set()
        for node in (1, 2, 3):
            values.add(cluster.client(node=node).read_at(desc.rid, 6))
        assert values == {b"from-2"}   # the later write won everywhere

    def test_concurrent_writers_never_deadlock(self, cluster):
        kz1, desc = make_region(cluster, node=1)
        kz2 = cluster.client(node=2)
        for i in range(5):
            kz1.write_at(desc.rid, f"a{i}".encode())
            kz2.write_at(desc.rid, f"b{i}".encode())
        cluster.run(5.0)
        final = {cluster.client(node=n).read_at(desc.rid, 2)
                 for n in (0, 1, 2, 3)}
        assert len(final) == 1   # converged


class TestAvailability:
    def test_stale_read_served_when_home_down(self, cluster):
        kz1, desc = make_region(cluster)
        kz1.write_at(desc.rid, b"survivor")
        kz3 = cluster.client(node=3)
        assert kz3.read_at(desc.rid, 8) == b"survivor"
        cluster.crash(1)   # the region's home dies
        cluster.run(DEFAULT_STALENESS_BOUND + 1.0)
        # Refresh fails, but the stale replica is served anyway.
        assert kz3.read_at(desc.rid, 8) == b"survivor"

    def test_writes_queue_while_home_down(self, cluster):
        kz1, desc = make_region(cluster)
        kz1.write_at(desc.rid, b"before")
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 6)
        cluster.crash(1)
        cluster.run(0.5)
        kz3.write_at(desc.rid, b"during")   # push will fail, queue
        assert kz3.read_at(desc.rid, 6) == b"during"   # local view
        cluster.recover(1)
        cluster.run(40.0)   # background retry drains
        page = cluster.daemon(1).storage.peek(desc.rid)
        assert page is not None and page.data[:6] == b"during"


class TestUpdatePushFailover:
    def test_secondary_home_naks_misrouted_update_push(self, cluster):
        """Same failover hole as the release protocol: a writer's
        push request that misses the primary home must be refused
        with a nak, never silently absorbed without a reply."""
        kz1, desc = make_region(cluster)
        kz1.write_at(desc.rid, b"v1")
        kz3 = cluster.client(node=3)
        assert kz3.read_at(desc.rid, 2) == b"v1"   # node 3 replicates
        assert desc.primary_home != 3

        replies = []
        cluster.network.attach(2, replies.append)
        cluster.network.send(Message(
            MessageType.UPDATE_PUSH, src=2, dst=3, request_id=4242,
            payload={"rid": desc.rid, "updates": [
                {"page": desc.rid, "data": b"Z" * 4096}]},
        ))
        cluster.run(1.0)
        naks = [m for m in replies if m.reply_to == 4242]
        assert [m.msg_type for m in naks] == [MessageType.ERROR]
        assert naks[0].payload["code"] == "not_responsible"
        assert kz3.read_at(desc.rid, 2) == b"v1"


class TestHomeInstallOrder:
    def test_durable_home_keeps_the_newer_of_two_pushes(self, tmp_path):
        """Two pushes of one page, the newer first, to a home whose
        store costs time (a durable home writes through): the older
        push must lose the last-writer-wins comparison even though it
        arrives while the newer one is still being stored."""
        cluster = create_cluster(
            num_nodes=4,
            config=DaemonConfig(spill_dir=str(tmp_path / "spill")),
        )
        _kz1, desc = make_region(cluster)
        home = cluster.daemon(desc.primary_home)
        replies = []
        cluster.network.attach(2, replies.append)
        for request_id, version, fill in ((7001, 2, b"N"), (7002, 1, b"O")):
            cluster.network.send(Message(
                MessageType.UPDATE_PUSH, src=2, dst=desc.primary_home,
                request_id=request_id,
                payload={"rid": desc.rid, "updates": [
                    {"page": desc.rid, "data": fill * 4096,
                     "version": version, "writer": 2}]},
            ))
        cluster.run(1.0)
        acks = [m for m in replies if m.reply_to in (7001, 7002)]
        assert [m.msg_type for m in acks] == [MessageType.UPDATE_ACK] * 2
        assert home.storage.peek(desc.rid).data[:1] == b"N"
        assert home.page_directory.get(desc.rid).version == 2
