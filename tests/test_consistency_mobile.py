"""Tests for the Bayou-inspired mobile protocol (paper Section 7)."""

import pytest

from repro.api import create_cluster
from repro.core.attributes import RegionAttributes
from repro.core.errors import LockDenied
from repro.core.kernel import DaemonConfig
from repro.net.message import MessageType


def make_region(cluster, node=1, payload=b"mobile"):
    kz = cluster.client(node=node)
    desc = kz.reserve(
        4096, RegionAttributes(consistency_protocol="mobile")
    )
    kz.allocate(desc.rid)
    kz.write_at(desc.rid, payload)
    return kz, desc


class TestBasics:
    def test_write_read_roundtrip(self, cluster):
        kz, desc = make_region(cluster)
        assert kz.read_at(desc.rid, 6) == b"mobile"

    def test_replication_via_fetch(self, cluster):
        kz, desc = make_region(cluster)
        assert cluster.client(node=3).read_at(desc.rid, 6) == b"mobile"
        assert cluster.daemon(3).storage.contains(desc.rid)

    def test_gossip_propagates_updates(self, cluster):
        kz, desc = make_region(cluster, payload=b"v1")
        kz3 = cluster.client(node=3)
        assert kz3.read_at(desc.rid, 2) == b"v1"
        kz.write_at(desc.rid, b"v2")
        cluster.run(4.0)   # anti-entropy rounds
        page = cluster.daemon(3).storage.peek(desc.rid)
        assert page is not None and page.data[:2] == b"v2"

    def test_read_your_writes_locally(self, cluster):
        kz, desc = make_region(cluster)
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 6)
        kz3.write_at(desc.rid, b"my-own")
        assert kz3.read_at(desc.rid, 6) == b"my-own"


class TestDisconnectedOperation:
    def test_writes_succeed_while_partitioned(self, cluster):
        kz1, desc = make_region(cluster, payload=b"base")
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 4)   # node 3 has a replica
        cluster.partition({0, 1}, {2, 3})
        # Both sides keep writing their replicas — no errors.
        kz1.write_at(desc.rid, b"side-A")
        kz3.write_at(desc.rid, b"side-B")
        assert kz1.read_at(desc.rid, 6) == b"side-A"
        assert kz3.read_at(desc.rid, 6) == b"side-B"

    def test_reconciliation_after_heal(self, cluster):
        kz1, desc = make_region(cluster, payload=b"base")
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 4)
        cluster.partition({0, 1}, {2, 3})
        kz1.write_at(desc.rid, b"side-A")
        cluster.run(1.0)
        kz3.write_at(desc.rid, b"side-B")   # higher Lamport stamp? equal
        kz3.write_at(desc.rid, b"side-B2")  # definitely ahead now
        cluster.run(2.0)
        cluster.heal()
        cluster.run(6.0)   # epidemic reconciliation
        a = cluster.client(node=1).read_at(desc.rid, 7)
        b = cluster.client(node=3).read_at(desc.rid, 7)
        assert a == b   # converged
        assert a == b"side-B2"   # LWW: highest (counter, node) wins

    def test_disconnected_first_write_starts_from_zero(self, cluster):
        kz1, desc = make_region(cluster)
        # Node 3 knows the region (metadata cached while connected,
        # as any mobile client would) but never fetched the page.
        kz3 = cluster.client(node=3)
        kz3.get_attributes(desc.rid)
        cluster.partition({3}, {0, 1, 2})
        kz3.write_at(desc.rid, b"lonely")
        assert kz3.read_at(desc.rid, 6) == b"lonely"
        cluster.heal()
        cluster.run(6.0)
        # The disconnected write reconciles into the rest of the
        # system once connectivity returns.
        assert cluster.client(node=1).read_at(desc.rid, 6) == b"lonely"

    def test_disconnected_read_without_replica_fails(self, cluster):
        from repro.core.errors import KhazanaError

        kz1, desc = make_region(cluster)
        kz3 = cluster.client(node=3)
        kz3.get_attributes(desc.rid)   # knows the region...
        cluster.partition({3}, {0, 1, 2})
        with pytest.raises((LockDenied, KhazanaError)):
            kz3.read_at(desc.rid, 4)   # ...but has no replica to serve

    def test_stale_gossiper_gets_taught(self, cluster):
        """Bidirectional anti-entropy: a replica pushing an old stamp
        receives the newer version back."""
        kz1, desc = make_region(cluster, payload=b"old")
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 3)
        cluster.partition({0, 1}, {2, 3})
        kz1.write_at(desc.rid, b"new")   # node 3 cannot hear this
        cluster.heal()
        # Node 3 gossips its stale version at node 1; node 1 answers
        # with the newer one.
        cluster.run(6.0)
        page = cluster.daemon(3).storage.peek(desc.rid)
        assert page is not None and page.data[:3] == b"new"


class TestEviction:
    def test_disk_eviction_pushes_the_stamped_replica_home(self, cluster):
        """A dirty replica leaving node 3's storage goes home once more
        with its stamp; the home keeps the newer stamp (last writer
        wins), and node 3 forgets the page's stamp and state."""
        _kz1, desc = make_region(cluster, payload=b"base")
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 4)
        cluster.partition({0, 1}, {2, 3})
        kz3.write_at(desc.rid, b"evicted")   # the gossip cannot land
        cluster.heal()
        daemon = cluster.daemon(3)
        cm3 = daemon.consistency_manager("mobile")
        home = cluster.daemon(desc.primary_home)
        stamp = daemon.page_directory.get(desc.rid).version
        assert home.page_directory.get(desc.rid).version < stamp
        page = daemon.storage.peek(desc.rid)
        assert page is not None and page.dirty

        pushes = []
        cluster.network.tap(
            lambda m: m.msg_type is MessageType.UPDATE_PUSH and m.src == 3
            and m.request_id is not None and pushes.append(m))
        assert daemon.data.on_disk_evict(page)
        cluster.run(1.0)
        assert [[u["stamp"] for u in m.payload["updates"]]
                for m in pushes] == [[list(stamp)]]
        assert home.page_directory.get(desc.rid).version == stamp
        assert home.storage.peek(desc.rid).data[:7] == b"evicted"
        assert daemon.page_directory.get(desc.rid) is None
        assert desc.rid not in cm3.page_state


    def test_eviction_behind_the_home_stays_evicted(self, cluster):
        """A dirty replica evicted with a stamp older than the home's
        is not sent back: the home keeps its newer version and node 3,
        unregistered from the copyset, holds nothing for the page."""
        kz1, desc = make_region(cluster, payload=b"base")
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 4)
        cluster.partition({0, 1}, {2, 3})
        kz3.write_at(desc.rid, b"behind")
        kz1.write_at(desc.rid, b"home-1")
        kz1.write_at(desc.rid, b"home-2")
        cluster.heal()
        daemon = cluster.daemon(3)
        cm3 = daemon.consistency_manager("mobile")
        home = cluster.daemon(desc.primary_home)
        home_stamp = home.page_directory.get(desc.rid).version
        assert daemon.page_directory.get(desc.rid).version < home_stamp
        assert daemon.data.on_disk_evict(daemon.storage.peek(desc.rid))
        daemon.storage.drop(desc.rid)   # the disk's part of an eviction
        cluster.run(0.3)
        assert not daemon.storage.contains(desc.rid)
        assert desc.rid not in cm3.page_state
        assert daemon.page_directory.get(desc.rid) is None
        assert 3 not in home.page_directory.get(desc.rid).sharers
        assert home.page_directory.get(desc.rid).version == home_stamp
        assert home.storage.peek(desc.rid).data[:6] == b"home-2"


class TestConvergenceProperty:
    def test_many_writers_converge_everywhere(self, cluster):
        kz1, desc = make_region(cluster)
        sessions = [cluster.client(node=n) for n in range(4)]
        for session in sessions:
            session.read_at(desc.rid, 1)
        for i in range(12):
            sessions[i % 4].write_at(desc.rid, f"w{i:02d}".encode())
        cluster.run(10.0)
        finals = {
            bytes(cluster.daemon(n).storage.peek(desc.rid).data[:3])
            for n in range(4)
        }
        assert len(finals) == 1


class TestDurableStamps:
    def test_restarted_home_write_wins(self, tmp_path):
        """A durable home journals the newest stamp it holds: restarted
        after node 1's three writes it stamps its own write (4, 0), which
        beats node 1's (3, 1) everywhere.  Restarted at (0, 0) it would
        stamp (1, 0) and lose an acknowledged write."""
        cluster = create_cluster(num_nodes=3, config=DaemonConfig(
            spill_dir=str(tmp_path / "spill")))
        try:
            kz0 = cluster.client(node=0)
            desc = kz0.reserve(
                4096, RegionAttributes(consistency_protocol="mobile"))
            kz0.allocate(desc.rid)
            assert desc.primary_home == 0
            kz1 = cluster.client(node=1)
            for n in range(3):
                kz1.write_at(desc.rid, b"old%d" % n)
                cluster.run(0.5)
            cluster.run(3.0)
            cluster.crash(0)
            cluster.restart_node(0)
            cluster.client(node=0).write_at(desc.rid, b"NEW!")
            cluster.run(10.0)
            assert [cluster.client(node=n).read_at(desc.rid, 4)
                    for n in range(3)] == [b"NEW!"] * 3
        finally:
            cluster.shutdown()
