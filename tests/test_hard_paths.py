"""Integration tests for the hard paths: dirty eviction under memory
pressure, concurrent address-map traffic, and distributed deadlocks."""

import pytest

from repro.api import create_cluster
from repro.core.attributes import RegionAttributes
from repro.core.kernel import DaemonConfig
from repro.core.errors import LockDenied
from repro.core.locks import LockMode
from repro.bench.workloads import make_regions


class TestDirtyEviction:
    def test_victimized_dirty_pages_reach_home(self):
        """A cache-poor node writes many remote regions; evicted dirty
        pages must be pushed home, not lost (paper 3.4: disk eviction
        'must invoke the consistency protocol ... push any dirty
        data')."""
        from repro.api import Cluster

        starved = DaemonConfig(
            memory_bytes=4 * 4096,     # tiny RAM
            disk_bytes=8 * 4096,       # tiny disk forces true eviction
        )
        cluster = Cluster(num_nodes=3, node_configs={2: starved})
        owner = cluster.client(node=0)
        # Regions homed at node 0; node 2 writes them all.
        regions = make_regions(owner, 16)
        writer = cluster.client(node=2)
        for i, region in enumerate(regions):
            writer.write_at(region.rid, f"dirty-{i:02d}".encode())
        cluster.run(5.0)   # eviction pushes + write-backs settle
        # Every value survives somewhere authoritative: read each one
        # from a third node.
        reader = cluster.client(node=1)
        for i, region in enumerate(regions):
            assert reader.read_at(region.rid, 8) == f"dirty-{i:02d}".encode()

    def test_eviction_stats_show_activity(self):
        from repro.api import Cluster

        starved = DaemonConfig(memory_bytes=4 * 4096,
                               disk_bytes=8 * 4096)
        cluster = Cluster(num_nodes=3, node_configs={2: starved})
        owner = cluster.client(node=0)
        regions = make_regions(owner, 16)
        writer = cluster.client(node=2)
        for region in regions:
            writer.write_at(region.rid, b"fill")
        stats = cluster.daemon(2).storage.stats
        assert stats.victimized_to_disk > 0
        assert stats.evicted_from_disk > 0


class TestConcurrentMapTraffic:
    def test_parallel_reserves_from_all_nodes(self, big_cluster):
        """Eight nodes reserving concurrently (async API) must carve
        disjoint regions through the release-consistent map."""
        cluster = big_cluster
        futures = []
        for node in cluster.node_ids():
            session = cluster.client(node=node)
            for _ in range(3):
                futures.append(session.reserve_async(4096))
        # Drive the simulation until every reserve completes.
        for future in futures:
            cluster.driver.wait(future)
        descs = [f.result() for f in futures]
        assert len(descs) == 24
        for i, a in enumerate(descs):
            for b in descs[i + 1:]:
                assert not a.range.overlaps(b.range)

    def test_map_consistent_after_concurrent_churn(self, big_cluster):
        from repro.tools import check_cluster

        cluster = big_cluster
        sessions = [cluster.client(node=n) for n in cluster.node_ids()]
        descs = []
        for session in sessions:
            d = session.reserve(4096)
            session.allocate(d.rid)
            descs.append((session, d))
        for session, d in descs[::2]:
            session.unreserve(d.rid)
        cluster.run(10.0)
        report = check_cluster(cluster)
        assert report.ok, report.render()


class TestDistributedDeadlock:
    def test_opposite_order_multi_page_locks_time_out_not_hang(self):
        """Two nodes locking two pages in opposite orders can deadlock
        distributed CREW; Khazana resolves it by lock-wait timeout
        (paper 3.5: operations 'succeed or timeout')."""
        config = DaemonConfig(lock_wait_timeout=5.0)
        cluster = create_cluster(num_nodes=3, config=config)
        kz1 = cluster.client(node=1)
        desc = kz1.reserve(2 * 4096)
        kz1.allocate(desc.rid)
        page_a, page_b = desc.rid, desc.rid + 4096
        kz2 = cluster.client(node=2)

        # Node 1 holds A and wants B; node 2 holds B and wants A.
        ctx1a = kz1.lock(page_a, 4096, LockMode.WRITE)
        ctx2b = kz2.lock(page_b, 4096, LockMode.WRITE)
        want_b = kz1.lock_async(page_b, 4096, LockMode.WRITE)
        want_a = kz2.lock_async(page_a, 4096, LockMode.WRITE)
        cluster.run(60.0)
        # Both waiters resolved one way or the other — nothing hangs.
        assert want_b.done and want_a.done
        outcomes = [want_b.exception(), want_a.exception()]
        # At least one side eventually failed or succeeded cleanly;
        # any granted context must actually be usable.
        for future, session in ((want_b, kz1), (want_a, kz2)):
            if future.exception() is None:
                session.unlock(future.result())
        kz1.unlock(ctx1a)
        kz2.unlock(ctx2b)
        # The system still functions afterwards.
        kz1.write_at(page_a, b"after")
        assert kz2.read_at(page_a, 5) == b"after"


class TestLockFairness:
    def test_waiters_eventually_granted(self, cluster):
        kz1 = cluster.client(node=1)
        desc = kz1.reserve(4096)
        kz1.allocate(desc.rid)
        ctx = kz1.lock(desc.rid, 4096, LockMode.WRITE)
        waiters = [
            cluster.client(node=n).lock_async(desc.rid, 4096, LockMode.READ)
            for n in (0, 2, 3)
        ]
        cluster.run(2.0)
        # CREW: no reader may be granted while the writer holds the
        # page (this is exactly the conflict the CM must delay on).
        assert not any(w.done for w in waiters)
        kz1.unlock(ctx)
        cluster.run(5.0)
        assert all(w.done and w.exception() is None for w in waiters)
        for n, w in zip((0, 2, 3), waiters):
            cluster.client(node=n).unlock(w.result())
