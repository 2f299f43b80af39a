"""Tests for the CREW protocol (paper Sections 3.3, 5, Figure 2)."""

import pytest

from repro.consistency.manager import LocalPageState
from repro.core.attributes import RegionAttributes
from repro.core.locks import LockMode
from repro.net.message import MessageType


def make_region(cluster, node=1, size=4096, **attr_kwargs):
    kz = cluster.client(node=node)
    desc = kz.reserve(size, RegionAttributes(**attr_kwargs))
    kz.allocate(desc.rid)
    return kz, desc


class TestReadSharing:
    def test_many_readers_cache_copies(self, cluster):
        kz1, desc = make_region(cluster)
        kz1.write_at(desc.rid, b"shared")
        for node in (0, 2, 3):
            assert cluster.client(node=node).read_at(desc.rid, 6) == b"shared"
        # Every reader now holds a local copy...
        for node in (0, 2, 3):
            assert cluster.daemon(node).storage.contains(desc.rid)
        # ...and the home's copyset knows them all.
        entry = cluster.daemon(1).page_directory.get(desc.rid)
        assert {0, 1, 2, 3} <= entry.sharers

    def test_second_read_is_local(self, cluster):
        kz1, desc = make_region(cluster)
        kz1.write_at(desc.rid, b"x")
        reader = cluster.client(node=3)
        reader.read_at(desc.rid, 1)
        before = cluster.stats.snapshot()
        reader.read_at(desc.rid, 1)
        delta = cluster.stats.delta_since(before)
        assert delta.count(MessageType.LOCK_REQUEST) == 0
        assert delta.count(MessageType.PAGE_FETCH) == 0


class TestWriteInvalidation:
    def test_write_invalidates_remote_copies(self, cluster):
        kz1, desc = make_region(cluster)
        kz1.write_at(desc.rid, b"v1")
        reader = cluster.client(node=3)
        assert reader.read_at(desc.rid, 2) == b"v1"
        kz1.write_at(desc.rid, b"v2")
        # Node 3's copy must be gone (invalidated), then re-fetched.
        cm3 = cluster.daemon(3).consistency_manager("crew")
        assert cm3.page_state.get(desc.rid) in (None, LocalPageState.INVALID)
        assert reader.read_at(desc.rid, 2) == b"v2"

    def test_remote_write_takes_ownership(self, cluster):
        kz1, desc = make_region(cluster)
        kz1.write_at(desc.rid, b"from-1")
        kz2 = cluster.client(node=2)
        kz2.write_at(desc.rid, b"from-2")
        entry = cluster.daemon(1).page_directory.get(desc.rid)
        assert entry.owner == 2
        assert entry.sharers == {2}
        # And the original writer sees the new data.
        assert kz1.read_at(desc.rid, 6) == b"from-2"

    def test_ping_pong_writes_converge(self, cluster):
        kz1, desc = make_region(cluster)
        kz2 = cluster.client(node=2)
        for i in range(6):
            writer = kz1 if i % 2 == 0 else kz2
            writer.write_at(desc.rid, f"gen-{i}".encode())
        assert cluster.client(node=3).read_at(desc.rid, 5) == b"gen-5"

    def test_write_after_read_upgrade(self, cluster):
        kz1, desc = make_region(cluster)
        kz1.write_at(desc.rid, b"base")
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 4)           # node 3 becomes a sharer
        kz3.write_at(desc.rid, b"next")    # upgrade: invalidate others
        entry = cluster.daemon(1).page_directory.get(desc.rid)
        assert entry.owner == 3
        assert cluster.client(node=0).read_at(desc.rid, 4) == b"next"

    def test_sequential_consistency_no_stale_read_after_write(self, cluster):
        """CREW gives Lamport ordering: once the writer's unlock
        completes, every subsequent read anywhere sees the new value."""
        kz1, desc = make_region(cluster)
        readers = [cluster.client(node=n) for n in (0, 2, 3)]
        for generation in range(5):
            value = f"g{generation:04d}".encode()
            kz1.write_at(desc.rid, value)
            for reader in readers:
                assert reader.read_at(desc.rid, 5) == value


class TestLocalConflicts:
    def test_write_shared_rejected_by_crew(self, cluster):
        kz, desc = make_region(cluster)
        from repro.core.errors import LockDenied

        with pytest.raises(LockDenied):
            kz.lock(desc.rid, 4096, LockMode.WRITE_SHARED)

    def test_deferred_invalidation_respects_reader(self, cluster):
        """A remote write must wait for a local read lock to clear:
        the CM 'delays granting the locks until the conflict is
        resolved' (Section 3.3)."""
        kz1, desc = make_region(cluster)
        kz1.write_at(desc.rid, b"stable")
        kz3 = cluster.client(node=3)
        ctx = kz3.lock(desc.rid, 4096, LockMode.READ)
        # Start a remote write; it cannot complete while node 3 reads.
        write_future = kz1.submit(
            kz1.daemon.op_write_locked_probe
            if False else _locked_write(kz1, desc), "bg-write"
        )
        cluster.run(2.0)
        assert not write_future.done   # still waiting on the reader
        assert kz3.read(ctx, desc.rid, 6) == b"stable"
        kz3.unlock(ctx)
        cluster.run(2.0)
        assert write_future.done and write_future.exception() is None
        assert kz3.read_at(desc.rid, 3) == b"new"


def _locked_write(session, desc):
    """Protocol generator: full lock-write-unlock cycle on the daemon."""
    from repro.core.addressing import AddressRange

    daemon = session.daemon
    target = AddressRange(desc.rid, 4096)

    def task():
        ctx = yield from daemon.data.op_lock(target, LockMode.WRITE,
                                        session.principal)
        yield from daemon.data.op_write(ctx, AddressRange(desc.rid, 3), b"new")
        yield from daemon.data.op_unlock(ctx)

    return task()


class TestFigure2Path:
    def test_owner_hint_enables_direct_fetch(self, cluster):
        """Figure 2: with a page-directory hint, the requester's CM
        asks the owner's CM directly (steps 5-11)."""
        kz1, desc = make_region(cluster)
        kz1.write_at(desc.rid, b"owned-by-1")
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 10)
        # Invalidate node 3 but leave its page-directory hint intact:
        kz2 = cluster.client(node=2)   # not used further
        cluster.daemon(3).drop_local_page(desc.rid)
        cm3 = cluster.daemon(3).consistency_manager("crew")
        cm3.page_state[desc.rid] = LocalPageState.INVALID
        hint = cluster.daemon(3).page_directory.get(desc.rid)
        assert hint is not None and hint.owner == 1
        before = cluster.stats.snapshot()
        assert kz3.read_at(desc.rid, 10) == b"owned-by-1"
        delta = cluster.stats.delta_since(before)
        # Served by a direct owner lock request, not a home-mediated
        # page fetch.
        assert delta.count(MessageType.LOCK_REQUEST) >= 1
        assert delta.count(MessageType.PAGE_FETCH) == 0

    def test_stale_owner_hint_falls_back_to_home(self, cluster):
        kz1, desc = make_region(cluster)
        kz1.write_at(desc.rid, b"data")
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 4)
        cluster.daemon(3).drop_local_page(desc.rid)
        cm3 = cluster.daemon(3).consistency_manager("crew")
        cm3.page_state[desc.rid] = LocalPageState.INVALID
        # Poison the hint: point at a node that never owned the page.
        cluster.daemon(3).page_directory.get(desc.rid).owner = 2
        assert kz3.read_at(desc.rid, 4) == b"data"


class TestWriteback:
    def test_dirty_page_written_back_to_secondary_homes(self, cluster):
        kz1 = cluster.client(node=1)
        desc = kz1.reserve(4096, RegionAttributes(min_replicas=2))
        kz1.allocate(desc.rid)
        assert len(desc.home_nodes) == 2
        secondary = desc.home_nodes[1]
        kz1.write_at(desc.rid, b"durable")
        cluster.run(1.0)
        assert cluster.daemon(secondary).storage.contains(desc.rid)
        page = cluster.daemon(secondary).storage.peek(desc.rid)
        assert page.data[:7] == b"durable"
