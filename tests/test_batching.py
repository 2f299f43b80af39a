"""Tests for multi-page protocol operations.

Every page request is a list, so a multi-page lock/unlock cycle costs
one RPC per (home node, message kind) — PAGE_FETCH / LOCK_REQUEST /
UPDATE_PUSH each carrying every page bound for that home — while
keeping the per-page semantics: partial failures roll back cleanly and
unreachable homes fall back to per-page background retries.  Locking
one page at a time costs one request per page through the same path.
"""

import pytest

from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.errors import NotAllocated
from repro.core.locks import LockMode
from repro.net.codec import encoded_size
from repro.net.message import Message, MessageType

PAGE = 4096


def make_region(cluster, node, npages, level, **kwargs):
    kz = cluster.client(node=node)
    attrs = RegionAttributes(consistency_level=level, **kwargs)
    desc = kz.reserve(npages * PAGE, attrs)
    return kz, desc


class TestPartialFailureRollback:
    def test_denied_batch_pins_no_pages(self, quiet_cluster):
        """One page of a batched WRITE lock denied -> no page stays
        pinned on the locker, and no token stays held at the home."""
        cluster = quiet_cluster
        owner, desc = make_region(cluster, 1, 8, ConsistencyLevel.RELEASE)
        # Only the first half of the region gets backing store; locking
        # all 8 pages must fail on page 4.
        owner.allocate(desc.rid, 0, 4 * PAGE)

        locker = cluster.client(node=2)
        with pytest.raises(NotAllocated):
            locker.lock(desc.rid, 8 * PAGE, LockMode.WRITE)

        daemon = cluster.daemon(2)
        pages = [desc.rid + i * PAGE for i in range(8)]
        assert not any(daemon.lock_table.page_locked(p) for p in pages)

        # The home's tokens were given back (all-or-nothing grant):
        # locking the allocated half now succeeds immediately.
        ctx = locker.lock(desc.rid, 4 * PAGE, LockMode.WRITE)
        locker.write(ctx, desc.rid, b"x" * (4 * PAGE))
        locker.unlock(ctx)
        assert cluster.client(node=3).read_at(desc.rid, 4) == b"xxxx"


class TestCrashedHomeFallback:
    def test_release_push_batch_falls_back_to_per_page_retries(
        self, quiet_cluster
    ):
        cluster = quiet_cluster
        owner, desc = make_region(cluster, 1, 4, ConsistencyLevel.RELEASE)
        owner.allocate(desc.rid)

        writer = cluster.client(node=2)
        ctx = writer.lock(desc.rid, 4 * PAGE, LockMode.WRITE)
        writer.write(ctx, desc.rid, b"d" * (4 * PAGE))
        cluster.partition({1}, set(cluster.node_ids()) - {1})
        writer.unlock(ctx)   # batch push fails; never raises

        queue = cluster.daemon(2).retry_queue
        assert queue.pending >= 4
        assert any(label.startswith("release-token:")
                   for label in queue.labels())

        cluster.heal()
        cluster.run(120.0)   # background retries drain per page
        assert queue.pending == 0
        assert cluster.client(node=3).read_at(desc.rid, 4) == b"dddd"

    def test_eventual_push_batch_falls_back_to_per_page_retries(
        self, quiet_cluster
    ):
        cluster = quiet_cluster
        owner, desc = make_region(cluster, 1, 4, ConsistencyLevel.EVENTUAL)
        owner.allocate(desc.rid)

        writer = cluster.client(node=2)
        ctx = writer.lock(desc.rid, 4 * PAGE, LockMode.WRITE)
        writer.write(ctx, desc.rid, b"e" * (4 * PAGE))
        cluster.partition({1}, set(cluster.node_ids()) - {1})
        writer.unlock(ctx)

        queue = cluster.daemon(2).retry_queue
        assert queue.pending >= 4
        assert any(label.startswith("eventual-push:")
                   for label in queue.labels())

        cluster.heal()
        cluster.run(120.0)
        assert queue.pending == 0
        cluster.run(5.0)   # node 3's refresh window expires
        assert cluster.client(node=3).read_at(desc.rid, 4) == b"eeee"


class TestOneRequestPerHome:
    def test_crew_write_cycle_batches_per_home(self, quiet_cluster):
        """A multi-page CREW write cycle sends one LOCK_REQUEST to the
        primary home and one UPDATE_PUSH per home, each carrying all
        eight pages — no per-page traffic at all."""
        cluster = quiet_cluster
        owner, desc = make_region(
            cluster, 1, 8, ConsistencyLevel.STRICT, min_replicas=2
        )
        owner.allocate(desc.rid)
        cluster.run(1.0)
        assert len(desc.home_nodes) == 2
        locker_node = next(
            n for n in cluster.node_ids() if n not in desc.home_nodes
        )
        locker = cluster.client(node=locker_node)

        before = cluster.stats.snapshot()
        ctx = locker.lock(desc.rid, 8 * PAGE, LockMode.WRITE)
        locker.write(ctx, desc.rid, b"c" * (8 * PAGE))
        locker.unlock(ctx)
        delta = cluster.stats.delta_since(before)

        assert delta.count(MessageType.LOCK_REQUEST) == 1
        assert delta.count(MessageType.UPDATE_PUSH) == 2
        assert delta.count(MessageType.PAGE_FETCH) == 0

    def test_release_read_batches_fetches(self, quiet_cluster):
        cluster = quiet_cluster
        owner, desc = make_region(cluster, 1, 8, ConsistencyLevel.RELEASE)
        owner.allocate(desc.rid)
        owner.write_at(desc.rid, b"r" * (8 * PAGE))

        reader = cluster.client(node=2)
        # Warm up the reader's address-map/descriptor caches (the map
        # itself is a one-page release region served per-page) so the
        # delta below is the region's own traffic.
        reader.read_at(desc.rid + 7 * PAGE, 1)
        trace = []
        cluster.network.tap(trace.append)
        assert reader.read_at(desc.rid, 8 * PAGE) == b"r" * (8 * PAGE)

        # Pages 0..6 are missing locally -> one fetch carrying all
        # seven; page 7 is the cached warm-up copy.
        fetches = [m for m in trace if m.msg_type is MessageType.PAGE_FETCH]
        assert len(fetches) == 1
        assert len(fetches[0].payload["pages"]) == 7

    def test_one_page_at_a_time_costs_one_request_per_page(
            self, quiet_cluster):
        """The same eight pages locked, written and unlocked one page
        at a time: one LOCK_REQUEST and one UPDATE_PUSH per page, each
        a list of one, through the same path."""
        cluster = quiet_cluster
        owner, desc = make_region(cluster, 1, 8, ConsistencyLevel.RELEASE)
        owner.allocate(desc.rid)

        writer = cluster.client(node=2)
        before = cluster.stats.snapshot()
        for index in range(8):
            page = desc.rid + index * PAGE
            ctx = writer.lock(page, PAGE, LockMode.WRITE)
            writer.write(ctx, page, b"p" * PAGE)
            writer.unlock(ctx)
        delta = cluster.stats.delta_since(before)

        assert delta.count(MessageType.LOCK_REQUEST) == 8
        assert delta.count(MessageType.UPDATE_PUSH) == 8


class TestSizeBytesRecursion:
    def test_batch_payload_counts_embedded_page_data(self):
        msg = Message(
            msg_type=MessageType.UPDATE_PUSH, src=1, dst=0,
            payload={"rid": 0, "updates": [
                {"page": 0, "data": b"x" * PAGE, "release_token": True},
                {"page": PAGE, "data": b"y" * PAGE, "release_token": True},
            ]},
        )
        assert encoded_size(msg) >= 2 * PAGE

    def test_nested_containers_recurse(self):
        flat = Message(
            msg_type=MessageType.UPDATE_PUSH, src=1, dst=0,
            payload={"data": b"z" * 100},
        )
        nested = Message(
            msg_type=MessageType.UPDATE_PUSH, src=1, dst=0,
            payload={"diff": [(0, b"z" * 100)]},
        )
        # The wrapping list/tuple adds only constant overhead; the
        # embedded bytes dominate either way.
        assert encoded_size(nested) >= 100
        assert abs(encoded_size(nested) - encoded_size(flat)) < 64


class TestFullPageWriteFastPath:
    def test_full_page_write_skips_read_modify_write(self, quiet_cluster):
        cluster = quiet_cluster
        owner, desc = make_region(cluster, 1, 2, ConsistencyLevel.RELEASE)
        owner.allocate(desc.rid)
        ctx = owner.lock(desc.rid, 2 * PAGE, LockMode.WRITE)

        data_plane = cluster.daemon(1).data
        calls = []
        original = data_plane.local_page_bytes

        def counting(desc_, page_addr):
            calls.append(page_addr)
            return original(desc_, page_addr)

        data_plane.local_page_bytes = counting
        try:
            owner.write(ctx, desc.rid, b"f" * PAGE)   # exactly one page
            assert calls == []
            # A partial write of a *non-resident* page must read the
            # current contents first (the synchronous fast path only
            # serves RAM-resident pages, so this takes op_write).
            data_plane.kernel.storage.drop(desc.rid + PAGE)
            owner.write(ctx, desc.rid + PAGE, b"g" * 10)   # partial page
            assert len(calls) >= 1
        finally:
            data_plane.local_page_bytes = original
        # A partial write of a resident page merges with what's there,
        # whichever path served it.
        owner.write(ctx, desc.rid + PAGE + 10, b"h" * 10)
        owner.unlock(ctx)
        assert owner.read_at(desc.rid, PAGE) == b"f" * PAGE
        assert owner.read_at(desc.rid + PAGE, 20) == b"g" * 10 + b"h" * 10
