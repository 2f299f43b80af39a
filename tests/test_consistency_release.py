"""Tests for release consistency (paper Section 3.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import create_cluster
from repro.consistency.release import apply_diff, compute_diff
from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.kernel import DaemonConfig
from repro.core.locks import LockMode
from repro.net.message import Message, MessageType


def make_region(cluster, node=1, size=4096, **kwargs):
    kz = cluster.client(node=node)
    attrs = RegionAttributes(
        consistency_level=ConsistencyLevel.RELEASE, **kwargs
    )
    desc = kz.reserve(size, attrs)
    kz.allocate(desc.rid)
    return kz, desc


class TestDiffs:
    def test_identical_pages_empty_diff(self):
        page = b"a" * 100
        assert compute_diff(page, page) == []

    def test_single_run(self):
        twin = b"aaaaaaaa"
        cur = b"aaXXaaaa"
        assert compute_diff(twin, cur) == [(2, b"XX")]

    def test_multiple_runs(self):
        twin = b"aaaaaaaa"
        cur = b"Xaaa aaY"
        diff = compute_diff(twin, cur)
        assert apply_diff(twin, diff) == cur
        assert len(diff) == 3

    def test_length_change_degenerates_to_full_page(self):
        assert compute_diff(b"aa", b"aaa") == [(0, b"aaa")]

    def test_apply_extends_short_base(self):
        assert apply_diff(b"ab", [(4, b"z")]) == b"ab\x00\x00z"

    @given(st.binary(min_size=1, max_size=200), st.binary(max_size=200))
    @settings(max_examples=200)
    def test_diff_apply_roundtrip(self, twin, tail):
        current = (tail + twin)[: len(twin)]
        diff = compute_diff(twin, current)
        assert apply_diff(twin, diff) == current

    @given(
        st.binary(min_size=32, max_size=64),
        st.lists(
            st.tuples(st.integers(0, 31), st.binary(min_size=1, max_size=8)),
            max_size=5,
        ),
    )
    @settings(max_examples=100)
    def test_non_overlapping_merge(self, base, edits):
        """Two writers editing disjoint ranges both survive the merge."""
        current = bytearray(base)
        for offset, data in edits:
            current[offset : offset + len(data)] = data
        current = bytes(current[: len(base)])
        diff = compute_diff(base, current)
        assert apply_diff(base, diff) == current


class TestReleaseProtocol:
    def test_write_then_read_roundtrip(self, cluster):
        kz, desc = make_region(cluster)
        kz.write_at(desc.rid, b"released")
        assert kz.read_at(desc.rid, 8) == b"released"

    def test_update_propagates_to_replicas(self, cluster):
        kz1, desc = make_region(cluster)
        kz1.write_at(desc.rid, b"v1")
        kz3 = cluster.client(node=3)
        assert kz3.read_at(desc.rid, 2) == b"v1"   # node 3 replicates
        kz1.write_at(desc.rid, b"v2")
        cluster.run(1.0)   # let the home's fanout arrive
        assert kz3.read_at(desc.rid, 2) == b"v2"

    def test_read_never_blocks_on_writer(self, cluster):
        """Under release consistency a reader sees its replica even
        while a remote writer holds the token."""
        kz1, desc = make_region(cluster)
        kz1.write_at(desc.rid, b"old")
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 3)
        ctx = kz1.lock(desc.rid, 4096, LockMode.WRITE)
        kz1.write(ctx, desc.rid, b"mid")
        # Reader is NOT blocked and sees the pre-release value.
        assert kz3.read_at(desc.rid, 3) == b"old"
        kz1.unlock(ctx)
        cluster.run(1.0)
        assert kz3.read_at(desc.rid, 3) == b"mid"

    def test_home_local_write_writes_each_page_through_once(self, tmp_path):
        """A durable home's own WRITE release: op_write stores the page
        (writing it through); the release bumps the version and frees
        the token without storing the same bytes again."""
        cluster = create_cluster(num_nodes=2, config=DaemonConfig(
            enable_failure_handling=False, spill_dir=str(tmp_path)))
        try:
            kz, desc = make_region(cluster, node=0, size=2 * 4096)
            assert desc.primary_home == 0
            storage = cluster.daemon(0).storage
            inner, written = storage.write_through, []

            def counting(page):
                written.append(page.address)
                return inner(page)

            storage.write_through = counting
            ctx = kz.lock(desc.rid, 2 * 4096, LockMode.WRITE)
            written.clear()   # the lock's first touch materialised them
            kz.write(ctx, desc.rid, b"w" * 8192)
            kz.unlock(ctx)
            assert written == [desc.rid, desc.rid + 4096]
            assert storage.dirty_addresses() == []
            kz.write_at(desc.rid, b"again")
            assert cluster.client(node=1).read_at(desc.rid, 6) == b"againw"
        finally:
            cluster.shutdown()

    def test_write_tokens_serialise_writers(self, cluster):
        kz1, desc = make_region(cluster, node=1)
        kz2 = cluster.client(node=2)
        ctx1 = kz1.lock(desc.rid, 4096, LockMode.WRITE)
        lock2 = kz2.lock_async(desc.rid, 4096, LockMode.WRITE)
        cluster.run(1.0)
        assert not lock2.done   # token held by node 1
        kz1.write(ctx1, desc.rid, b"first")
        kz1.unlock(ctx1)
        cluster.run(1.0)
        assert lock2.done
        ctx2 = lock2.result()
        # Writer 2 starts from writer 1's released data.
        assert kz2.read(ctx2, desc.rid, 5) == b"first"
        kz2.unlock(ctx2)

    def test_write_shared_merges_disjoint_writes(self, cluster):
        kz1, desc = make_region(cluster, node=1)
        kz1.write_at(desc.rid, b"................")
        kz2 = cluster.client(node=2)
        c1 = kz1.lock(desc.rid, 4096, LockMode.WRITE_SHARED)
        c2 = kz2.lock(desc.rid, 4096, LockMode.WRITE_SHARED)
        kz1.write(c1, desc.rid, b"AA")
        kz2.write(c2, desc.rid + 8, b"BB")
        kz1.unlock(c1)
        kz2.unlock(c2)
        cluster.run(1.0)
        merged = cluster.client(node=3).read_at(desc.rid, 16)
        assert merged[0:2] == b"AA"
        assert merged[8:10] == b"BB"

    def test_multi_replica_home_failover(self, cluster):
        kz1, desc = make_region(cluster, node=1, min_replicas=2)
        kz1.write_at(desc.rid, b"resilient")
        assert cluster.client(node=3).read_at(desc.rid, 9) == b"resilient"

    def test_secondary_home_naks_misrouted_update_push(self, cluster):
        """An UPDATE_PUSH *request* that lands on a node other than
        the primary home — exactly what the ordered request_home
        failover does when the primary looks dead — must be nak'd,
        not silently absorbed as a versionless replica update that
        leaves the writer hanging until its RPC timeout."""
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
                {"page": desc.rid, "data": b"Z" * 4096,
                 "release_token": False}]},
        ))
        cluster.run(1.0)
        # The tap also sees unrelated heartbeat traffic to node 2;
        # pick out the reply to our request.
        naks = [m for m in replies if m.reply_to == 4242]
        assert [m.msg_type for m in naks] == [MessageType.ERROR]
        assert naks[0].payload["code"] == "not_responsible"
        # The refused push never touched node 3's replica.
        assert kz3.read_at(desc.rid, 2) == b"v1"


class TestBackgroundRetry:
    def test_retried_unlock_push_leaves_the_page_clean(self, quiet_cluster):
        """An unlock push that only lands from the retry queue must
        mark the page clean like a first-try push does; a page left
        dirty is written back again at eviction — an extra push, a
        version bump and a fan-out of possibly stale bytes."""
        cluster = quiet_cluster
        _kz1, desc = make_region(cluster)
        writer = cluster.client(node=2)
        ctx = writer.lock(desc.rid, 4096, LockMode.WRITE)
        writer.write(ctx, desc.rid, b"w" * 4096)
        home = desc.primary_home
        cluster.partition({home}, set(cluster.node_ids()) - {home})
        writer.unlock(ctx)   # the push fails; never raises

        daemon = cluster.daemon(2)
        assert daemon.retry_queue.pending >= 1
        cluster.heal()
        cluster.run(120.0)   # the background retry lands
        assert daemon.retry_queue.pending == 0
        page = daemon.storage.peek(desc.rid)
        assert page is not None and not page.dirty

        before = cluster.stats.snapshot()
        assert daemon.data.on_disk_evict(page)
        cluster.run(5.0)
        delta = cluster.stats.delta_since(before)
        assert delta.count(MessageType.UPDATE_PUSH) == 0


class TestDurableVersions:
    def test_restarted_home_keeps_counting(self, tmp_path):
        """The page version lives on the journaled directory entry, so
        a durable home restarted after three writes serves version 4
        for its fourth, not 1 again."""
        cluster = create_cluster(num_nodes=3, config=DaemonConfig(
            spill_dir=str(tmp_path / "spill")))
        try:
            kz0, desc = make_region(cluster, node=0)
            assert desc.primary_home == 0
            served = []
            cluster.network.tap(
                lambda m: m.msg_type is MessageType.PAGE_DATA
                and served.extend(item["version"]
                                  for item in m.payload["pages"]
                                  if item["page"] == desc.rid))
            for fill in (b"a", b"b", b"c"):
                kz0.write_at(desc.rid, fill * 4)
            cluster.run(2.6)
            assert cluster.client(node=1).read_at(desc.rid, 4) == b"cccc"
            cluster.crash(0)
            cluster.restart_node(0)
            cluster.client(node=0).write_at(desc.rid, b"dddd")
            assert cluster.client(node=2).read_at(desc.rid, 4) == b"dddd"
            assert served == [3, 4]
            assert cluster.daemon(0).page_directory.get(
                desc.rid).version == (4, 0)
        finally:
            cluster.shutdown()


def cm_dict_sizes(daemon):
    """``{(protocol, attribute): len}`` for every dict a CM holds."""
    return {(name, attr): len(value)
            for name, cm in daemon.consistency_managers().items()
            for attr, value in vars(cm).items() if isinstance(value, dict)}


class TestUnreserveChurn:
    def test_unreserve_leaves_no_cm_state(self):
        """Reserve, write, read and unreserve a release, an eventual
        and a mobile region sixteen times: at the home and at the
        unreserving node no CM keeps a per-page entry past its region."""
        cluster = create_cluster(num_nodes=3)
        home, writer = cluster.client(node=0), cluster.client(node=1)
        sizes = []
        for _cycle in range(16):
            for attrs in (
                RegionAttributes(consistency_level=ConsistencyLevel.RELEASE),
                RegionAttributes(consistency_level=ConsistencyLevel.EVENTUAL),
                RegionAttributes(consistency_protocol="mobile"),
            ):
                desc = home.reserve(4096, attrs)
                home.allocate(desc.rid)
                assert desc.primary_home == 0
                writer.write_at(desc.rid, b"churn")
                assert writer.read_at(desc.rid, 5) == b"churn"
                cluster.run(1.0)
                writer.unreserve(desc.rid)
                cluster.run(1.0)
            sizes.append((cm_dict_sizes(cluster.daemon(0)),
                          cm_dict_sizes(cluster.daemon(1))))
        assert sizes[-1] == sizes[0]
