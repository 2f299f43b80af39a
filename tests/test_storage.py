"""Tests for the local storage hierarchy (paper Section 3.4)."""

import contextlib
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import create_cluster
from repro.core.address_map import EntryState, MapEntry, MapNode, initial_root_node
from repro.core.addressing import AddressRange
from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.errors import StorageExhausted
from repro.core.kernel import DaemonConfig
from repro.fs.layout import LayoutError, decode_struct, encode_struct
from repro.naming import service as naming
from repro.objects.model import ObjectError, decode_state, encode_state
from repro.storage import disk
from repro.storage.disk import (
    HEADER_BYTES,
    LOG_FILE,
    DiskStore,
    FileBackedDiskStore,
    access_cost,
)
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.memory import MemoryStore
from repro.storage.store import StoredPage, unpad

PAGE = 4096


def page(addr, fill=b"x", dirty=False):
    return StoredPage(addr, fill * PAGE if len(fill) == 1 else fill,
                      dirty=dirty)


class TestMemoryStore:
    def test_put_get_remove(self):
        store = MemoryStore(4 * PAGE)
        store.put(page(0))
        assert store.get(0).data[:1] == b"x"
        assert store.contains(0)
        assert store.remove(0).address == 0
        assert not store.contains(0)

    def test_capacity_enforced(self):
        store = MemoryStore(2 * PAGE)
        store.put(page(0))
        store.put(page(PAGE))
        with pytest.raises(StorageExhausted):
            store.put(page(2 * PAGE))

    def test_replace_same_page_no_double_count(self):
        store = MemoryStore(2 * PAGE)
        store.put(page(0))
        store.put(page(0, b"y"))
        assert store.used_bytes() == PAGE
        assert store.get(0).data[:1] == b"y"

    def test_lru_order_updates_on_get(self):
        store = MemoryStore(4 * PAGE)
        for i in range(3):
            store.put(page(i * PAGE))
        store.get(0)   # 0 becomes most recent
        assert store.lru_candidates() == [PAGE, 2 * PAGE, 0]

    def test_peek_does_not_touch_lru(self):
        store = MemoryStore(4 * PAGE)
        store.put(page(0))
        store.put(page(PAGE))
        store.peek(0)
        assert store.lru_candidates()[0] == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            MemoryStore(0)


class TestMemoryStoreCachedViews:
    """addresses()/lru_candidates() return cached snapshots; every
    mutation (and, for LRU, every reordering get) must invalidate."""

    def make(self):
        store = MemoryStore(8 * PAGE)
        for i in range(3):
            store.put(page(i * PAGE))
        return store

    def test_views_are_stable_across_reads(self):
        store = self.make()
        assert store.addresses() is store.addresses()
        assert store.lru_candidates() is store.lru_candidates()
        store.peek(0)   # peek neither reorders nor invalidates
        assert store.lru_candidates() is store.lru_candidates()

    def test_put_invalidates_both_views(self):
        store = self.make()
        addrs, lru = store.addresses(), store.lru_candidates()
        store.put(page(3 * PAGE))
        assert store.addresses() == [0, PAGE, 2 * PAGE, 3 * PAGE]
        assert store.lru_candidates()[-1] == 3 * PAGE
        assert addrs == [0, PAGE, 2 * PAGE]   # old snapshot untouched
        assert lru == [0, PAGE, 2 * PAGE]

    def test_replacing_put_keeps_address_view_but_reorders_lru(self):
        store = self.make()
        addrs = store.addresses()
        store.lru_candidates()
        store.put(page(0, b"y"))   # same address: membership unchanged
        assert store.addresses() is addrs
        assert store.lru_candidates() == [PAGE, 2 * PAGE, 0]

    def test_remove_invalidates_both_views(self):
        store = self.make()
        store.addresses(), store.lru_candidates()
        store.remove(PAGE)
        assert store.addresses() == [0, 2 * PAGE]
        assert store.lru_candidates() == [0, 2 * PAGE]

    def test_get_invalidates_lru_view_only(self):
        store = self.make()
        addrs = store.addresses()
        store.lru_candidates()
        store.get(0)
        assert store.lru_candidates() == [PAGE, 2 * PAGE, 0]
        assert store.addresses() is addrs


class TestDiskStore:
    def test_basic_ops(self):
        store = DiskStore(4 * PAGE)
        store.put(page(0, b"d"))
        assert store.get(0).data[:1] == b"d"
        assert store.used_bytes() == PAGE
        store.remove(0)
        assert store.used_bytes() == 0

    def test_access_cost_scales_with_size(self):
        assert access_cost(2 * PAGE) > access_cost(PAGE) > 0


@contextlib.contextmanager
def opened(directory, capacity=16 * PAGE):
    """A page log that is closed again, whatever the test does."""
    store = FileBackedDiskStore(directory, capacity)
    try:
        yield store
    finally:
        store.close()


def log_size(directory):
    return os.path.getsize(os.path.join(directory, LOG_FILE))


class TestFileBackedDiskStore:
    def test_persistence_across_instances(self, tmp_path):
        d = str(tmp_path / "spill")
        with opened(d) as store:
            store.put(page(0x1000, b"p", dirty=True))
            store.put(page(0x2000, b"q"))
        # A "restarted daemon" replays the same log.
        with opened(d) as revived:
            assert sorted(revived.addresses()) == [0x1000, 0x2000]
            got = revived.get(0x1000)
            assert got.data[:1] == b"p"
            assert got.dirty is True
            assert revived.get(0x2000).dirty is False

    def test_dirty_transition_survives_reopen(self, tmp_path):
        d = str(tmp_path / "spill")
        with opened(d) as store:
            store.put(page(0x1000, b"a", dirty=True))
            store.put(page(0x1000, b"b", dirty=False))
        with opened(d) as revived:
            assert revived.get(0x1000).dirty is False
            assert revived.get(0x1000).data[:1] == b"b"
            assert revived.used_bytes() == PAGE

    def test_remove_deletes_file(self, tmp_path):
        d = str(tmp_path / "spill")
        with opened(d) as store:
            store.put(page(0x1000))
            store.remove(0x1000)
        with opened(d) as revived:
            assert revived.addresses() == []

    def test_torn_tail_at_every_byte_cut_keeps_earlier_records(self, tmp_path):
        d = str(tmp_path / "spill")
        with opened(d) as store:
            store.put(page(0x1000, b"a"))
            store.put(page(0x2000, b"b", dirty=True))
            kept = log_size(d)
            store.put(StoredPage(0x3000, b"last record"))
        with open(os.path.join(d, LOG_FILE), "rb") as fh:
            whole = fh.read()
        assert len(whole) == kept + HEADER_BYTES + len(b"last record")
        for cut in range(kept, len(whole)):
            with open(os.path.join(d, LOG_FILE), "wb") as fh:
                fh.write(whole[:cut])
            with opened(d) as revived:
                assert sorted(revived.addresses()) == [0x1000, 0x2000]
                assert revived.get(0x2000).data == b"b" * PAGE
                assert revived.get(0x2000).dirty is True
                assert revived.used_bytes() == 2 * PAGE
            assert log_size(d) == kept

    def test_flipped_crc_bit_cuts_the_log_at_that_record(self, tmp_path):
        d = str(tmp_path / "spill")
        with opened(d) as store:
            store.put(page(0x1000, b"a"))
            first = log_size(d)
            store.put(page(0x2000, b"b"))
            store.put(page(0x3000, b"c"))
        with open(os.path.join(d, LOG_FILE), "r+b") as fh:
            fh.seek(first)
            crc = fh.read(1)
            fh.seek(first)
            fh.write(bytes([crc[0] ^ 0x01]))
        with opened(d) as revived:
            assert revived.addresses() == [0x1000]
            assert revived.get(0x1000).data == b"a" * PAGE
        assert log_size(d) == first

    def test_tombstone_is_replayed_after_reopen(self, tmp_path):
        d = str(tmp_path / "spill")
        with opened(d) as store:
            store.put(page(0x1000, b"a"))
            store.put(page(0x2000, b"b"))
            assert store.remove(0x1000).data == b"a" * PAGE
            assert store.remove(0x1000) is None     # no second tombstone
        with opened(d) as revived:
            assert revived.addresses() == [0x2000]
            assert revived.get(0x1000) is None
            assert revived.used_bytes() == PAGE
            revived.put(page(0x1000, b"z"))      # and it can come back
        with opened(d) as again:
            assert again.get(0x1000).data == b"z" * PAGE

    def test_used_bytes_after_replay(self, tmp_path):
        d = str(tmp_path / "spill")
        with opened(d) as store:
            store.put(StoredPage(0x1000, b"x" * 100))
            store.put(StoredPage(0x2000, b"y" * PAGE))
            store.put(StoredPage(0x1000, b"x" * 300))
            store.put(StoredPage(0x3000, b"w" * 50))
            store.remove(0x3000)
            used = store.used_bytes()
        assert used == 300 + PAGE
        with opened(d) as revived:
            assert revived.used_bytes() == used
            assert revived.free_bytes() == 16 * PAGE - used
            with pytest.raises(StorageExhausted):
                revived.put(StoredPage(0x4000, b"v" * (16 * PAGE - used + 1)))

    def test_compaction_keeps_live_set_and_dirty_bits(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(disk, "COMPACT_SLACK_BYTES", 0)
        d = str(tmp_path / "spill")
        with opened(d) as store:
            for round_ in range(5):
                for i in range(4):
                    store.put(page(i * PAGE, bytes([round_ * 4 + i]),
                                   dirty=bool(i % 2)))
            store.remove(3 * PAGE)
            live = 3 * (HEADER_BYTES + PAGE)
            # Dead records never reach twice the live ones.
            assert log_size(d) <= 2 * live
            expected = {a: store.get(a) for a in store.addresses()}
        assert sorted(expected) == [0, PAGE, 2 * PAGE]
        assert not os.path.exists(os.path.join(d, LOG_FILE + ".tmp"))
        with opened(d) as revived:
            assert sorted(revived.addresses()) == sorted(expected)
            for address, want in expected.items():
                got = revived.get(address)
                assert (got.data, got.dirty) == (want.data, want.dirty)
            assert revived.get(PAGE).data == bytes([17]) * PAGE
            assert revived.get(PAGE).dirty is True
            assert revived.used_bytes() == 3 * PAGE

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("put"), st.integers(0, 5), st.integers(1, 255),
                  st.integers(1, 3000), st.booleans()),
        st.tuples(st.just("remove"), st.integers(0, 5)),
        st.tuples(st.just("reopen"))), max_size=40))
    def test_matches_the_in_memory_model(self, ops):
        """Random put/remove/reopen sequences: the log answers exactly
        what the in-memory DiskStore does, compaction included."""
        capacity = 4 * 3000
        model = DiskStore(capacity)
        with tempfile.TemporaryDirectory() as d, \
                mock.patch.object(disk, "COMPACT_SLACK_BYTES", 2048):
            store = FileBackedDiskStore(d, capacity)
            try:
                for op in ops:
                    if op[0] == "reopen":
                        store.close()
                        store = FileBackedDiskStore(d, capacity)
                    elif op[0] == "remove":
                        got = store.remove(op[1] * PAGE)
                        want = model.remove(op[1] * PAGE)
                        assert (got is None) == (want is None)
                    else:
                        _, slot, fill, size, dirty = op
                        new = StoredPage(slot * PAGE, bytes([fill]) * size,
                                         dirty)
                        outcomes = []
                        for level in (model, store):
                            try:
                                level.put(new)
                                outcomes.append(True)
                            except StorageExhausted:
                                outcomes.append(False)
                        assert outcomes[0] == outcomes[1]
                    assert sorted(store.addresses()) == sorted(model.addresses())
                    assert store.used_bytes() == model.used_bytes()
                    for address in model.addresses():
                        got, want = store.get(address), model.get(address)
                        assert (bytes(got.data), got.dirty) == (
                            bytes(want.data), want.dirty)
            finally:
                store.close()

    def test_a_stopped_node_never_appends_again(self, tmp_path):
        cluster = create_cluster(num_nodes=2, config=DaemonConfig(
            spill_dir=str(tmp_path / "spill")))
        kz = cluster.client(node=1)
        desc = kz.reserve(PAGE)
        kz.allocate(desc.rid)
        kz.write_at(desc.rid, b"before stop")
        node_dir = os.path.join(str(tmp_path / "spill"), "node1")
        old = cluster.daemon(1)
        cluster.run(2.0)
        cluster.crash(1)
        cluster.run(8.0)
        cluster.restart_node(1)          # stops the old incarnation
        size = log_size(node_dir)
        with pytest.raises(ValueError):
            old.storage.write_through(page(desc.rid, b"z"))
        with pytest.raises(ValueError):
            old.storage.disk.remove(desc.rid)
        assert log_size(node_dir) == size
        cluster.run(2.0)
        assert cluster.client(node=1).read_at(desc.rid, 11) == b"before stop"
        cluster.shutdown()


class TestHierarchy:
    def make(self, mem_pages=2, disk_pages=4, pinned=(), on_evict=None):
        pinned_set = set(pinned)
        return StorageHierarchy(
            memory=MemoryStore(mem_pages * PAGE),
            disk=DiskStore(disk_pages * PAGE),
            is_pinned=lambda a: a in pinned_set,
            on_disk_evict=on_evict or (lambda p: True),
        )

    def test_ram_hit_is_free(self):
        h = self.make()
        h.store(page(0))
        got, cost = h.load(0)
        assert got is not None and cost == 0.0
        assert h.stats.ram_hits == 1

    def test_victimization_to_disk(self):
        h = self.make(mem_pages=2)
        for i in range(3):
            h.store(page(i * PAGE))
        assert h.stats.victimized_to_disk == 1
        assert h.disk.contains(0)          # LRU victim was page 0
        assert h.memory.contains(2 * PAGE)

    def test_disk_hit_promotes_and_charges(self):
        h = self.make(mem_pages=2)
        for i in range(3):
            h.store(page(i * PAGE))
        got, cost = h.load(0)
        assert got is not None
        assert cost > 0
        assert h.stats.disk_hits == 1
        assert h.memory.contains(0)

    def test_miss_counted(self):
        h = self.make()
        got, _ = h.load(0xDEAD000)
        assert got is None
        assert h.stats.misses == 1

    def test_pinned_pages_never_victimized(self):
        h = self.make(mem_pages=2, pinned=(0,))
        h.store(page(0))
        h.store(page(PAGE))
        h.store(page(2 * PAGE))
        assert h.memory.contains(0)
        assert h.disk.contains(PAGE)

    def test_all_pinned_raises(self):
        h = self.make(mem_pages=2, pinned=(0, PAGE, 2 * PAGE))
        h.store(page(0))
        h.store(page(PAGE))
        with pytest.raises(StorageExhausted):
            h.store(page(2 * PAGE))

    def test_disk_eviction_invokes_consistency_hook(self):
        evicted = []
        h = self.make(mem_pages=1, disk_pages=1,
                      on_evict=lambda p: (evicted.append(p.address), True)[1])
        h.store(page(0))
        h.store(page(PAGE))       # 0 victimized to disk
        h.store(page(2 * PAGE))   # PAGE victimized; disk full: 0 evicted
        assert evicted == [0]
        assert h.stats.evicted_from_disk == 1

    def test_eviction_veto_raises(self):
        h = self.make(mem_pages=1, disk_pages=1, on_evict=lambda p: False)
        h.store(page(0))
        h.store(page(PAGE))
        with pytest.raises(StorageExhausted):
            h.store(page(2 * PAGE))

    def test_drop_removes_from_both_levels(self):
        h = self.make(mem_pages=1)
        h.store(page(0))
        h.store(page(PAGE))   # 0 now on disk
        assert h.drop(0).address == 0
        assert h.drop(PAGE).address == PAGE
        assert h.resident_addresses() == []

    def test_store_supersedes_stale_disk_copy(self):
        h = self.make(mem_pages=1)
        h.store(page(0, b"a"))
        h.store(page(PAGE))          # page 0 victimized to disk
        h.store(page(0, b"b"))       # fresh copy arrives
        got, _ = h.load(0)
        assert got.data[:1] == b"b"

    def test_mark_clean(self):
        h = self.make()
        h.store(page(0, b"a", dirty=True))
        assert h.dirty_addresses() == [0]
        h.mark_clean(0)
        assert h.dirty_addresses() == []

    def test_write_through_persists(self):
        h = self.make()
        h.write_through(page(0, b"m"))
        assert h.memory.contains(0)
        assert h.disk.contains(0)

    def test_hit_rate_stats(self):
        h = self.make()
        h.store(page(0))
        h.load(0)
        h.load(0xBAD000)
        assert h.stats.hit_rate() == 0.5
        assert h.stats.ram_hit_rate() == 0.5

    def test_returned_cost_is_the_accounted_cost(self):
        """Σ cost handed to the caller == Δ ``simulated_io_seconds``,
        through every cost-bearing path: disk hit, the victimization a
        store causes, write-through, and disk eviction.  A runtime
        that spends the model spends exactly what the stats say."""
        h = self.make(mem_pages=2, disk_pages=3)
        returned = 0.0
        for i in range(5):                    # RAM 2 + disk 3: both full
            returned += h.store(page(i * PAGE))
        assert h.stats.victimized_to_disk == 3
        # Disk hit on a full hierarchy: the reader is priced the read;
        # the victim its promotion pushes down is neither returned nor
        # accounted.
        _, cost = h.load(0)
        assert cost == access_cost(PAGE)
        assert h.stats.victimized_to_disk == 4
        returned += cost
        returned += h.store(page(5 * PAGE))   # victim goes down, disk evicts
        returned += h.write_through(page(6 * PAGE))   # and again, plus put
        assert h.stats.evicted_from_disk >= 2
        _, cost = h.load(6 * PAGE)            # RAM hit: free
        returned += cost
        _, cost = h.load(0xBAD000)            # miss: free
        returned += cost
        assert returned == pytest.approx(h.stats.simulated_io_seconds,
                                         rel=1e-12)
        assert returned > 0


class TestPageLogWritesEachPageOnce:
    """A durable node's log holds each page's bytes once: clearing a
    dirty bit is a header-only record, and a page the log already
    holds is not appended again when RAM victimizes it."""

    def test_clean_record_replays_as_clean_also_after_compaction(
            self, tmp_path, monkeypatch):
        d = str(tmp_path / "spill")
        with opened(d) as store:
            store.put(page(0x1000, b"a", dirty=True))
            before = log_size(d)
            store.mark_clean(0x1000)
            assert log_size(d) == before + HEADER_BYTES
            store.mark_clean(0x1000)          # already clean: no record
            assert log_size(d) == before + HEADER_BYTES
            assert store.get(0x1000).dirty is False
            assert store.used_bytes() == PAGE
        with opened(d) as revived:
            assert revived.get(0x1000).dirty is False
            assert revived.get(0x1000).data == b"a" * PAGE
            assert revived.used_bytes() == PAGE
        monkeypatch.setattr(disk, "COMPACT_SLACK_BYTES", 0)
        with opened(d) as store:
            for fill in b"bcd":
                store.put(page(0x2000, bytes([fill]), dirty=True))
        assert log_size(d) == 2 * (HEADER_BYTES + PAGE)   # compacted
        with opened(d) as revived:
            assert revived.get(0x1000).dirty is False
            assert revived.get(0x2000).dirty is True

    def test_torn_clean_record_at_the_tail_is_cut_off(self, tmp_path):
        d = str(tmp_path / "spill")
        with opened(d) as store:
            store.put(page(0x1000, b"a", dirty=True))
            kept = log_size(d)
            store.mark_clean(0x1000)
        for cut in range(kept, kept + HEADER_BYTES):
            with open(os.path.join(d, LOG_FILE), "r+b") as fh:
                fh.truncate(cut)
            with opened(d) as revived:
                assert revived.get(0x1000).dirty is True
            assert log_size(d) == kept

    def _durable(self, tmp_path, mem_pages=2):
        return StorageHierarchy(
            memory=MemoryStore(mem_pages * PAGE),
            disk=FileBackedDiskStore(str(tmp_path / "spill"), 8 * PAGE))

    def test_victimizing_a_logged_page_appends_nothing(self, tmp_path):
        h = self._durable(tmp_path, mem_pages=1)
        try:
            h.write_through(page(0, b"a", dirty=True))
            h.mark_clean(0)
            size = log_size(str(tmp_path / "spill"))
            cost = h.store(page(PAGE, b"b"))      # victimizes page 0
            assert h.stats.victimized_to_disk == 1
            assert cost == access_cost(PAGE)      # still charged
            assert log_size(str(tmp_path / "spill")) == size
            assert h.disk.get(0).data == b"a" * PAGE
            assert h.disk.get(0).dirty is False
        finally:
            h.disk.close()

    def test_a_durable_homes_write_and_release_append_the_page_once(
            self, tmp_path):
        cluster = create_cluster(num_nodes=2, config=DaemonConfig(
            enable_failure_handling=False, spill_dir=str(tmp_path)))
        try:
            kz = cluster.client(node=0)
            desc = kz.reserve(PAGE, RegionAttributes(
                consistency_level=ConsistencyLevel.RELEASE))
            kz.allocate(desc.rid)
            assert desc.primary_home == 0
            kz.write_at(desc.rid, b"warm")
            node_dir = os.path.join(str(tmp_path), "node0")
            size = log_size(node_dir)
            kz.write_at(desc.rid, b"w" * PAGE)
            assert log_size(node_dir) == size + 2 * HEADER_BYTES + PAGE
            assert cluster.daemon(0).storage.dirty_addresses() == []
        finally:
            cluster.shutdown()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["store", "write_through", "load", "mark_clean",
                         "drop"]),
        st.integers(0, 4), st.integers(1, 255), st.booleans()),
        max_size=40))
    def test_a_page_at_both_levels_is_the_same_at_each(self, ops):
        """The invariant the victimization skip relies on: a page held
        in RAM and on disk has equal bytes and an equal dirty bit."""
        with tempfile.TemporaryDirectory() as d:
            h = StorageHierarchy(memory=MemoryStore(2 * PAGE),
                                 disk=FileBackedDiskStore(d, 8 * PAGE))
            try:
                for name, slot, fill, dirty in ops:
                    address = slot * PAGE
                    if name in ("store", "write_through"):
                        getattr(h, name)(page(address, bytes([fill]), dirty))
                    elif name == "load":
                        h.load(address)
                    else:
                        getattr(h, name)(address)
                    for address in h.memory.addresses():
                        on_disk = h.disk.get(address)
                        if on_disk is not None:
                            in_ram = h.memory.peek(address)
                            assert (bytes(on_disk.data), on_disk.dirty) == (
                                bytes(in_ram.data), in_ram.dirty)
            finally:
                h.disk.close()


def _rstrip_decode(data):
    """The decoders' former reading of a padded page."""
    blob = data.rstrip(b"\x00")
    return json.loads(blob.decode("utf-8")) if blob else None


_json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-2**40, 2**40),
                       st.text(max_size=20))
_json_doc = st.dictionaries(
    st.text(max_size=10),
    st.recursive(_json_leaf, lambda inner: st.lists(inner, max_size=4)
                 | st.dictionaries(st.text(max_size=5), inner, max_size=4),
                 max_leaves=12),
    max_size=6)


class TestPaddedPageDecoders:
    """The four NUL-padded JSON decoders stop at the first NUL (one
    memchr) instead of stripping the padding byte by byte."""

    def test_unpad(self):
        assert unpad(b"") == b""
        assert unpad(b"abc") == b"abc"
        assert unpad(b"abc\x00\x00") == b"abc"
        assert unpad(b"\x00abc") == b""
        assert unpad(bytearray(b"ab\x00c")) == b"ab"

    @settings(max_examples=200, deadline=None)
    @given(_json_doc)
    def test_same_result_as_before_on_every_encoded_page(self, doc):
        page = encode_struct(doc, 16384)
        assert decode_struct(page) == (_rstrip_decode(page) or {}) == doc
        state = encode_state(doc, 16384)
        assert decode_state(state) == (_rstrip_decode(state) or {}) == doc
        context = dict(doc, magic=naming.MAGIC)
        page = naming._encode(context)
        assert naming._decode(page) == _rstrip_decode(page) == context

    def test_map_nodes_decode_as_before(self):
        nodes = [initial_root_node(), MapNode([]), MapNode(
            [MapEntry(AddressRange(1 << 40, 1 << 20), EntryState.RESERVED,
                      (1, 2)),
             MapEntry(AddressRange((1 << 40) + (1 << 20), 1 << 20),
                      EntryState.FREE, ())], next_free_page=8192)]
        for node in nodes:
            page = node.encode(4096)
            decoded = MapNode.decode(page)
            assert [[e.range.start, e.range.length, e.state.value,
                     list(e.data)] for e in decoded.entries] == (
                (_rstrip_decode(page) or {}).get("entries", []))
            assert decoded.next_free_page == node.next_free_page

    def test_empty_pages_decode_to_empty_documents(self):
        assert decode_struct(bytes(4096)) == {}
        assert decode_state(bytes(64)) == {}
        assert MapNode.decode(bytes(4096)).entries == []
        assert naming._decode(bytes(4096))["bindings"] == {}

    def test_a_nul_inside_the_json_still_raises(self):
        broken = b'{"size":\x0012}' + bytes(100)
        with pytest.raises(LayoutError):
            decode_struct(broken)
        with pytest.raises(ObjectError):
            decode_state(broken)
        with pytest.raises(json.JSONDecodeError):
            MapNode.decode(b'{"entries":[\x00]}' + bytes(100))
        with pytest.raises(json.JSONDecodeError):
            naming._decode(broken)
