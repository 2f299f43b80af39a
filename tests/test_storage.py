"""Tests for the local storage hierarchy (paper Section 3.4)."""

import pytest

from repro.core.errors import StorageExhausted
from repro.storage.disk import DiskStore, FileBackedDiskStore, access_cost
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.memory import MemoryStore
from repro.storage.store import StoredPage

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


class TestFileBackedDiskStore:
    def test_persistence_across_instances(self, tmp_path):
        d = str(tmp_path / "spill")
        store = FileBackedDiskStore(d, 16 * PAGE)
        store.put(page(0x1000, b"p", dirty=True))
        store.put(page(0x2000, b"q"))
        # A "restarted daemon" re-scans the same directory.
        revived = FileBackedDiskStore(d, 16 * PAGE)
        assert sorted(revived.addresses()) == [0x1000, 0x2000]
        got = revived.get(0x1000)
        assert got.data[:1] == b"p"
        assert got.dirty is True
        assert revived.get(0x2000).dirty is False

    def test_dirty_transition_renames(self, tmp_path):
        d = str(tmp_path / "spill")
        store = FileBackedDiskStore(d, 16 * PAGE)
        store.put(page(0x1000, b"a", dirty=True))
        store.put(page(0x1000, b"b", dirty=False))
        revived = FileBackedDiskStore(d, 16 * PAGE)
        assert revived.get(0x1000).dirty is False
        assert revived.used_bytes() == PAGE

    def test_remove_deletes_file(self, tmp_path):
        d = str(tmp_path / "spill")
        store = FileBackedDiskStore(d, 16 * PAGE)
        store.put(page(0x1000))
        store.remove(0x1000)
        assert FileBackedDiskStore(d, 16 * PAGE).addresses() == []


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
