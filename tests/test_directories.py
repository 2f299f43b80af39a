"""Tests for the per-node region directory and page directory."""

import random
from collections import OrderedDict
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cluster as cluster_mod
from repro.core.addressing import AddressRange
from repro.core.attributes import RegionAttributes
from repro.core.page_directory import PageDirectory
from repro.core.region import RegionDescriptor
from repro.core.region_directory import RangeIndex, RegionDirectory


def desc(start, length=0x4000, homes=(1,), version=None):
    d = RegionDescriptor(
        range=AddressRange(start, length),
        attrs=RegionAttributes(),
        home_nodes=homes,
    )
    if version is not None:
        object.__setattr__(d, "version", version)
    return d


class TestRegionDirectory:
    def test_insert_and_get(self):
        rd = RegionDirectory()
        d = desc(0x10000)
        rd.insert(d)
        assert rd.get(0x10000) is d

    def test_find_covering(self):
        rd = RegionDirectory()
        rd.insert(desc(0x10000, 0x4000))
        hit = rd.find_covering(0x12000)
        assert hit is not None and hit.rid == 0x10000
        assert rd.find_covering(0x20000) is None

    def test_lru_eviction(self):
        rd = RegionDirectory(capacity=2)
        a, b, c = desc(0x10000), desc(0x20000), desc(0x30000)
        rd.insert(a)
        rd.insert(b)
        rd.get(0x10000)     # refresh a
        rd.insert(c)        # evicts b
        assert rd.get(0x20000) is None
        assert rd.get(0x10000) is not None
        assert rd.get(0x30000) is not None

    def test_pinned_entries_never_evicted(self):
        rd = RegionDirectory(capacity=1)
        system = desc(0)
        rd.pin(system)
        rd.insert(desc(0x10000))
        rd.insert(desc(0x20000))
        assert rd.get(0) is system
        assert rd.find_covering(0x100).rid == 0

    def test_newer_version_wins(self):
        rd = RegionDirectory()
        old = desc(0x10000, version=5)
        new = desc(0x10000, version=9)
        rd.insert(new)
        rd.insert(old)   # stale insert must not clobber
        assert rd.get(0x10000).version == 9
        rd.insert(desc(0x10000, version=12))
        assert rd.get(0x10000).version == 12

    def test_invalidate(self):
        rd = RegionDirectory()
        rd.insert(desc(0x10000))
        rd.invalidate(0x10000)
        assert rd.get(0x10000) is None

    def test_hit_rate_accounting(self):
        rd = RegionDirectory()
        rd.insert(desc(0x10000))
        rd.get(0x10000)
        rd.get(0x99000)
        assert rd.hit_rate() == 0.5
        rd.reset_stats()
        assert rd.hit_rate() == 0.0


SLOT = 0x10000


class _ScanDirectory:
    """The region directory as a linear scan: the model for the index."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.lru = OrderedDict()

    def insert(self, d):
        old = self.lru.get(d.rid)
        if old is None or old.version <= d.version:
            self.lru[d.rid] = d
        self.lru.move_to_end(d.rid)
        while len(self.lru) > self.capacity:
            self.lru.popitem(last=False)

    def find_covering(self, address):
        for rid, d in self.lru.items():
            if d.range.contains(address):
                self.lru.move_to_end(rid)
                return d
        return None


class _ScanHints:
    """The cluster manager's hint cache as a linear scan."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.lru = OrderedDict()

    def cached(self, d, node):
        known, nodes = self.lru.get(d.rid, (d, set()))
        if d.version >= known.version:
            known = d
        nodes.add(node)
        self.lru[d.rid] = (known, nodes)
        self.lru.move_to_end(d.rid)
        while len(self.lru) > self.capacity:
            self.lru.popitem(last=False)

    def dropped(self, rid, node):
        if rid in self.lru:
            self.lru[rid][1].discard(node)
            if not self.lru[rid][1]:
                del self.lru[rid]

    def lookup(self, address):
        for d, nodes in self.lru.values():
            if d.range.contains(address) and nodes:
                return d, set(nodes)
        return None


#: Disjoint ranges: slot ``s`` starts at ``(s + 1) * SLOT`` and is at
#: most one slot long, so only ranges with the same start overlap.
_op = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 7),
              st.sampled_from([0x1000, 0x8000, SLOT]), st.integers(0, 3)),
    st.tuples(st.just("drop"), st.integers(0, 7), st.integers(1, 2)),
    st.tuples(st.just("find"), st.one_of(
        st.integers(0, 10 * SLOT),
        st.integers(0, 10 * SLOT // 0x1000).map(lambda k: k * 0x1000),
        st.integers(1, 8).map(lambda k: k * SLOT))),
)


class TestRangeIndex:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_op, max_size=60))
    def test_find_covering_agrees_with_a_linear_scan(self, ops):
        rd, model = RegionDirectory(capacity=3), _ScanDirectory(3)
        for op in ops:
            if op[0] == "insert":
                d = desc((op[1] + 1) * SLOT, op[2], version=op[3])
                rd.insert(d)
                model.insert(d)
            elif op[0] == "drop":
                rd.invalidate((op[1] + 1) * SLOT)
                model.lru.pop((op[1] + 1) * SLOT, None)
            else:
                assert rd.find_covering(op[1]) is model.find_covering(op[1])
            assert rd.entries() == list(model.lru.values())

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_op, max_size=60))
    def test_lookup_hint_agrees_with_a_linear_scan(self, ops):
        with mock.patch.object(cluster_mod, "HINT_CAPACITY", 3):
            role, model = cluster_mod.ClusterManagerRole(None), _ScanHints(3)
            for op in ops:
                if op[0] == "insert":
                    d = desc((op[1] + 1) * SLOT, op[2], version=op[3])
                    role.note_region_cached(d, op[3] % 2 + 1)
                    model.cached(d, op[3] % 2 + 1)
                elif op[0] == "drop":
                    role.note_region_dropped((op[1] + 1) * SLOT, op[2])
                    model.dropped((op[1] + 1) * SLOT, op[2])
                else:
                    got, want = role.lookup_hint(op[1]), model.lookup(op[1])
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert got[0] is want[0] and got[1] == want[1]
                assert role.hinted_regions() == len(model.lru)

    def test_an_insert_evicts_every_overlapping_entry(self):
        rd = RegionDirectory()
        rd.insert(desc(0x10000, 0x4000))
        rd.insert(desc(0x14000, 0x4000))
        rd.insert(desc(0x20000, 0x4000))
        # A newer region spans both of the first two: they are stale.
        wide = desc(0x12000, 0x8000)
        rd.insert(wide)
        assert rd.get(0x10000) is None and rd.get(0x14000) is None
        assert rd.find_covering(0x11000) is None
        assert rd.find_covering(0x16000) is wide
        assert rd.find_covering(0x21000).rid == 0x20000
        assert len(rd) == 2

        role = cluster_mod.ClusterManagerRole(None)
        role.note_region_cached(desc(0x10000, 0x4000), 1)
        role.note_region_cached(desc(0x20000, 0x4000), 2)
        role.note_region_cached(desc(0x13000, 0x10000), 3)
        assert role.hinted_regions() == 1
        found, nodes = role.lookup_hint(0x20000)
        assert found.rid == 0x13000 and nodes == {3}

    def test_capacity_eviction_drops_the_range_too(self):
        rd = RegionDirectory(capacity=2)
        for start in (0x10000, 0x20000, 0x30000):
            rd.insert(desc(start, 0x1000))
        assert rd.find_covering(0x10000) is None
        with mock.patch.object(cluster_mod, "HINT_CAPACITY", 2):
            role = cluster_mod.ClusterManagerRole(None)
            for start in (0x10000, 0x20000, 0x30000):
                role.note_region_cached(desc(start, 0x1000), 1)
            assert role.lookup_hint(0x10000) is None

    def test_range_index_reports_what_it_evicted(self):
        index = RangeIndex()
        assert index.add(0x1000, 0x2000) == []
        assert index.add(0x3000, 0x4000) == []
        assert index.add(0x1000, 0x1800) == []          # same start: replaced
        assert index.covering(0x1800) is None          # ends are exclusive
        assert index.add(0x1800, 0x3001) == [0x3000]
        assert index.covering(0x17FF) == 0x1000
        assert index.covering(0x3000) == 0x1800
        index.discard(0x1000)
        assert index.covering(0x1000) is None


class TestPageDirectory:
    def test_ensure_creates_once(self):
        pd = PageDirectory(node_id=1)
        e1 = pd.ensure(0x1000, rid=0x1000, homed=True)
        e2 = pd.ensure(0x1000, rid=0x1000, homed=False)
        assert e1 is e2
        assert e1.homed   # never downgraded

    def test_hint_upgraded_to_homed(self):
        pd = PageDirectory(node_id=1)
        pd.ensure(0x1000, rid=0x1000, homed=False)
        entry = pd.ensure(0x1000, rid=0x1000, homed=True)
        assert entry.homed

    def test_sharer_tracking(self):
        pd = PageDirectory(node_id=1)
        entry = pd.ensure(0x1000, rid=0x1000, homed=True)
        entry.record_sharer(2)
        entry.record_sharer(3)
        entry.owner = 3
        assert entry.copyset_excluding(2) == [3]
        entry.forget_sharer(3)
        assert entry.owner is None
        assert entry.sharers == {2}

    def test_entries_for_region_sorted(self):
        pd = PageDirectory(node_id=1)
        pd.ensure(0x3000, rid=0x1000, homed=True)
        pd.ensure(0x1000, rid=0x1000, homed=True)
        pd.ensure(0x9000, rid=0x9000, homed=True)
        addrs = [e.address for e in pd.entries_for_region(0x1000)]
        assert addrs == [0x1000, 0x3000]

    def test_homed_vs_hint_partition(self):
        pd = PageDirectory(node_id=1)
        pd.ensure(0x1000, rid=0x1000, homed=True)
        pd.ensure(0x2000, rid=0x1000, homed=False)
        assert [e.address for e in pd.homed_entries()] == [0x1000]
        assert [e.address for e in pd.hint_entries()] == [0x2000]

    def test_drop_region(self):
        pd = PageDirectory(node_id=1)
        pd.ensure(0x1000, rid=0x1000, homed=True)
        pd.ensure(0x2000, rid=0x1000, homed=True)
        pd.ensure(0x9000, rid=0x9000, homed=True)
        assert pd.drop_region(0x1000) == 2
        assert len(pd) == 1

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_region_index_matches_a_full_scan(self, seed):
        rng = random.Random(seed)
        pd = PageDirectory(node_id=1)
        rids = [0x10000 * i for i in range(1, 5)]

        def scan(rid):
            return [e for e in pd if e.rid == rid]

        for _ in range(200):
            rid = rng.choice(rids)
            address = rid + 0x1000 * rng.randrange(8)
            roll = rng.random()
            if roll < 0.6:
                pd.ensure(address, rid=rid, homed=rng.random() < 0.5)
            elif roll < 0.9:
                pd.drop(address)
            else:
                expected = len(scan(rid))
                assert pd.drop_region(rid) == expected
            for each in rids:
                assert pd.entries_for_region(each) == scan(each)

    def test_forget_node_scrubs_copysets(self):
        pd = PageDirectory(node_id=1)
        a = pd.ensure(0x1000, rid=0x1000, homed=True)
        a.record_sharer(5)
        a.owner = 5
        b = pd.ensure(0x2000, rid=0x1000, homed=True)
        b.record_sharer(2)
        touched = pd.forget_node(5)
        assert [e.address for e in touched] == [0x1000]
        assert a.owner is None and 5 not in a.sharers
        assert b.sharers == {2}
