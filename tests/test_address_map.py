"""Unit tests for the address-map tree over an in-memory page store.

These exercise the tree logic (carving, splitting, coalescing,
lookups) without a cluster; integration through real daemons is
covered by tests/test_core_api.py and tests/test_location.py.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.address_map import (
    MAX_ENTRIES,
    ROOT_PAGE,
    SYSTEM_REGION,
    AddressMap,
    EntryState,
    MapEntry,
    MapIO,
    MapNode,
    initial_root_node,
)
from repro.core.addressing import AddressRange, DEFAULT_PAGE_SIZE, MAX_ADDRESS
from repro.core.errors import (
    AddressSpaceExhausted,
    AlreadyReserved,
    InvalidRange,
    NotReserved,
)
from repro.core.locks import LockMode
from repro.net.tasks import TaskRunner


class FakePageStore(MapIO):
    """MapIO over a plain dict; generators never actually block.

    As the map's home (the default) it records the pages each mutation
    stores, in store order, and publishes; with ``ships_mutations`` it
    is a replica reading the same dict under READ locks."""

    def __init__(self, pages=None, ships_mutations=False):
        self.page_size = DEFAULT_PAGE_SIZE
        self.pages = pages if pages is not None else {
            ROOT_PAGE: initial_root_node().encode(self.page_size)}
        self.ships_mutations = ships_mutations
        self.locks_taken = []
        self.stored = []
        self.published = []

    def lock_page(self, page_addr, mode):
        self.locks_taken.append((page_addr, mode))
        return page_addr
        yield  # pragma: no cover

    def read_page(self, ctx, page_addr):
        return self.pages.get(page_addr, b"")
        yield  # pragma: no cover

    def unlock_page(self, ctx):
        return None
        yield  # pragma: no cover

    def load_page(self, page_addr):
        return self.pages.get(page_addr, b"")
        yield  # pragma: no cover

    def store_page(self, page_addr, data):
        self.stored.append(page_addr)
        self.pages[page_addr] = data
        return None
        yield  # pragma: no cover

    def publish(self, pages):
        assert [page for page, _ in pages] == self.stored[-len(pages):]
        self.published.append([page for page, _ in pages])
        return None
        yield  # pragma: no cover


def run(gen):
    outcome = TaskRunner().spawn(gen)
    return outcome.result()


@pytest.fixture
def amap():
    return AddressMap(FakePageStore())


FREE_BASE = SYSTEM_REGION.end


def tree_depth(pages):
    """Walk the tree held in ``pages`` and return the depth every leaf
    entry sits at, checking the balanced shape on the way: each page is
    reached once, and each node's entries partition exactly the range
    its parent entry gives it."""
    depths, seen = set(), set()

    def walk(page_addr, covers, depth):
        assert page_addr not in seen, f"page {page_addr:#x} reached twice"
        seen.add(page_addr)
        entries = MapNode.decode(pages[page_addr]).entries
        bounds = [(e.range.start, e.range.end) for e in entries]
        assert bounds[0][0] == covers.start
        assert bounds[-1][1] == covers.end
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        for entry in entries:
            if entry.state is EntryState.SUBTREE:
                walk(entry.child_page, entry.range, depth + 1)
            else:
                depths.add(depth)

    walk(ROOT_PAGE, AddressRange.from_bounds(0, MAX_ADDRESS + 1), 0)
    assert len(depths) == 1, f"leaves at depths {sorted(depths)}"
    return depths.pop()


def root_of(amap):
    return MapNode.decode(amap.io.pages[ROOT_PAGE])


class TestMapNode:
    def test_encode_decode_roundtrip(self):
        node = initial_root_node()
        clone = MapNode.decode(node.encode(DEFAULT_PAGE_SIZE))
        assert clone.entries == node.entries
        assert clone.next_free_page == node.next_free_page

    def test_encoding_is_the_compact_json_document(self):
        entries = [
            MapEntry(AddressRange(0, 1 << 20), EntryState.RESERVED, (3, 4)),
            MapEntry(AddressRange(1 << 20, 1 << 30), EntryState.DELEGATED,
                     (2,)),
            MapEntry(AddressRange((1 << 20) + (1 << 30), 1 << 20),
                     EntryState.SUBTREE, (8192,)),
            MapEntry(AddressRange.from_bounds((2 << 20) + (1 << 30),
                                              MAX_ADDRESS + 1),
                     EntryState.FREE),
        ]
        for node in (MapNode(entries, next_free_page=12288),
                     MapNode(entries), MapNode([])):
            doc = {"entries": [[e.range.start, e.range.length,
                                e.state.value, list(e.data)]
                               for e in node.entries]}
            if node.next_free_page is not None:
                doc["next_free_page"] = node.next_free_page
            blob = json.dumps(doc, separators=(",", ":")).encode("ascii")
            assert node.encode(DEFAULT_PAGE_SIZE) == blob + bytes(
                DEFAULT_PAGE_SIZE - len(blob))

    def test_decode_empty_page(self):
        assert MapNode.decode(b"\x00" * 128).entries == []

    def test_entry_covering(self):
        node = initial_root_node()
        assert node.entry_covering(0).state is EntryState.RESERVED
        assert node.entry_covering(FREE_BASE).state is EntryState.FREE
        assert node.entry_covering(MAX_ADDRESS).state is EntryState.FREE

    def test_coalesce_free(self):
        node = MapNode(
            entries=[
                MapEntry(AddressRange(0, 100), EntryState.FREE),
                MapEntry(AddressRange(100, 100), EntryState.FREE),
                MapEntry(AddressRange(200, 100), EntryState.RESERVED, (1,)),
                MapEntry(AddressRange(300, 100), EntryState.FREE),
            ]
        )
        node.coalesce_free()
        assert len(node.entries) == 3
        assert node.entries[0].range == AddressRange(0, 200)


class TestLookupAndReserve:
    def test_initial_lookup(self, amap):
        entry = run(amap.lookup(0))
        assert entry.state is EntryState.RESERVED
        assert entry.home_nodes == (0,)
        assert run(amap.lookup(FREE_BASE)).state is EntryState.FREE

    def test_reserve_then_lookup(self, amap):
        target = AddressRange(FREE_BASE, 0x10000)
        run(amap.reserve(target, (3, 4)))
        entry = run(amap.lookup(FREE_BASE))
        assert entry.state is EntryState.RESERVED
        assert entry.range == target
        assert entry.home_nodes == (3, 4)

    def test_reserve_in_middle_splits_free(self, amap):
        target = AddressRange(FREE_BASE + 0x100000, 0x1000)
        run(amap.reserve(target, (1,)))
        assert run(amap.lookup(FREE_BASE)).state is EntryState.FREE
        assert run(amap.lookup(target.start)).state is EntryState.RESERVED
        assert run(amap.lookup(target.end)).state is EntryState.FREE

    def test_double_reserve_rejected(self, amap):
        target = AddressRange(FREE_BASE, 0x1000)
        run(amap.reserve(target, (1,)))
        with pytest.raises(AlreadyReserved):
            run(amap.reserve(target, (2,)))

    def test_straddling_reserve_rejected(self, amap):
        run(amap.reserve(AddressRange(FREE_BASE, 0x1000), (1,)))
        with pytest.raises((AlreadyReserved, InvalidRange)):
            run(amap.reserve(
                AddressRange(FREE_BASE + 0x800, 0x1000), (2,)
            ))

    def test_release_returns_to_free_and_coalesces(self, amap):
        target = AddressRange(FREE_BASE, 0x1000)
        run(amap.reserve(target, (1,)))
        run(amap.release(target))
        entry = run(amap.lookup(FREE_BASE))
        assert entry.state is EntryState.FREE
        # Coalesced back into the single huge free entry.
        assert entry.range.end == MAX_ADDRESS + 1

    def test_release_unreserved_rejected(self, amap):
        with pytest.raises(NotReserved):
            run(amap.release(AddressRange(FREE_BASE, 0x1000)))

    def test_update_homes(self, amap):
        target = AddressRange(FREE_BASE, 0x1000)
        run(amap.reserve(target, (1,)))
        run(amap.update_homes(target, (2, 5)))
        assert run(amap.lookup(FREE_BASE)).home_nodes == (2, 5)


class TestDelegation:
    def test_delegate_then_reserve_inside(self, amap):
        chunk = AddressRange(FREE_BASE, 1 << 30)
        run(amap.delegate(chunk, 7))
        entry = run(amap.lookup(FREE_BASE))
        assert entry.state is EntryState.DELEGATED
        assert entry.manager_node == 7
        inner = AddressRange(FREE_BASE + 0x4000, 0x1000)
        run(amap.reserve(inner, (7,)))
        assert run(amap.lookup(inner.start)).state is EntryState.RESERVED
        assert run(amap.lookup(FREE_BASE)).state is EntryState.DELEGATED

    def test_delegate_requires_free(self, amap):
        run(amap.reserve(AddressRange(FREE_BASE, 0x1000), (1,)))
        with pytest.raises(NotReserved):
            run(amap.delegate(AddressRange(FREE_BASE, 0x1000), 3))


class TestFindFree:
    def test_finds_aligned_extent(self, amap):
        found = run(amap.find_free(0x10000, alignment=0x10000))
        assert found.start % 0x10000 == 0
        assert found.length == 0x10000
        assert run(amap.lookup(found.start)).state is EntryState.FREE

    def test_skips_reserved(self, amap):
        run(amap.reserve(AddressRange(FREE_BASE, 0x1000), (1,)))
        found = run(amap.find_free(0x1000, alignment=0x1000))
        assert found.start >= FREE_BASE + 0x1000

    def test_exhaustion_raises(self, amap):
        # Ask for more than the entire address space.
        with pytest.raises((AddressSpaceExhausted, ValueError)):
            run(amap.find_free(MAX_ADDRESS + 1, alignment=1))


class TestSplitting:
    def test_node_splits_after_many_reserves(self, amap):
        for i in range(MAX_ENTRIES + 4):
            # Leave gaps so FREE fragments can't coalesce away.
            start = FREE_BASE + i * 0x10000
            run(amap.reserve(AddressRange(start, 0x4000), (i,)))
        root = MapNode.decode(amap.io.pages[ROOT_PAGE])
        assert any(e.state is EntryState.SUBTREE for e in root.entries)
        # Every reservation still resolves correctly through subtrees.
        for i in range(MAX_ENTRIES + 4):
            start = FREE_BASE + i * 0x10000
            entry = run(amap.lookup(start))
            assert entry.state is EntryState.RESERVED
            assert entry.home_nodes == (i,)

    def test_enumerate_reserved_spans_subtrees(self, amap):
        count = MAX_ENTRIES + 4
        for i in range(count):
            start = FREE_BASE + i * 0x10000
            run(amap.reserve(AddressRange(start, 0x4000), (i,)))
        reserved = run(amap.enumerate_reserved())
        # +1 for the system region itself.
        assert len(reserved) == count + 1


class TestBalance:
    def test_ascending_reserves_keep_the_tree_shallow(self, amap):
        """Reservations carve ascending addresses, the pattern that once
        grew the right spine a level per ~16 entries.  The tree stays
        balanced and shallow, and a carve publishes at most one page per
        level (plus the fresh pages a split writes) and takes no lock."""
        io = amap.io
        ranges = [AddressRange(FREE_BASE + i * 0x10000, 0x4000)
                  for i in range(2000)]

        def carve(op):
            done, pages = len(io.published), root_of(amap).next_free_page
            run(op)
            fresh = (root_of(amap).next_free_page - pages) // io.page_size
            return sum(map(len, io.published[done:])) - fresh

        published = [carve(amap.reserve(rng, (1,))) for rng in ranges]
        published += [carve(amap.release(rng)) for rng in ranges[::2]]
        depth = tree_depth(io.pages)
        assert depth <= 3
        assert 1 <= min(published) and max(published) <= depth + 1
        assert io.locks_taken == []
        for i, rng in enumerate(ranges):
            entry = run(amap.lookup(rng.start))
            assert entry.state is (EntryState.FREE if i % 2 == 0
                                   else EntryState.RESERVED)

    def test_a_carve_inside_one_leaf_writes_only_that_leaf(self, amap):
        for i in range(3 * MAX_ENTRIES):
            start = FREE_BASE + i * 0x10000
            run(amap.reserve(AddressRange(start, 0x4000), (i,)))
        assert tree_depth(amap.io.pages) == 1
        io = amap.io
        io.stored.clear()
        io.published.clear()
        run(amap.update_homes(AddressRange(FREE_BASE, 0x4000), (9,)))
        leaf = root_of(amap).entry_covering(FREE_BASE).child_page
        assert (io.stored, io.published) == ([leaf], [[leaf]])
        io.stored.clear()
        io.published.clear()
        run(amap.update_homes(AddressRange(FREE_BASE, 0x4000), (9,)))
        # Nothing changed, nothing written.
        assert (io.stored, io.published) == ([], [])

    def test_the_resident_tree_is_the_reachable_tree(self, amap):
        """A split leaves the split page stored for stale replicas but
        drops it from the home's resident nodes."""
        for i in range(4 * MAX_ENTRIES):
            start = FREE_BASE + i * 0x10000
            run(amap.reserve(AddressRange(start, 0x4000), (i,)))
        reachable, pages = set(), [ROOT_PAGE]
        while pages:
            page = pages.pop()
            reachable.add(page)
            pages += [e.child_page for e in MapNode.decode(
                amap.io.pages[page]).entries if e.state is EntryState.SUBTREE]
        assert set(amap.resident) == reachable < set(amap.io.pages)
        for page, node in amap.resident.items():
            assert node.encode(DEFAULT_PAGE_SIZE) == amap.io.pages[page]

    def test_stale_parent_still_resolves_every_key(self, amap):
        """Copy-on-split: a split writes both halves to fresh pages and
        leaves the split node's page as it was, so a reader holding the
        pre-split root still resolves every key as before the split."""
        keys = []
        for i in range(10 * MAX_ENTRIES):
            before = dict(amap.io.pages)
            root = root_of(amap)
            start = FREE_BASE + i * 0x10000
            keys += [start, start + 0x4000]
            run(amap.reserve(AddressRange(start, 0x4000), (i,)))
            if (all(e.state is EntryState.SUBTREE for e in root.entries)
                    and len(root_of(amap).entries) > len(root.entries)):
                break   # a leaf split sideways into the root
        else:
            pytest.fail("no split below the root")
        stale = FakePageStore({**amap.io.pages, ROOT_PAGE: before[ROOT_PAGE]},
                              ships_mutations=True)
        snapshot = FakePageStore(before, ships_mutations=True)
        for key in keys:
            assert (run(AddressMap(stale).lookup(key))
                    == run(AddressMap(snapshot).lookup(key)))


class TestMapProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=400),
                st.integers(min_value=1, max_value=8),
                st.integers(min_value=0, max_value=3).map(lambda n: n == 0),
            ),
            min_size=120,
            max_size=240,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_partition_invariant(self, ops):
        """After arbitrary reserve/release sequences — long enough for
        leaves to split below the root — the tree is balanced and still
        partitions the whole address space into disjoint entries."""
        amap = AddressMap(FakePageStore())
        live = {}
        for slot, pages, do_release in ops:
            start = FREE_BASE + slot * 0x10000
            rng = AddressRange(start, pages * DEFAULT_PAGE_SIZE)
            if do_release and start in live:
                run(amap.release(live.pop(start)))
            elif start not in live:
                overlapping = any(
                    rng.overlaps(other) for other in live.values()
                )
                if overlapping:
                    continue
                try:
                    run(amap.reserve(rng, (1,)))
                except InvalidRange:
                    # Free space split across two nodes is never
                    # coalesced (the paper skips cross-node
                    # defragmentation), so a range spanning it is refused.
                    first = run(amap.lookup(start))
                    assert first.state is EntryState.FREE
                    assert first.range.end < rng.end
                    continue
                live[start] = rng
        # Every live reservation resolves; released space is free.
        for start, rng in live.items():
            entry = run(amap.lookup(start))
            assert entry.state is EntryState.RESERVED
            assert entry.range == rng
        entries = run(amap.enumerate_reserved())
        assert len(entries) == len(live) + 1   # + system region
        tree_depth(amap.io.pages)


def state_of(amap):
    """The home's resident nodes, encoded, and its stored pages."""
    resident = {page: node.encode(DEFAULT_PAGE_SIZE)
                for page, node in amap.resident.items()}
    return resident, dict(amap.io.pages)


class TestFailedMutations:
    """A mutation edits copies of the resident nodes: one that raises
    leaves both the resident tree and the stored pages as they were."""

    def assert_unchanged(self, amap, mutation, error):
        run(amap.lookup(FREE_BASE))   # fill the resident tree
        io, before = amap.io, state_of(amap)
        writes = (len(io.stored), len(io.published))
        with pytest.raises(error):
            run(mutation)
        assert state_of(amap) == before
        assert (len(io.stored), len(io.published)) == writes

    def test_reserve_of_reserved_space(self, amap):
        target = AddressRange(FREE_BASE, 0x1000)
        run(amap.reserve(target, (1,)))
        self.assert_unchanged(amap, amap.reserve(target, (2,)),
                              AlreadyReserved)

    def test_release_of_free_space(self, amap):
        self.assert_unchanged(
            amap, amap.release(AddressRange(FREE_BASE, 0x1000)), NotReserved)

    def test_extend_into_a_reserved_tail(self, amap):
        first = AddressRange(FREE_BASE, 0x4000)
        run(amap.reserve(first, (1,)))
        run(amap.reserve(AddressRange(first.end, 0x4000), (2,)))
        self.assert_unchanged(amap, amap.extend(first, 0x8000),
                              AddressSpaceExhausted)

    def test_split_in_a_full_system_region(self):
        root = initial_root_node()
        root.next_free_page = SYSTEM_REGION.end - DEFAULT_PAGE_SIZE
        amap = AddressMap(FakePageStore(
            {ROOT_PAGE: root.encode(DEFAULT_PAGE_SIZE)}))
        # Each gapped reserve adds two entries; the 16th overflows the
        # root, whose split needs two tree pages where one is left.
        for i in range(15):
            run(amap.reserve(AddressRange(FREE_BASE + i * 0x10000, 0x4000),
                             (i,)))
        assert len(root_of(amap).entries) == MAX_ENTRIES - 1
        self.assert_unchanged(
            amap, amap.reserve(AddressRange(FREE_BASE + 15 * 0x10000, 0x4000),
                               (15,)),
            AddressSpaceExhausted)


class TestReplicaReads:
    def test_a_replica_reads_the_stored_tree_under_read_locks(self, amap):
        for i in range(3 * MAX_ENTRIES):
            run(amap.reserve(AddressRange(FREE_BASE + i * 0x10000, 0x4000),
                             (i,)))
        replica = AddressMap(FakePageStore(amap.io.pages,
                                           ships_mutations=True))
        assert (run(replica.enumerate_reserved())
                == run(amap.enumerate_reserved()))
        assert replica.resident == {}
        depth = tree_depth(amap.io.pages)
        run(replica.lookup(FREE_BASE))
        locks = replica.io.locks_taken[-(depth + 1):]
        assert [mode for _page, mode in locks] == [LockMode.READ] * (depth + 1)
