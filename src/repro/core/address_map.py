"""The distributed address map tree.

Paper Section 3.1: "Khazana maintains a globally distributed data
structure called the address map ... used to keep track of reserved
and free regions within the global address space [and] to locate the
home nodes of regions ... The address map is implemented as a
distributed tree where each subtree describes a range of global
address space in finer detail.  Each tree node is of fixed size and
contains a set of entries describing disjoint global memory regions,
each of which contains either a non-exhaustive list of home nodes for
a reserved region or points to the root node of a subtree describing
the region in finer detail.  The address map itself resides in
Khazana.  A well-known region beginning at address 0 stores the root
node of the address map tree."

This module is faithful to that design: tree nodes are fixed-size
pages inside the *system region* at address 0, replicated and kept
release-consistent like any other region.  Away from the map's home
the tree is read through the ordinary Khazana lock/read path; the home
keeps it decoded and resident, and a mutation there stores and
publishes the pages it changed.  The tree logic is written as
generators over the narrow :class:`MapIO` protocol; the daemon
supplies the I/O.
"""

from __future__ import annotations

import abc
import enum
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.core.addressing import DEFAULT_PAGE_SIZE, MAX_ADDRESS, AddressRange
from repro.core.errors import (AddressSpaceExhausted, AlreadyReserved,
                               InvalidRange, KhazanaError, NotReserved)
from repro.core.locks import LockMode
from repro.storage.store import unpad

#: The well-known system region holding the address-map tree: the
#: first 16 MiB of the global address space (4096 tree pages).
SYSTEM_REGION = AddressRange(0, 16 * 1024 * 1024)

#: The region id of the well-known address-map region.
SYSTEM_RID = SYSTEM_REGION.start

#: The root tree node lives in the very first page.
ROOT_PAGE = 0

#: Fixed tree-node fanout.  With JSON encoding, 32 entries fit a
#: 4 KiB page with room to spare.
MAX_ENTRIES = 32

ProtocolGen = Generator[Any, Any, Any]


class EntryState(str, enum.Enum):
    """What an address-map entry says about its range."""

    FREE = "free"              # unreserved global address space
    RESERVED = "reserved"      # a live region; data = home node list
    DELEGATED = "delegated"    # chunk handed to a node to manage locally
    SUBTREE = "subtree"        # described in finer detail by a child page


@dataclass(frozen=True)
class MapEntry:
    """One entry of a tree node, covering a disjoint address range.

    ``data`` is state-dependent: the (non-exhaustive) home-node list
    for RESERVED, the managing node id for DELEGATED, the child page
    address for SUBTREE, and empty for FREE.
    """

    range: AddressRange
    state: EntryState
    data: Tuple[int, ...] = ()

    @property
    def home_nodes(self) -> Tuple[int, ...]:
        if self.state is not EntryState.RESERVED:
            raise ValueError(f"{self.state.value} entry has no home nodes")
        return self.data

    @property
    def manager_node(self) -> int:
        if self.state is not EntryState.DELEGATED:
            raise ValueError(f"{self.state.value} entry has no manager")
        return self.data[0]

    @property
    def child_page(self) -> int:
        if self.state is not EntryState.SUBTREE:
            raise ValueError(f"{self.state.value} entry has no child page")
        return self.data[0]

    @cached_property
    def wire(self) -> str:
        """This entry's JSON text in an encoded page (built once)."""
        return (f'[{self.range.start},{self.range.length},'
                f'"{self.state.value}",[{",".join(map(str, self.data))}]]')


class MapNode:
    """In-memory form of one fixed-size tree page."""

    def __init__(self, entries: List[MapEntry],
                 next_free_page: Optional[int] = None) -> None:
        #: Entries sorted by range start (callers pass them so, and
        #: encode keeps the order), jointly partitioning its range.
        self.entries = list(entries)
        #: Only meaningful on the root node: bump allocator for new
        #: tree pages within the system region.
        self.next_free_page = next_free_page

    def encode(self, page_size: int) -> bytes:
        # Compact JSON: {"entries": [...], "next_free_page": n}.
        tail = ("" if self.next_free_page is None
                else f',"next_free_page":{self.next_free_page}')
        blob = ('{"entries":[' + ",".join(e.wire for e in self.entries)
                + "]" + tail + "}").encode("ascii")
        if len(blob) > page_size:
            raise KhazanaError(
                f"address-map node overflow: {len(blob)} > {page_size} bytes"
            )
        return blob + b"\x00" * (page_size - len(blob))

    @classmethod
    def decode(cls, data: bytes) -> "MapNode":
        blob = unpad(data)
        if not blob:
            return cls(entries=[])
        doc = json.loads(blob.decode("ascii"))
        return cls([MapEntry(AddressRange(int(start), int(length)),
                             EntryState(state), tuple(int(x) for x in data))
                    for start, length, state, data in doc.get("entries", [])],
                   doc.get("next_free_page"))

    def _index(self, address: int) -> int:
        """Bisect for the last entry starting at or before ``address``."""
        entries, lo, hi = self.entries, 0, len(self.entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if entries[mid].range.start <= address:
                lo = mid + 1
            else:
                hi = mid
        return lo - 1

    def entry_covering(self, address: int) -> Optional[MapEntry]:
        index = self._index(address)
        entry = self.entries[index] if index >= 0 else None
        return entry if entry and entry.range.contains(address) else None

    def replace_entry(self, old: MapEntry, new: List[MapEntry]) -> None:
        """Put ``new``, which starts where ``old`` does, in its place."""
        index = self._index(old.range.start)
        self.entries[index:index + 1] = sorted(new, key=lambda e: e.range.start)

    def coalesce_free(self) -> None:
        """Merge adjacent FREE entries (within this node only; the
        paper explicitly skips cross-node defragmentation)."""
        merged: List[MapEntry] = []
        for entry in self.entries:
            last = merged[-1] if merged else None
            if (last is not None and last.state is entry.state is EntryState.FREE
                    and last.range.end == entry.range.start):
                merged[-1] = MapEntry(last.range.union(entry.range),
                                      EntryState.FREE)
            else:
                merged.append(entry)
        self.entries = merged


class MapIO(abc.ABC):
    """Page access the address map needs from its host daemon: replica
    reads under READ locks away from the map's home (``ships_mutations``),
    the home's own stored pages at the home.  All methods are protocol
    generators (they may yield Futures), composed with ``yield from``.
    """

    page_size: int = DEFAULT_PAGE_SIZE

    #: True where mutations run at the map's home rather than here.
    ships_mutations: bool = False

    @abc.abstractmethod
    def lock_page(self, page_addr: int, mode: LockMode) -> ProtocolGen:
        """Acquire a lock context on one system-region page."""

    @abc.abstractmethod
    def read_page(self, ctx: Any, page_addr: int) -> ProtocolGen:
        """Read the page's bytes under ``ctx``."""

    @abc.abstractmethod
    def unlock_page(self, ctx: Any) -> ProtocolGen:
        """Release a context (release-type: must not raise to caller)."""

    def ship_mutation(self, op: str, target: AddressRange,
                      data: Tuple[int, ...],
                      new_length: Optional[int]) -> ProtocolGen:
        """Run :meth:`AddressMap.apply` at the map's home and wait."""
        raise NotImplementedError

    @abc.abstractmethod
    def load_page(self, page_addr: int) -> ProtocolGen:
        """At the home: the page's stored bytes, without a lock."""

    @abc.abstractmethod
    def store_page(self, page_addr: int, data: bytes) -> ProtocolGen:
        """At the home: write the page's new bytes through to storage."""

    @abc.abstractmethod
    def publish(self, pages: List[Tuple[int, bytes]]) -> ProtocolGen:
        """At the home: version the stored ``(page, bytes)`` pairs and
        push them to the map's replica sites."""


#: A leaf rewrite: ``edit(node, entry)`` changes ``node`` in place.
Edit = Callable[[MapNode, MapEntry], None]

#: Carving mutation -> (entry states it may carve, the state it writes).
_CARVES = {
    "reserve": ((EntryState.FREE, EntryState.DELEGATED), EntryState.RESERVED),
    "delegate": ((EntryState.FREE,), EntryState.DELEGATED),
    "release": ((EntryState.RESERVED,), EntryState.FREE),
    "update_homes": ((EntryState.RESERVED,), EntryState.RESERVED),
}


def initial_root_node() -> MapNode:
    """Tree contents at cluster bootstrap.

    The system region itself is the first reservation (homed at the
    bootstrap node, node 0); everything else is one huge FREE entry.
    """
    return MapNode(
        [MapEntry(SYSTEM_REGION, EntryState.RESERVED, (0,)),
         MapEntry(AddressRange.from_bounds(SYSTEM_REGION.end, MAX_ADDRESS + 1),
                  EntryState.FREE)],
        next_free_page=ROOT_PAGE + DEFAULT_PAGE_SIZE)


class AddressMap:
    """Generator-based operations on the distributed tree.

    Mutations run at the map's home (:meth:`apply`), one at a time,
    against the tree the home keeps decoded and resident
    (:attr:`resident`); lookups elsewhere read (possibly stale) local
    replicas under read locks — exactly the relaxed-consistency
    posture of Section 3.1.
    """

    def __init__(self, io: MapIO) -> None:
        from repro.consistency.engine import HomeTransactions

        self.io = io
        #: At the home: page -> decoded node of the reachable tree, filled
        #: lazily from its stored pages (a restarted home reloads them).
        self.resident: Dict[int, MapNode] = {}
        #: Serialises mutations at the home.
        self._mutations = HomeTransactions()

    # --- Read path --------------------------------------------------------

    def lookup(self, address: int) -> ProtocolGen:
        """Find the entry covering ``address``.

        Returns the :class:`MapEntry` (never a SUBTREE entry; descends
        through them).  The result may be stale; callers fall back to
        the cluster walk when acting on it fails (Section 3.1).
        """
        _path, entry = yield from self._descend(address)
        return entry

    def enumerate_reserved(self) -> ProtocolGen:
        """All RESERVED entries (for diagnostics and fsck-style tools)."""
        found: List[MapEntry] = []
        yield from self._collect(ROOT_PAGE, EntryState.RESERVED, found)
        return found

    def _collect(self, page_addr: int, state: EntryState,
                 out: List[MapEntry]) -> ProtocolGen:
        node = yield from self._node(page_addr)
        for entry in node.entries:
            if entry.state is EntryState.SUBTREE:
                yield from self._collect(entry.child_page, state, out)
            elif entry.state is state:
                out.append(entry)

    # --- Mutations -----------------------------------------------------------

    def find_free(self, size: int, alignment: int) -> ProtocolGen:
        """First-fit search for a FREE range of at least ``size`` bytes
        aligned to ``alignment``.  Read-only; the caller then calls a
        mutation with the returned range."""
        result = yield from self._find_free_in(ROOT_PAGE, size, alignment)
        if result is None:
            raise AddressSpaceExhausted(
                f"no free extent of {size} bytes found"
            )
        return result

    def _find_free_in(self, page_addr: int, size: int,
                      alignment: int) -> ProtocolGen:
        node = yield from self._node(page_addr)
        for entry in node.entries:
            if entry.state is EntryState.SUBTREE:
                found = yield from self._find_free_in(
                    entry.child_page, size, alignment
                )
                if found is not None:
                    return found
            elif entry.state is EntryState.FREE:
                start = -(-entry.range.start // alignment) * alignment
                if start + size <= entry.range.end:
                    return AddressRange(start, size)
        return None

    def reserve(self, target: AddressRange,
                home_nodes: Tuple[int, ...]) -> ProtocolGen:
        """Mark ``target`` RESERVED with the given home nodes.

        The range must lie entirely within a single FREE or DELEGATED
        entry (reservations are carved from free space or from a chunk
        delegated to the reserving node)."""
        yield from self.apply("reserve", target, tuple(home_nodes))

    def delegate(self, target: AddressRange, node_id: int) -> ProtocolGen:
        """Hand a chunk of FREE space to ``node_id`` to manage locally
        (the cluster manager calls this to satisfy SPACE_REQUESTs)."""
        yield from self.apply("delegate", target, (node_id,))

    def release(self, target: AddressRange) -> ProtocolGen:
        """Return a RESERVED range to FREE (unreserve)."""
        yield from self.apply("release", target, ())

    def extend(self, target: AddressRange, new_length: int,
               requester: Optional[int] = None) -> ProtocolGen:
        """Grow a RESERVED range in place to ``new_length`` bytes.

        Supports Section 4.1's alternative file layout ("resize the
        region whenever the file size changes").  The extension space
        immediately following the region must be FREE or DELEGATED and
        described by the same tree node — growing across map-node
        boundaries raises ``AddressSpaceExhausted`` and the caller
        falls back to copying into a fresh reservation.
        """
        yield from self.apply("extend", target, (), new_length, requester)

    def update_homes(self, target: AddressRange,
                     home_nodes: Tuple[int, ...]) -> ProtocolGen:
        """Refresh the home-node list of an existing reservation."""
        yield from self.apply("update_homes", target, tuple(home_nodes))

    def apply(self, op: str, target: AddressRange, data: Tuple[int, ...],
              new_length: Optional[int] = None, requester: Optional[int] = None,
              shipped: bool = False) -> ProtocolGen:
        """Run mutation ``op`` at the map's home, after every earlier
        one; elsewhere ship it there (:meth:`MapIO.ship_mutation`).  A
        ``shipped`` one may be a retransmit that outlived its cached
        reply: a change already in place (same-homes reserve, release
        of FREE space) is a no-op."""
        if self.io.ships_mutations and not shipped:
            yield from self.io.ship_mutation(op, target, data, new_length)
            return
        if op == "extend":
            edit = self._extend_edit(target, new_length, requester, shipped)
        else:
            acceptable, new_state = _CARVES[op]
            edit = self._carve_edit(target, acceptable, new_state,
                                    tuple(data), shipped)
        yield from self._mutations.run(ROOT_PAGE, self._mutate(target, edit))

    def _extend_edit(self, target: AddressRange, new_length: int,
                     requester: Optional[int], replay: bool) -> Edit:
        if new_length <= target.length:
            raise InvalidRange(
                f"extend needs a larger size, got {new_length} <= "
                f"{target.length}"
            )
        grown = AddressRange(target.start, new_length)

        def edit(node: MapNode, entry: MapEntry) -> None:
            if replay and entry.state is EntryState.RESERVED \
                    and entry.range == grown:
                return
            if entry.state is not EntryState.RESERVED or entry.range != target:
                raise NotReserved(
                    f"extend target {target} does not match map entry "
                    f"{entry.range} ({entry.state.value})"
                )
            # Collect the run of FREE/DELEGATED entries after the region
            # until the grown range is covered — never another node's
            # delegated pool: its daemon would later hand out the same
            # addresses.
            consumed: List[MapEntry] = []
            position = target.end
            while position < grown.end:
                tail = node.entry_covering(position)
                if tail is None or not (tail.state is EntryState.FREE or (
                        tail.state is EntryState.DELEGATED
                        and requester in (None, tail.manager_node))):
                    raise AddressSpaceExhausted(
                        f"space after {target} is not free to node "
                        f"{requester} at {position:#x} (found "
                        f"{tail.state.value if tail else 'a map-node boundary'})"
                    )
                consumed.append(tail)
                position = tail.range.end

            node.replace_entry(
                entry, [MapEntry(grown, EntryState.RESERVED, entry.data)]
            )
            for tail in consumed:
                remainder = tail.range.subtract(
                    AddressRange.from_bounds(target.end, grown.end)
                )
                node.replace_entry(
                    tail,
                    [MapEntry(r, tail.state, tail.data) for r in remainder],
                )
            node.coalesce_free()

        return edit

    # --- Internals ------------------------------------------------------------

    def _node(self, page_addr: int) -> ProtocolGen:
        """One tree node: the resident one at the home, else a fresh
        decode of the local replica read under a READ lock."""
        io = self.io
        if io.ships_mutations:
            ctx = yield from io.lock_page(page_addr, LockMode.READ)
            try:
                raw = yield from io.read_page(ctx, page_addr)
            finally:
                yield from io.unlock_page(ctx)
            return MapNode.decode(raw)
        node = self.resident.get(page_addr)
        if node is None:
            raw = yield from io.load_page(page_addr)
            # A mutation may have installed the page while it loaded.
            node = self.resident.setdefault(page_addr, MapNode.decode(raw))
        return node

    def _descend(self, address: int) -> ProtocolGen:
        """The ``(page, node)`` path from the root to the leaf entry
        covering ``address``, and that entry."""
        path: List[Tuple[int, MapNode]] = []
        page_addr = ROOT_PAGE
        for _depth in range(64):   # tree depth bound; guards cycles
            node = yield from self._node(page_addr)
            path.append((page_addr, node))
            entry = node.entry_covering(address)
            if entry is None:
                raise NotReserved(f"address {address:#x} not described by "
                                  "the address map")
            if entry.state is not EntryState.SUBTREE:
                return path, entry
            page_addr = entry.child_page
        raise KhazanaError("address-map descent exceeded depth bound")

    def _carve_edit(self, target: AddressRange,
                    acceptable: Tuple[EntryState, ...], new_state: EntryState,
                    new_data: Tuple[int, ...], replay: bool) -> Edit:
        """Rewrite the entry containing ``target``, splitting as needed."""

        def edit(node: MapNode, entry: MapEntry) -> None:
            if not entry.range.contains_range(target):
                raise InvalidRange(
                    f"range {target} straddles address-map entries "
                    f"(entry is {entry.range})"
                )
            if replay and entry.state is new_state and entry.data == new_data:
                return
            if entry.state not in acceptable:
                if new_state is EntryState.RESERVED:
                    raise AlreadyReserved(
                        f"range {target} is {entry.state.value}, not free"
                    )
                raise NotReserved(
                    f"range {target} is {entry.state.value}; expected one of "
                    f"{[s.value for s in acceptable]}"
                )
            pieces = [MapEntry(piece, entry.state, entry.data)
                      for piece in entry.range.subtract(target)]
            pieces.append(MapEntry(target, new_state, new_data))
            node.replace_entry(entry, pieces)
            node.coalesce_free()

        return edit

    def _mutate(self, target: AddressRange, edit: Edit) -> ProtocolGen:
        """Apply ``edit(leaf, entry)`` to copies of the resident nodes
        on the walk to ``target.start`` (so a raising edit changes
        nothing), then store, install and publish each changed page.

        An overflowing node splits into its parent (:meth:`_copy_split`);
        only an overflowing root pushes its entries down a level, so
        every leaf sits at one depth.  Fresh split pages are stored
        first, then bottom-up, the root last: a replica fetching
        meanwhile never follows a new parent to an unwritten child.
        """
        path, entry = yield from self._descend(target.start)
        copies = [MapNode(node.entries, node.next_free_page)
                  for _page, node in path]
        edit(copies[-1], entry)
        root = copies[0]
        fresh: List[Tuple[int, MapNode]] = []
        retired: List[int] = []
        for depth in range(len(copies) - 1, 0, -1):
            if len(copies[depth].entries) > MAX_ENTRIES:
                parent = copies[depth - 1]
                parent.replace_entry(
                    parent.entry_covering(target.start),
                    self._copy_split(root, copies[depth].entries, fresh))
                copies[depth] = path[depth][1]   # stale replicas still read it
                retired.append(path[depth][0])
        if len(root.entries) > MAX_ENTRIES:
            root.entries = self._copy_split(root, root.entries, fresh)
        changed = fresh + [
            (page, copy) for (page, node), copy in reversed(list(zip(path, copies)))
            if (copy.entries, copy.next_free_page)
            != (node.entries, node.next_free_page)]
        pages = [(page, node.encode(self.io.page_size))
                 for page, node in changed]
        for page, blob in pages:
            yield from self.io.store_page(page, blob)
        self.resident.update(changed)
        for page in retired:
            del self.resident[page]
        if pages:
            yield from self.io.publish(pages)

    def _copy_split(self, root: MapNode, entries: List[MapEntry],
                    fresh: List[Tuple[int, MapNode]]) -> List[MapEntry]:
        """Copy-on-split: move each half of ``entries`` to a freshly
        allocated tree page (appended to ``fresh``); return the two
        SUBTREE entries that replace the split node's entry in its
        parent.  The split node's own page is never rewritten: a reader
        holding a stale parent still finds an intact node there
        describing the whole range."""
        mid = len(entries) // 2
        halves: List[MapEntry] = []
        for part in (entries[:mid], entries[mid:]):
            page_addr = self._alloc_tree_page(root)
            fresh.append((page_addr, MapNode(part)))
            halves.append(MapEntry(
                AddressRange.from_bounds(part[0].range.start,
                                         part[-1].range.end),
                EntryState.SUBTREE, (page_addr,),
            ))
        return halves

    def _alloc_tree_page(self, root: MapNode) -> int:
        if root.next_free_page is None:
            raise KhazanaError("root node lost its tree-page allocator")
        page_addr = root.next_free_page
        if page_addr + self.io.page_size > SYSTEM_REGION.end:
            raise AddressSpaceExhausted(
                "system region out of address-map tree pages"
            )
        root.next_free_page = page_addr + self.io.page_size
        return page_addr
