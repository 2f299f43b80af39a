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
pages inside the *system region* at address 0, read and written
through the ordinary Khazana lock/read/write path (so the map is
replicated and kept release-consistent like any other region).  The
tree logic is written as generators over the narrow :class:`MapIO`
protocol; the daemon supplies the I/O.
"""

from __future__ import annotations

import abc
import enum
import json
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.core.addressing import (
    DEFAULT_PAGE_SIZE,
    MAX_ADDRESS,
    AddressRange,
)
from repro.core.errors import (
    AddressSpaceExhausted,
    AlreadyReserved,
    InvalidRange,
    KhazanaError,
    NotReserved,
)
from repro.core.locks import LockMode
from repro.storage.store import unpad

#: The well-known system region holding the address-map tree: the
#: first 16 MiB of the global address space (4096 tree pages).
SYSTEM_REGION_START = 0
SYSTEM_REGION_SIZE = 16 * 1024 * 1024
SYSTEM_REGION = AddressRange(SYSTEM_REGION_START, SYSTEM_REGION_SIZE)

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

    def to_wire(self) -> List[Any]:
        return [self.range.start, self.range.length, self.state.value,
                list(self.data)]

    @classmethod
    def from_wire(cls, raw: List[Any]) -> "MapEntry":
        return cls(
            range=AddressRange(int(raw[0]), int(raw[1])),
            state=EntryState(raw[2]),
            data=tuple(int(x) for x in raw[3]),
        )


class MapNode:
    """In-memory form of one fixed-size tree page."""

    def __init__(self, entries: List[MapEntry],
                 next_free_page: Optional[int] = None) -> None:
        #: Entries sorted by range start, jointly partitioning the
        #: node's covered range.
        self.entries = sorted(entries, key=lambda e: e.range.start)
        #: Only meaningful on the root node: bump allocator for new
        #: tree pages within the system region.
        self.next_free_page = next_free_page

    def encode(self, page_size: int) -> bytes:
        doc = {"entries": [e.to_wire() for e in self.entries]}
        if self.next_free_page is not None:
            doc["next_free_page"] = self.next_free_page
        blob = json.dumps(doc, separators=(",", ":")).encode("ascii")
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
        return cls(
            entries=[MapEntry.from_wire(raw) for raw in doc.get("entries", [])],
            next_free_page=doc.get("next_free_page"),
        )

    def entry_covering(self, address: int) -> Optional[MapEntry]:
        for entry in self.entries:
            if entry.range.contains(address):
                return entry
        return None

    def replace_entry(self, old: MapEntry, new: List[MapEntry]) -> None:
        self.entries.remove(old)
        self.entries.extend(new)
        self.entries.sort(key=lambda e: e.range.start)

    def coalesce_free(self) -> None:
        """Merge adjacent FREE entries (within this node only; the
        paper explicitly skips cross-node defragmentation)."""
        merged: List[MapEntry] = []
        for entry in self.entries:
            if (
                merged
                and merged[-1].state is EntryState.FREE
                and entry.state is EntryState.FREE
                and merged[-1].range.end == entry.range.start
            ):
                merged[-1] = MapEntry(
                    range=merged[-1].range.union(entry.range),
                    state=EntryState.FREE,
                )
            else:
                merged.append(entry)
        self.entries = merged


class MapIO(abc.ABC):
    """Page access the address map needs from its host daemon.

    All methods are protocol generators (they may yield Futures); the
    address map composes them with ``yield from``.
    """

    page_size: int = DEFAULT_PAGE_SIZE

    @abc.abstractmethod
    def lock_page(self, page_addr: int, mode: LockMode) -> ProtocolGen:
        """Acquire a lock context on one system-region page."""

    @abc.abstractmethod
    def read_page(self, ctx: Any, page_addr: int) -> ProtocolGen:
        """Read the page's bytes under ``ctx``."""

    @abc.abstractmethod
    def write_page(self, ctx: Any, page_addr: int, data: bytes) -> ProtocolGen:
        """Write the page's bytes under ``ctx``."""

    @abc.abstractmethod
    def unlock_page(self, ctx: Any) -> ProtocolGen:
        """Release a context (release-type: must not raise to caller)."""

    #: True where mutations run at the map's home rather than here.
    ships_mutations: bool = False

    def ship_mutation(self, op: str, target: AddressRange,
                      data: Tuple[int, ...],
                      new_length: Optional[int]) -> ProtocolGen:
        """Run :meth:`AddressMap.apply` at the map's home and wait."""
        raise NotImplementedError


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
    free_start = SYSTEM_REGION.end
    return MapNode(
        entries=[
            MapEntry(SYSTEM_REGION, EntryState.RESERVED, (0,)),
            MapEntry(
                AddressRange.from_bounds(free_start, MAX_ADDRESS + 1),
                EntryState.FREE,
            ),
        ],
        next_free_page=ROOT_PAGE + DEFAULT_PAGE_SIZE,
    )


class AddressMap:
    """Generator-based operations on the distributed tree.

    Mutations run at the map's home (:meth:`apply`) under a write lock
    on the root page, which serialises them; lookups run against
    (possibly stale) local replicas under read locks — exactly the
    relaxed-consistency posture of Section 3.1.
    """

    def __init__(self, io: MapIO) -> None:
        self.io = io

    # --- Read path --------------------------------------------------------

    def lookup(self, address: int) -> ProtocolGen:
        """Find the entry covering ``address``.

        Returns the :class:`MapEntry` (never a SUBTREE entry; descends
        through them).  The result may be stale; callers fall back to
        the cluster walk when acting on it fails (Section 3.1).
        """
        page_addr = ROOT_PAGE
        for _depth in range(64):   # tree depth bound; guards cycles
            node = yield from self._read_node(page_addr, LockMode.READ)
            entry = node.entry_covering(address)
            if entry is None:
                raise NotReserved(
                    f"address {address:#x} not described by the address map"
                )
            if entry.state is not EntryState.SUBTREE:
                return entry
            page_addr = entry.child_page
        raise KhazanaError("address-map descent exceeded depth bound")

    def enumerate_reserved(self) -> ProtocolGen:
        """All RESERVED entries (for diagnostics and fsck-style tools)."""
        found: List[MapEntry] = []
        yield from self._collect(ROOT_PAGE, EntryState.RESERVED, found)
        return found

    def _collect(self, page_addr: int, state: EntryState,
                 out: List[MapEntry]) -> ProtocolGen:
        node = yield from self._read_node(page_addr, LockMode.READ)
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
        node = yield from self._read_node(page_addr, LockMode.READ)
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
        """Run mutation ``op`` as one walk under the root write lock, at
        the map's home (every lock home-local); elsewhere ship it there
        (:meth:`MapIO.ship_mutation`).  A ``shipped`` one may be a
        retransmit that outlived its cached reply: a change already in
        place (same-homes reserve, release of FREE space) is a no-op."""
        if self.io.ships_mutations and not shipped:
            yield from self.io.ship_mutation(op, target, data, new_length)
            return
        if op == "extend":
            edit = self._extend_edit(target, new_length, requester, shipped)
        else:
            acceptable, new_state = _CARVES[op]
            edit = self._carve_edit(target, acceptable, new_state,
                                    tuple(data), shipped)
        yield from self._mutate(target, edit)

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
            # until the grown range is covered.
            consumed: List[MapEntry] = []
            position = target.end
            while position < grown.end:
                tail = node.entry_covering(position)
                if tail is None or tail.state not in (
                    EntryState.FREE, EntryState.DELEGATED
                ):
                    raise AddressSpaceExhausted(
                        f"space after {target} is not free at {position:#x} "
                        f"(found {tail.state.value if tail else 'a map-node boundary'})"
                    )
                if (
                    tail.state is EntryState.DELEGATED
                    and requester is not None
                    and tail.manager_node != requester
                ):
                    # Never steal space from another node's local pool —
                    # its daemon would later hand out the same addresses.
                    raise AddressSpaceExhausted(
                        f"space after {target} is delegated to node "
                        f"{tail.manager_node}, not the requester"
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

    def _read_node(self, page_addr: int, mode: LockMode) -> ProtocolGen:
        ctx = yield from self.io.lock_page(page_addr, mode)
        try:
            raw = yield from self.io.read_page(ctx, page_addr)
        finally:
            yield from self.io.unlock_page(ctx)
        return MapNode.decode(raw)

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
        """Apply ``edit(leaf, entry)`` to the leaf entry covering
        ``target.start`` and write back every page whose bytes changed.

        The root page's write lock is held throughout (the map
        mutation mutex), plus a write lock on each node on the way
        down: one page per level.  An overflowing node splits into its
        parent (:meth:`_copy_split`); only an overflowing root pushes
        its entries down a level, so every leaf sits at one depth.
        """
        root_ctx = yield from self.io.lock_page(ROOT_PAGE, LockMode.WRITE)
        try:
            raw = yield from self.io.read_page(root_ctx, ROOT_PAGE)
            root = MapNode.decode(raw)
            yield from self._walk(root, root, target, edit)
            if len(root.entries) > MAX_ENTRIES:
                root.entries = yield from self._copy_split(root, root.entries)
            yield from self._write_back(root_ctx, ROOT_PAGE, root, raw)
        finally:
            yield from self.io.unlock_page(root_ctx)

    def _walk(self, node: MapNode, root: MapNode, target: AddressRange,
              edit: Edit) -> ProtocolGen:
        entry = node.entry_covering(target.start)
        if entry is None:
            raise NotReserved(
                f"range {target} not described by the address map"
            )
        if entry.state is not EntryState.SUBTREE:
            edit(node, entry)
            return
        child_addr = entry.child_page
        ctx = yield from self.io.lock_page(child_addr, LockMode.WRITE)
        try:
            raw = yield from self.io.read_page(ctx, child_addr)
            child = MapNode.decode(raw)
            yield from self._walk(child, root, target, edit)
            if len(child.entries) > MAX_ENTRIES:
                halves = yield from self._copy_split(root, child.entries)
                node.replace_entry(entry, halves)
            else:
                yield from self._write_back(ctx, child_addr, child, raw)
        finally:
            yield from self.io.unlock_page(ctx)

    def _write_back(self, ctx: Any, page_addr: int, node: MapNode,
                    raw: bytes) -> ProtocolGen:
        blob = node.encode(self.io.page_size)
        if blob != raw:
            yield from self.io.write_page(ctx, page_addr, blob)

    def _copy_split(self, root: MapNode,
                    entries: List[MapEntry]) -> ProtocolGen:
        """Copy-on-split: write each half of ``entries`` to a freshly
        allocated tree page, and return the two SUBTREE entries that
        replace the split node's entry in its parent.

        Both halves are written and unlocked before the caller links
        them in, and the split node's own page is never rewritten: a
        reader holding a stale parent still finds an intact node there
        describing the whole range (lookups run against
        release-consistent replicas).
        """
        mid = len(entries) // 2
        halves: List[MapEntry] = []
        for part in (entries[:mid], entries[mid:]):
            page_addr = self._alloc_tree_page(root)
            ctx = yield from self.io.lock_page(page_addr, LockMode.WRITE)
            try:
                yield from self.io.write_page(
                    ctx, page_addr, MapNode(part).encode(self.io.page_size)
                )
            finally:
                yield from self.io.unlock_page(ctx)
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
