"""The per-node page directory.

Paper Section 3.4: "The local storage subsystem on each node maintains
a page directory, indexed by global addresses, that contains
information about individual pages of global regions including the
list of nodes sharing this page.  If a region's pages are locally
cached, the page directory lists the local node as a sharer.  The page
directory maintains persistent information about pages homed locally,
and for performance reasons it also maintains a cache of information
about pages with remote homes."

For pages *homed* at this node the entry is authoritative: it records
the current owner (for ownership-based protocols like CREW) and the
full copyset.  For remote pages the entry is a hint cache.

An entry's ``(counter, writer)`` version pair is the page's one
version: release, eventual and mobile keep it here and nowhere else.
The metadata journal saves it for homed pages, so a restarted durable
home keeps counting, and it goes with the entry (eviction, unreserve).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: A page version: ``(counter, writer node id)``.
Version = Tuple[int, int]


@dataclass
class PageEntry:
    """Location and consistency information for one page."""

    address: int              # global base address of the page
    rid: int                  # region the page belongs to
    homed: bool               # True when this node is the page's home
    owner: Optional[int] = None     # node holding the master copy
    sharers: Set[int] = field(default_factory=set)
    allocated: bool = False   # physical storage exists somewhere
    #: The page's one version; None until a protocol records one (a
    #: home serves ``(0, 0)`` for it).  Release's int is the counter.
    version: Optional[Version] = None
    #: When this node last took the version from a writer or its home.
    refreshed_at: float = float("-inf")

    def record_sharer(self, node_id: int) -> None:
        self.sharers.add(node_id)

    def forget_sharer(self, node_id: int) -> None:
        self.sharers.discard(node_id)
        if self.owner == node_id:
            self.owner = None

    def copyset_excluding(self, node_id: int) -> List[int]:
        """Sharers other than ``node_id`` (sorted for determinism)."""
        return sorted(n for n in self.sharers if n != node_id)


class PageDirectory:
    """Per-node index of page metadata, keyed by global address."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._entries: Dict[int, PageEntry] = {}
        #: rid -> addresses of its entries, so the per-region calls of
        #: unreserve, teardown and RAM eviction cost O(region's pages).
        self._by_region: Dict[int, Set[int]] = {}

    def get(self, address: int) -> Optional[PageEntry]:
        return self._entries.get(address)

    def ensure(
        self, address: int, rid: int, homed: bool
    ) -> PageEntry:
        """Fetch or create the entry for a page.

        An existing hint entry is upgraded to authoritative when the
        page's home moves to this node.
        """
        entry = self._entries.get(address)
        if entry is None:
            entry = PageEntry(address=address, rid=rid, homed=homed)
            self._entries[address] = entry
            self._by_region.setdefault(rid, set()).add(address)
        elif homed and not entry.homed:
            entry.homed = True
        return entry

    def version_of(self, address: int, default: Version) -> Version:
        """The page's recorded version, or ``default`` when it has
        none (no entry, or an entry no protocol versioned)."""
        entry = self._entries.get(address)
        if entry is None or entry.version is None:
            return default
        return entry.version

    def drop(self, address: int) -> Optional[PageEntry]:
        entry = self._entries.pop(address, None)
        if entry is not None:
            addresses = self._by_region[entry.rid]
            addresses.discard(address)
            if not addresses:
                del self._by_region[entry.rid]
        return entry

    def drop_region(self, rid: int) -> int:
        """Remove every entry belonging to region ``rid`` (unreserve)."""
        doomed = self._by_region.pop(rid, ())
        for address in doomed:
            del self._entries[address]
        return len(doomed)

    def entries_for_region(self, rid: int) -> List[PageEntry]:
        return [self._entries[address]
                for address in sorted(self._by_region.get(rid, ()))]

    def homed_entries(self) -> List[PageEntry]:
        """Authoritative entries for pages homed at this node.

        These are the persistent part of the directory: a restarting
        daemon rebuilds exactly this set from its disk store.
        """
        return sorted(
            (e for e in self._entries.values() if e.homed),
            key=lambda e: e.address,
        )

    def hint_entries(self) -> List[PageEntry]:
        """Cached entries about remotely homed pages."""
        return sorted(
            (e for e in self._entries.values() if not e.homed),
            key=lambda e: e.address,
        )

    def forget_node(self, node_id: int) -> List[PageEntry]:
        """Erase a crashed node from all copysets; returns the touched
        entries so replica repair can inspect them."""
        touched = []
        for entry in self._entries.values():
            if node_id in entry.sharers or entry.owner == node_id:
                entry.forget_sharer(node_id)
                touched.append(entry)
        return touched

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[PageEntry]:
        return iter(sorted(self._entries.values(), key=lambda e: e.address))
