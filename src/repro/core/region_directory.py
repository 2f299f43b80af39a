"""The per-node region directory: a cache of region descriptors.

Paper Section 3.2: "To avoid expensive remote lookups, Khazana
maintains a cache of recently used region descriptors called the
region directory.  The region directory is not kept globally
consistent, and thus may contain stale data, but this is not a
problem ... the use of a stale home pointer will simply result in a
message being sent to a node that no longer is home to the object."

Entries for well-known bootstrap regions (the address-map region at
address 0) are *pinned* and never evicted, which is what keeps the
lookup chain grounded (Section 3.1: "A well-known region beginning at
address 0 stores the root node of the address map tree").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional

from repro.core.region import RegionDescriptor

DEFAULT_CAPACITY = 1024


class RangeIndex:
    """Disjoint half-open ranges keyed by start, searched by bisect: the
    "which cached region covers this address" index of both descriptor
    caches.  Of two overlapping cached ranges one is stale (a stale
    entry only costs a lookup), so :meth:`add` evicts what it overlaps.
    """

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: Dict[int, int] = {}

    def add(self, start: int, end: int) -> List[int]:
        """Index ``[start, end)``; return the other starts it evicted."""
        lo = bisect_right(self._starts, start)
        if lo and self._ends[self._starts[lo - 1]] > start:
            lo -= 1
        hi = bisect_left(self._starts, end, lo)
        evicted = [s for s in self._starts[lo:hi] if s != start]
        for old in evicted:
            self.discard(old)
        if start not in self._ends:
            insort(self._starts, start)
        self._ends[start] = end
        return evicted

    def discard(self, start: int) -> None:
        if self._ends.pop(start, None) is not None:
            del self._starts[bisect_left(self._starts, start)]

    def covering(self, address: int) -> Optional[int]:
        """Start of the indexed range containing ``address``, if any."""
        i = bisect_right(self._starts, address) - 1
        if i >= 0 and address < self._ends[self._starts[i]]:
            return self._starts[i]
        return None


class RegionDirectory:
    """Bounded LRU cache mapping region id -> descriptor."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._cache: "OrderedDict[int, RegionDescriptor]" = OrderedDict()
        self._pinned: "OrderedDict[int, RegionDescriptor]" = OrderedDict()
        self._ranges = RangeIndex()   # over the LRU entries only
        self.hits = 0
        self.misses = 0

    def pin(self, descriptor: RegionDescriptor) -> None:
        """Install a never-evicted entry (bootstrap/system regions)."""
        self._pinned[descriptor.rid] = descriptor
        self.invalidate(descriptor.rid)

    def insert(self, descriptor: RegionDescriptor) -> None:
        """Cache a descriptor, keeping only the newest version seen."""
        rid = descriptor.rid
        if rid in self._pinned:
            if descriptor.supersedes(self._pinned[rid]):
                self._pinned[rid] = descriptor
            return
        existing = self._cache.get(rid)
        if existing is not None and not descriptor.supersedes(existing):
            self._cache.move_to_end(rid)
            return
        for stale in self._ranges.add(rid, descriptor.range.end):
            del self._cache[stale]
        self._cache[rid] = descriptor
        self._cache.move_to_end(rid)
        while len(self._cache) > self.capacity:
            self._ranges.discard(self._cache.popitem(last=False)[0])

    def get(self, rid: int) -> Optional[RegionDescriptor]:
        """Exact lookup by region id."""
        descriptor = self._pinned.get(rid)
        if descriptor is not None:
            self.hits += 1
            return descriptor
        descriptor = self._cache.get(rid)
        if descriptor is not None:
            self._cache.move_to_end(rid)
            self.hits += 1
            return descriptor
        self.misses += 1
        return None

    def find_covering(self, address: int) -> Optional[RegionDescriptor]:
        """Descriptor of the cached region containing ``address``."""
        for descriptor in self._pinned.values():
            if descriptor.range.contains(address):
                self.hits += 1
                return descriptor
        rid = self._ranges.covering(address)
        if rid is not None:
            self._cache.move_to_end(rid)
            self.hits += 1
            return self._cache[rid]
        self.misses += 1
        return None

    def invalidate(self, rid: int) -> None:
        """Drop a cached entry proven stale (home NAKed a request)."""
        self._cache.pop(rid, None)
        self._ranges.discard(rid)

    def entries(self) -> List[RegionDescriptor]:
        return list(self._pinned.values()) + list(self._cache.values())

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._cache) + len(self._pinned)

    def __iter__(self) -> Iterator[RegionDescriptor]:
        return iter(self.entries())
