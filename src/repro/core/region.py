"""Region descriptors.

"Khazana maintains a global region descriptor associated with each
region that stores various region attributes such as its security
attributes, page size, and desired consistency protocol.  In addition,
each region has a home node that maintains a copy of the region's
descriptor and keeps track of all the nodes maintaining copies of the
region's data." (paper Section 3.1)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.core.addressing import AddressRange
from repro.core.attributes import RegionAttributes

_version_counter = itertools.count(1)


@dataclass(frozen=True)
class RegionDescriptor:
    """Authoritative metadata for one region.

    The region is identified by the start of its address range (its
    *region id*).  ``home_nodes`` is the ordered list of nodes that
    hold authoritative descriptor copies and page-location directories;
    the first reachable home node services lookups.  ``version``
    increases on every attribute change so stale cached descriptors can
    be detected and refreshed.
    """

    range: AddressRange
    attrs: RegionAttributes
    home_nodes: Tuple[int, ...]
    allocated: bool = False
    version: int = field(default_factory=lambda: next(_version_counter))

    def __post_init__(self) -> None:
        if not self.home_nodes:
            raise ValueError("a region must have at least one home node")
        if self.range.start % self.attrs.page_size != 0:
            raise ValueError(
                f"region start {self.range.start:#x} not aligned to "
                f"page size {self.attrs.page_size}"
            )
        if self.range.length % self.attrs.page_size != 0:
            raise ValueError(
                f"region length {self.range.length:#x} not a multiple of "
                f"page size {self.attrs.page_size}"
            )

    @property
    def rid(self) -> int:
        """Region id: the first global address of the region."""
        return self.range.start

    @property
    def page_size(self) -> int:
        return self.attrs.page_size

    @property
    def primary_home(self) -> int:
        return self.home_nodes[0]

    def pages(self) -> List[int]:
        """Base addresses of every page in the region."""
        return list(self.range.pages(self.page_size))

    def page_base(self, address: int) -> int:
        """Base address of the page containing ``address``."""
        if not self.range.contains(address):
            raise ValueError(
                f"address {address:#x} outside region {self.range}"
            )
        offset = address - self.range.start
        return self.range.start + (offset // self.page_size) * self.page_size

    def pages_covering(self, subrange: AddressRange) -> List[int]:
        """Pages of this region that overlap ``subrange``."""
        clipped = self.range.intersection(subrange)
        if clipped is None:
            return []
        return [
            base
            for base in clipped.align_to_pages(self.page_size).pages(self.page_size)
            if self.range.contains(base)
        ]

    def with_attrs(self, attrs: RegionAttributes) -> "RegionDescriptor":
        """New descriptor version carrying updated attributes."""
        return replace(self, attrs=attrs, version=next(_version_counter))

    def with_homes(self, home_nodes: Tuple[int, ...]) -> "RegionDescriptor":
        return replace(
            self, home_nodes=tuple(home_nodes), version=next(_version_counter)
        )

    def with_allocated(self, allocated: bool) -> "RegionDescriptor":
        return replace(
            self, allocated=allocated, version=next(_version_counter)
        )

    def with_range(self, new_range: AddressRange) -> "RegionDescriptor":
        """New descriptor version for a resized region (same start)."""
        if new_range.start != self.range.start:
            raise ValueError("a region's start address is immutable")
        return replace(
            self, range=new_range, version=next(_version_counter)
        )

    def supersedes(self, other: "RegionDescriptor") -> bool:
        """Whether this descriptor replaces ``other``, an earlier-held
        descriptor of the same region: it is at least as new.  Every
        descriptor cache orders copies by this one rule."""
        return self.version >= other.version

    # --- Wire form -----------------------------------------------------------

    def to_wire(self) -> Dict[str, object]:
        return {
            "start": self.range.start,
            "length": self.range.length,
            "attrs": self.attrs.to_wire(),
            "home_nodes": list(self.home_nodes),
            "allocated": self.allocated,
            "version": self.version,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, object]) -> "RegionDescriptor":
        return cls(
            range=AddressRange(int(data["start"]), int(data["length"])),
            attrs=RegionAttributes.from_wire(data["attrs"]),
            home_nodes=tuple(int(n) for n in data["home_nodes"]),
            allocated=bool(data.get("allocated", False)),
            version=int(data.get("version", 0)),
        )

    def __str__(self) -> str:
        return (
            f"region {self.range} homes={list(self.home_nodes)} "
            f"proto={self.attrs.protocol} v{self.version}"
        )
