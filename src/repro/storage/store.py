"""Page store interface shared by every level of the hierarchy.

The local storage system "provides raw storage for pages without
knowledge of global memory region boundaries or their semantics"
(paper Section 3.4): a store maps a global page base address to bytes
plus a dirty bit, nothing more.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator, List, Optional, Union

#: Page contents may be any bytes-like buffer.  The buffer is *frozen*
#: by convention: writers replace a stored page's buffer with a fresh
#: one rather than mutating it in place, so readers (twins, wire
#: payloads) may alias it without copying (docs/performance.md).
PageBytes = Union[bytes, bytearray, memoryview]


def unpad(data: bytes) -> bytes:
    """The document in a NUL-padded page: ``data`` up to its first NUL
    (``json.dumps`` output is ASCII and escapes NUL).  One memchr, where
    ``rstrip(b"\x00")`` tests every byte of the padding."""
    end = data.find(0)
    return data if end < 0 else data[:end]


@dataclass
class StoredPage:
    """One page held by a store level."""

    address: int       # global base address of the page
    data: PageBytes
    dirty: bool = False

    @property
    def size(self) -> int:
        return len(self.data)


class PageStore(abc.ABC):
    """A single level of the local storage hierarchy (RAM, disk, ...)."""

    #: True when the level outlives its process.  The hierarchy then
    #: keeps this level's copy of a page it promotes into RAM.
    persistent = False

    @abc.abstractmethod
    def get(self, address: int) -> Optional[StoredPage]:
        """Return the page at ``address`` or None if not resident."""

    @abc.abstractmethod
    def put(self, page: StoredPage) -> None:
        """Insert or replace a page.  Raises ``StorageExhausted`` when
        the level is full and nothing can be displaced (capacity
        management is the hierarchy's job; stores refuse overflow)."""

    @abc.abstractmethod
    def remove(self, address: int) -> Optional[StoredPage]:
        """Remove and return the page, or None if absent."""

    @abc.abstractmethod
    def contains(self, address: int) -> bool:
        """True when a page is resident at this level."""

    @abc.abstractmethod
    def addresses(self) -> List[int]:
        """Base addresses of all resident pages (unordered)."""

    @abc.abstractmethod
    def used_bytes(self) -> int:
        """Bytes of page data currently resident."""

    @property
    @abc.abstractmethod
    def capacity_bytes(self) -> int:
        """Maximum bytes this level may hold."""

    def close(self) -> None:
        """Release the level's OS resources (nothing for in-memory ones)."""

    def discard(self, address: int) -> None:
        """Remove the page, if held, without reading it back."""
        self.remove(address)

    def mark_clean(self, address: int) -> None:
        """Clear the dirty bit of the page held here, if any (an
        in-memory level holds the page object itself)."""
        page = self.get(address)
        if page is not None:
            page.dirty = False

    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes()

    def has_room_for(self, size: int) -> bool:
        return self.free_bytes() >= size

    def __iter__(self) -> Iterator[int]:
        return iter(self.addresses())

    def __len__(self) -> int:
        return len(self.addresses())
