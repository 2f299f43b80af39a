"""Disk level of the storage hierarchy.

Two implementations are provided:

- :class:`DiskStore` — an in-process store with the capacity and cost
  profile of a disk but no actual I/O.  This is the default for tests
  and benchmarks, keeping experiments deterministic (the substitution
  is recorded in DESIGN.md).
- :class:`FileBackedDiskStore` — genuinely persistent, one file per
  page under a spill directory, used by the persistence examples and
  tests to demonstrate that Khazana state survives daemon restarts.

Both price every access with the same model (:func:`access_cost`, a
late-90s disk).  The price is a property of the model, not time spent:
:class:`~repro.storage.hierarchy.StorageHierarchy` returns and accounts
it, and the node's :class:`~repro.net.runtime.Runtime` decides whether
to spend it — the simulator advances virtual time by it, the asyncio
backend does not (the file write it just did was the cost).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.core.errors import StorageExhausted
from repro.storage.store import PageStore, StoredPage

#: Late-90s commodity disk: ~10ms average positioning, ~10 MB/s media.
DISK_SEEK_SECONDS = 0.010
DISK_BYTES_PER_SECOND = 10_000_000


def access_cost(size_bytes: int) -> float:
    """Modelled seconds to read or write one page from/to disk."""
    return DISK_SEEK_SECONDS + size_bytes / DISK_BYTES_PER_SECOND


class DiskStore(PageStore):
    """In-memory stand-in for the on-disk page cache."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self._capacity = capacity_bytes
        self._pages: Dict[int, StoredPage] = {}
        self._used = 0

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    def used_bytes(self) -> int:
        return self._used

    def get(self, address: int) -> Optional[StoredPage]:
        return self._pages.get(address)

    def put(self, page: StoredPage) -> None:
        existing = self._pages.get(page.address)
        delta = page.size - (existing.size if existing is not None else 0)
        if self._used + delta > self._capacity:
            raise StorageExhausted(
                f"disk store full: need {delta} bytes, {self.free_bytes()} free"
            )
        self._pages[page.address] = page
        self._used += delta

    def remove(self, address: int) -> Optional[StoredPage]:
        page = self._pages.pop(address, None)
        if page is not None:
            self._used -= page.size
        return page

    def contains(self, address: int) -> bool:
        return address in self._pages

    def addresses(self) -> List[int]:
        return list(self._pages.keys())


class FileBackedDiskStore(PageStore):
    """Persistent page store: one file per page in ``directory``.

    File names encode the global page address in hex, so a restarted
    daemon can rebuild its page directory by scanning the directory —
    this is what makes Khazana state *persistent* across daemon
    restarts (paper Section 1: "local storage, both volatile (RAM) and
    persistent (disk)").

    Dirty bits are encoded in the filename suffix so that write-back
    state also survives a crash.
    """

    _CLEAN_SUFFIX = ".page"
    _DIRTY_SUFFIX = ".page.dirty"

    def __init__(self, directory: str, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self._capacity = capacity_bytes
        self._directory = directory
        os.makedirs(directory, exist_ok=True)
        self._index: Dict[int, str] = {}   # address -> file path
        self._used = 0
        self._scan()

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    def used_bytes(self) -> int:
        return self._used

    def _scan(self) -> None:
        """Rebuild the index from files left by a previous incarnation."""
        for name in os.listdir(self._directory):
            if name.endswith(self._DIRTY_SUFFIX):
                stem = name[: -len(self._DIRTY_SUFFIX)]
            elif name.endswith(self._CLEAN_SUFFIX):
                stem = name[: -len(self._CLEAN_SUFFIX)]
            else:
                continue
            try:
                address = int(stem, 16)
            except ValueError:
                continue
            path = os.path.join(self._directory, name)
            self._index[address] = path
            self._used += os.path.getsize(path)

    def _path_for(self, address: int, dirty: bool) -> str:
        suffix = self._DIRTY_SUFFIX if dirty else self._CLEAN_SUFFIX
        return os.path.join(self._directory, f"{address:032x}{suffix}")

    def get(self, address: int) -> Optional[StoredPage]:
        path = self._index.get(address)
        if path is None:
            return None
        with open(path, "rb") as fh:
            data = fh.read()
        return StoredPage(
            address=address, data=data, dirty=path.endswith(self._DIRTY_SUFFIX)
        )

    def put(self, page: StoredPage) -> None:
        old_path = self._index.get(page.address)
        old_size = os.path.getsize(old_path) if old_path else 0
        delta = page.size - old_size
        if self._used + delta > self._capacity:
            raise StorageExhausted(
                f"disk store full: need {delta} bytes, {self.free_bytes()} free"
            )
        path = self._path_for(page.address, page.dirty)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(page.data)
        os.replace(tmp, path)
        if old_path and old_path != path:
            os.remove(old_path)
        self._index[page.address] = path
        self._used += delta

    def remove(self, address: int) -> Optional[StoredPage]:
        page = self.get(address)
        path = self._index.pop(address, None)
        if path is not None:
            self._used -= os.path.getsize(path)
            os.remove(path)
        return page

    def contains(self, address: int) -> bool:
        return address in self._index

    def addresses(self) -> List[int]:
        return list(self._index.keys())
