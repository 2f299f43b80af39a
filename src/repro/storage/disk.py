"""Disk level of the storage hierarchy.

Two implementations are provided:

- :class:`DiskStore` — an in-process store with the capacity and cost
  profile of a disk but no actual I/O.  This is the default for tests
  and benchmarks, keeping experiments deterministic (the substitution
  is recorded in DESIGN.md).
- :class:`FileBackedDiskStore` — genuinely persistent: one append-only
  page log per node directory, used by durable daemons so that Khazana
  state survives daemon restarts.

Both price every access with the same model (:func:`access_cost`, a
late-90s disk).  The price is a property of the model, not time spent:
:class:`~repro.storage.hierarchy.StorageHierarchy` returns and accounts
it, and the node's :class:`~repro.net.runtime.Runtime` decides whether
to spend it — the simulator advances virtual time by it, the asyncio
backend does not (the file write it just did was the cost).
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Dict, List, Optional, Tuple

from repro.core.errors import StorageExhausted
from repro.storage.store import PageStore, StoredPage

#: Late-90s commodity disk: ~10ms average positioning, ~10 MB/s media.
DISK_SEEK_SECONDS = 0.010
DISK_BYTES_PER_SECOND = 10_000_000

#: File name of a node's page log inside its spill directory.
LOG_FILE = "pages.log"

#: Record header after its CRC32: data length, flags, 16-byte address.
_CRC = struct.Struct("<I")
_HEAD = struct.Struct("<IB16s")
HEADER_BYTES = _CRC.size + _HEAD.size
FLAG_DIRTY = 1
FLAG_TOMBSTONE = 2
#: Header-only record: the page indexed at its address is now clean.
FLAG_CLEAN = 4

#: Compact once the log exceeds twice its live records plus this slack.
COMPACT_SLACK_BYTES = 1 << 20


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

    def __len__(self) -> int:
        return len(self._pages)


def _record(address: int, data: bytes, flags: int) -> bytes:
    head = _HEAD.pack(len(data), flags, address.to_bytes(16, "big"))
    crc = zlib.crc32(data, zlib.crc32(head))
    return b"".join((_CRC.pack(crc), head, data))


class FileBackedDiskStore(PageStore):
    """Persistent page store: one append-only log in ``directory``.

    ``put`` appends one record (``CRC32 | length | flags | 16-byte
    address | bytes``) in a single unbuffered write, ``remove`` a
    tombstone and ``mark_clean`` a header-only clean record; an
    in-memory index makes ``get`` one ``pread``.  A restarted daemon
    replays the log (paper Section 1: "local storage, both volatile
    (RAM) and persistent (disk)"), cutting off a short or CRC-failing
    tail.  Nothing is fsynced: a returned write survives a process
    crash, not a power loss.  When dead records outweigh live ones, the
    live ones are re-framed into a fresh log renamed over the old.
    """

    persistent = True

    def __init__(self, directory: str, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self._capacity = capacity_bytes
        os.makedirs(directory, exist_ok=True)
        self._path = os.path.join(directory, LOG_FILE)
        #: address -> (offset of the record, data length, dirty)
        self._index: Dict[int, Tuple[int, int, bool]] = {}
        self._used = 0          # live page bytes (the capacity measure)
        self._live = 0          # live record bytes, headers included
        self._log = open(self._path, "a+b", buffering=0)
        self._end = self._replay()

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    def used_bytes(self) -> int:
        return self._used

    def _replay(self) -> int:
        """Rebuild the index from the log; return the offset of its end."""
        fd, offset = self._log.fileno(), 0
        size = os.fstat(fd).st_size
        while offset + HEADER_BYTES <= size:
            header = os.pread(fd, HEADER_BYTES, offset)
            (crc,) = _CRC.unpack_from(header)
            length, flags, raw = _HEAD.unpack_from(header, _CRC.size)
            if offset + HEADER_BYTES + length > size:
                break
            data = os.pread(fd, length, offset + HEADER_BYTES)
            if zlib.crc32(data, zlib.crc32(header[_CRC.size:])) != crc:
                break
            self._apply(int.from_bytes(raw, "big"), offset, length, flags)
            offset += HEADER_BYTES + length
        self._log.truncate(offset)
        return offset

    def _apply(self, address: int, offset: int, length: int, flags: int) -> None:
        old = self._index.get(address)
        if flags & FLAG_CLEAN:
            if old is not None:
                self._index[address] = (old[0], old[1], False)
            return
        if old is not None:
            self._used -= old[1]
            self._live -= HEADER_BYTES + old[1]
        if flags & FLAG_TOMBSTONE:
            self._index.pop(address, None)
        else:
            self._index[address] = (offset, length, bool(flags & FLAG_DIRTY))
            self._used += length
            self._live += HEADER_BYTES + length

    def _append(self, address: int, data: bytes, flags: int) -> None:
        record = _record(address, data, flags)
        if self._log.write(record) != len(record):
            self._log.truncate(self._end)
            raise OSError(f"short write to {self._path}")
        self._apply(address, self._end, len(data), flags)
        self._end += len(record)
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        if self._end <= 2 * self._live + COMPACT_SLACK_BYTES:
            return
        tmp = self._path + ".tmp"
        fd = self._log.fileno()
        index: Dict[int, Tuple[int, int, bool]] = {}
        offset = 0
        with open(tmp, "wb", buffering=0) as out:
            for address, (at, length, dirty) in self._index.items():
                out.write(_record(address,
                                  os.pread(fd, length, at + HEADER_BYTES),
                                  FLAG_DIRTY if dirty else 0))
                index[address] = (offset, length, dirty)
                offset += HEADER_BYTES + length
        os.replace(tmp, self._path)
        self._log.close()
        self._log = open(self._path, "a+b", buffering=0)
        self._index = index
        self._end = offset

    def get(self, address: int) -> Optional[StoredPage]:
        entry = self._index.get(address)
        if entry is None:
            return None
        at, length, dirty = entry
        data = os.pread(self._log.fileno(), length, at + HEADER_BYTES)
        return StoredPage(address=address, data=data, dirty=dirty)

    def put(self, page: StoredPage) -> None:
        old = self._index.get(page.address)
        delta = page.size - (old[1] if old is not None else 0)
        if self._used + delta > self._capacity:
            raise StorageExhausted(
                f"disk store full: need {delta} bytes, {self.free_bytes()} free"
            )
        self._append(page.address, page.data,
                     FLAG_DIRTY if page.dirty else 0)

    def remove(self, address: int) -> Optional[StoredPage]:
        page = self.get(address)
        self.discard(address)
        return page

    def discard(self, address: int) -> None:
        if address in self._index:
            self._append(address, b"", FLAG_TOMBSTONE)

    def mark_clean(self, address: int) -> None:
        entry = self._index.get(address)
        if entry is not None and entry[2]:
            self._append(address, b"", FLAG_CLEAN)

    def contains(self, address: int) -> bool:
        return address in self._index

    def addresses(self) -> List[int]:
        return list(self._index.keys())

    def __len__(self) -> int:
        return len(self._index)

    def close(self) -> None:
        self._log.close()
