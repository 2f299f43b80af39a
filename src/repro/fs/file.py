"""File handles.

"Reads and writes to a file involve finding the Khazana address for
the page to be read or written, locking the page in the appropriate
mode, mapping it into local memory, and executing the actual
operation." (paper Section 4.1)

A :class:`KFile` is a positioned handle over an inode; each read/write
is delegated to the file system's block I/O, which performs the
lock-map-access-unlock sequence per 4 KiB block region.
"""

from __future__ import annotations

from typing import Optional

from repro.fs.inode import Inode


class KFile:
    """An open KFS file with a seek position."""

    def __init__(self, fs: "KhazanaFileSystem", inode: Inode,
                 writable: bool, replace: bool = False) -> None:
        self._fs = fs
        self._inode = inode
        self._writable = writable
        self._position = 0
        self._closed = False
        #: The mount's inode-write count when the open that built this
        #: handle read the inode; None once the handle has been used.
        self._opened_at: Optional[int] = fs.inode_writes
        #: An open(..., "w") whose old content is still in place: a
        #: first write at offset 0 replaces it, any other first access
        #: (or close) truncates it in :meth:`_refresh`.
        self._replace = replace

    # --- Introspection -----------------------------------------------------

    @property
    def size(self) -> int:
        return 0 if self._replace else self._inode.size

    @property
    def position(self) -> int:
        return self._position

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("I/O operation on closed KFS file")

    def _check_writable(self) -> None:
        self._check_open()
        if not self._writable:
            raise PermissionError("file opened read-only")

    def _refresh(self) -> None:
        """Re-read the inode so concurrent appends become visible, then
        do a pending "w" truncation.  The first access skips the read
        when this mount has written no inode since the open read it."""
        if self._opened_at != self._fs.inode_writes:
            self._inode = self._fs._read_inode(self._inode.address)
        self._opened_at = None
        if self._replace:
            self._replace = False
            self._inode = self._fs.truncate_data(self._inode, 0)

    def _write_at(self, offset: int, data: bytes) -> None:
        if self._replace and offset == 0:
            self._replace = False   # this write replaces the old content
            self._refresh()
            self._inode = self._fs.replace_data(self._inode, data)
        else:
            self._refresh()
            self._inode = self._fs.write_data(self._inode, offset, data)

    # --- Positioning ----------------------------------------------------------

    def seek(self, offset: int, whence: int = 0) -> int:
        """Like ``io.IOBase.seek``: 0=set, 1=cur, 2=end."""
        self._check_open()
        if whence == 0:
            target = offset
        elif whence == 1:
            target = self._position + offset
        elif whence == 2:
            self._refresh()
            target = self._inode.size + offset
        else:
            raise ValueError(f"bad whence {whence}")
        if target < 0:
            raise ValueError(f"negative seek position {target}")
        self._position = target
        return target

    def tell(self) -> int:
        return self._position

    # --- Data access -------------------------------------------------------------

    def read(self, length: Optional[int] = None) -> bytes:
        """Read up to ``length`` bytes (to EOF when omitted)."""
        self._check_open()
        self._refresh()
        if length is None:
            length = max(0, self._inode.size - self._position)
        data = self._fs.read_data(self._inode, self._position, length)
        self._position += len(data)
        return data

    def write(self, data: bytes) -> int:
        """Write ``data`` at the current position."""
        self._check_writable()
        if not data:
            return 0
        self._write_at(self._position, data)
        self._position += len(data)
        return len(data)

    def pread(self, offset: int, length: int) -> bytes:
        """Positioned read; does not move the handle position."""
        self._check_open()
        self._refresh()
        return self._fs.read_data(self._inode, offset, length)

    def pwrite(self, offset: int, data: bytes) -> int:
        """Positioned write; does not move the handle position."""
        self._check_writable()
        self._write_at(offset, data)
        return len(data)

    def truncate(self, size: int) -> None:
        """Shrink or sparsely grow the file."""
        self._check_writable()
        self._refresh()
        self._inode = self._fs.truncate_data(self._inode, size)
        self._position = min(self._position, size)

    def close(self) -> None:
        """Close the handle; idempotent.  A "w" handle closed before
        its first write truncates the file here.  KFS holds no lock
        between calls, so there is nothing else to release."""
        try:
            if self._replace:
                self._refresh()   # does the pending truncation
        finally:
            self._closed = True

    def __enter__(self) -> "KFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
