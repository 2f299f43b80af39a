"""The KFS file system proper.

Design from paper Section 4.1, point for point:

- the whole Khazana space is the disk; a file system is identified by
  the Khazana address of its superblock ("Mounting this filesystem
  only requires the Khazana address of the superblock");
- each inode is a region of its own;
- each 4 KiB file block is a separate region;
- opening a file is "a recursive descent of the filesystem directory
  tree from the root", with the resolved inode address cached;
- per-file attributes (consistency level, replica count) are fixed at
  creation time and passed straight down to Khazana.

The file system is completely unaware of distribution: every instance
(one per client session) only calls the public Khazana API, and any
number of instances may mount the same superblock concurrently —
Khazana's locking and consistency management do the rest.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.client import KhazanaSession
from repro.core.errors import KhazanaError
from repro.fs.file import KFile
from repro.fs.inode import FileType, Inode
from repro.fs.layout import (
    BLOCK_SIZE,
    INODE_PAGE_SIZE,
    SUPERBLOCK_MAGIC,
    LayoutError,
    decode_struct,
    encode_struct,
    validate_name,
)


class FileSystemError(Exception):
    """KFS-level errors (not-found, exists, not-a-directory, ...)."""


def _split_path(path: str) -> List[str]:
    if not path.startswith("/"):
        raise FileSystemError(f"path {path!r} must be absolute")
    return [part for part in path.split("/") if part]


class KhazanaFileSystem:
    """One mounted instance of a KFS file system."""

    def __init__(self, session: KhazanaSession, superblock_addr: int,
                 root_inode_addr: int,
                 default_consistency: ConsistencyLevel,
                 default_replicas: int) -> None:
        self.session = session
        self.superblock_addr = superblock_addr
        self.root_inode_addr = root_inode_addr
        self.default_consistency = default_consistency
        self.default_replicas = default_replicas
        #: path -> inode address cache ("finding the inode address ...
        #: and caching that address", Section 4.1).  May go stale under
        #: concurrent renames; lookups re-validate on miss.
        self._inode_cache: Dict[str, int] = {}
        #: Inode writes (and tombstones) this mount has started; a
        #: handle's first access skips re-reading its inode only if
        #: this has not moved since its open.
        self.inode_writes = 0

    # ------------------------------------------------------------------
    # Creation and mounting
    # ------------------------------------------------------------------

    @classmethod
    def format(
        cls,
        session: KhazanaSession,
        consistency: ConsistencyLevel = ConsistencyLevel.STRICT,
        replicas: int = 1,
    ) -> "KhazanaFileSystem":
        """Create a new file system; returns it mounted.

        Allocates the superblock and the root directory inode (paper:
        "the creator allocates a superblock and an inode for the root
        of the filesystem").
        """
        meta_attrs = RegionAttributes(
            consistency_level=consistency,
            min_replicas=replicas,
            page_size=INODE_PAGE_SIZE,
        )
        sb_attrs = RegionAttributes(
            consistency_level=consistency,
            min_replicas=replicas,
            page_size=BLOCK_SIZE,
        )
        superblock = session.reserve(BLOCK_SIZE, sb_attrs)
        session.allocate(superblock.rid)
        root_inode_region = session.reserve(INODE_PAGE_SIZE, meta_attrs)
        session.allocate(root_inode_region.rid)

        now = session.daemon.now
        root = Inode(
            address=root_inode_region.rid,
            file_type=FileType.DIRECTORY,
            created_at=now,
            modified_at=now,
            consistency=consistency.value,
            replicas=replicas,
        )
        fs = cls(session, superblock.rid, root.address,
                 consistency, replicas)
        fs._write_inode(root)
        fs._write_dir(root, {})
        session.write_at(
            superblock.rid,
            encode_struct(
                {
                    "magic": SUPERBLOCK_MAGIC,
                    "root_inode": root.address,
                    "block_size": BLOCK_SIZE,
                    "consistency": consistency.value,
                    "replicas": replicas,
                },
                BLOCK_SIZE,
            ),
        )
        return fs

    @classmethod
    def mount(cls, session: KhazanaSession,
              superblock_addr: int) -> "KhazanaFileSystem":
        """Mount an existing file system by its superblock address."""
        doc = decode_struct(session.read_at(superblock_addr, BLOCK_SIZE))
        if doc.get("magic") != SUPERBLOCK_MAGIC:
            raise FileSystemError(
                f"no KFS superblock at {superblock_addr:#x}"
            )
        return cls(
            session,
            superblock_addr,
            int(doc["root_inode"]),
            ConsistencyLevel(doc.get("consistency", "strict")),
            int(doc.get("replicas", 1)),
        )

    # ------------------------------------------------------------------
    # Inode and block primitives
    # ------------------------------------------------------------------

    def _read_inode(self, address: int) -> Inode:
        return Inode.decode(
            address, self.session.read_at(address, INODE_PAGE_SIZE)
        )

    def _tombstone_inode(self, inode: Inode) -> None:
        """Zero the inode page before releasing its region.

        Region teardown is release-type (asynchronous), so another
        instance's cached inode address could otherwise keep opening a
        deleted file during the teardown window.  The tombstone rides
        the inode region's own consistency protocol, so under STRICT
        consistency a deleted file is unopenable everywhere the moment
        unlink returns.
        """
        self.inode_writes += 1
        try:
            self.session.write_at(
                inode.address, b"\x00" * INODE_PAGE_SIZE
            )
        except KhazanaError:
            # Best effort: a failed tombstone only widens the window
            # back to what asynchronous teardown gives anyway.
            pass

    def _write_inode(self, inode: Inode) -> None:
        self.inode_writes += 1
        self.session.write_at(inode.address, inode.encode())

    def _alloc_inode(self, file_type: FileType,
                     consistency: Optional[ConsistencyLevel] = None,
                     replicas: Optional[int] = None,
                     name: str = "", parent: int = 0) -> Inode:
        consistency = consistency or self.default_consistency
        replicas = replicas if replicas is not None else self.default_replicas
        region = self.session.reserve(
            INODE_PAGE_SIZE,
            RegionAttributes(
                consistency_level=consistency,
                min_replicas=replicas,
                page_size=INODE_PAGE_SIZE,
            ),
        )
        self.session.allocate(region.rid)
        now = self.session.daemon.now
        return Inode(
            address=region.rid,
            file_type=file_type,
            created_at=now,
            modified_at=now,
            consistency=consistency.value,
            replicas=replicas,
            name=name,
            parent=parent,
        )

    def alloc_block(self, consistency: Optional[str] = None,
                    replicas: Optional[int] = None) -> int:
        """Reserve+allocate one 4 KiB data block region."""
        level = (
            ConsistencyLevel(consistency)
            if consistency is not None
            else self.default_consistency
        )
        region = self.session.reserve(
            BLOCK_SIZE,
            RegionAttributes(
                consistency_level=level,
                min_replicas=(
                    replicas if replicas is not None else self.default_replicas
                ),
                page_size=BLOCK_SIZE,
            ),
        )
        self.session.allocate(region.rid)
        return region.rid

    def free_block(self, address: int) -> None:
        """Return a block region to Khazana ("to truncate a file, the
        system deallocates regions no longer needed")."""
        self.session.unreserve(address)

    # ------------------------------------------------------------------
    # File data I/O (shared by files and directory bodies)
    # ------------------------------------------------------------------

    def read_data(self, inode: Inode, offset: int, length: int) -> bytes:
        """Read file bytes: one locked read per block."""
        if offset >= inode.size:
            return b""
        length = min(length, inode.size - offset)
        if inode.layout == "extent":
            return self._extent_read(inode, offset, length)
        chunks: List[bytes] = []
        remaining = length
        position = offset
        while remaining > 0:
            index = position // BLOCK_SIZE
            within = position % BLOCK_SIZE
            take = min(remaining, BLOCK_SIZE - within)
            if index >= len(inode.blocks):
                chunks.append(b"\x00" * take)   # sparse hole
            else:
                chunks.append(self.session.read_at(
                    inode.blocks[index] + within, take
                ))
            position += take
            remaining -= take
        return b"".join(chunks)

    def write_data(self, inode: Inode, offset: int, data: bytes,
                   size: Optional[int] = None) -> Inode:
        """Write file bytes, growing the block list as needed; the new
        size is ``size``, or the old one grown to cover the write.

        Returns the updated inode (already persisted).
        """
        if inode.layout == "extent":
            return self._extent_write(inode, offset, data)
        end = offset + len(data)
        inode.check_capacity(end)
        while len(inode.blocks) * BLOCK_SIZE < end:
            inode.blocks.append(
                self.alloc_block(inode.consistency, inode.replicas)
            )
        position = offset
        consumed = 0
        while consumed < len(data):
            index = position // BLOCK_SIZE
            within = position % BLOCK_SIZE
            take = min(len(data) - consumed, BLOCK_SIZE - within)
            self.session.write_at(inode.blocks[index] + within,
                                  data[consumed : consumed + take])
            position += take
            consumed += take
        inode.size = max(inode.size, end) if size is None else size
        inode.modified_at = self.session.daemon.now
        self._write_inode(inode)
        return inode

    def replace_data(self, inode: Inode, data: bytes) -> Inode:
        """Make ``data`` the whole file, rewriting its blocks in place
        (zero-padded, so a later sparse extension reads zeroes) and
        reserving only those it needs beyond them.  The inode is written
        once, then the surplus unreserved: truncate_data's order, so no
        inode ever names an unreserved block."""
        if inode.layout == "extent":
            return self.write_data(self.truncate_data(inode, 0), 0, data)
        needed = inode.blocks_needed(len(data))
        doomed = inode.blocks[needed:]
        inode.blocks = inode.blocks[:needed]
        padded = bytes(data) + b"\x00" * (needed * BLOCK_SIZE - len(data))
        inode = self.write_data(inode, 0, padded, size=len(data))
        for block_addr in doomed:
            self.free_block(block_addr)
        return inode

    def truncate_data(self, inode: Inode, size: int) -> Inode:
        """Shrink (or sparsely grow) a file to ``size`` bytes."""
        if inode.layout == "extent":
            return self._extent_truncate(inode, size)
        inode.check_capacity(size)
        needed = inode.blocks_needed(size)
        doomed = inode.blocks[needed:]
        inode.blocks = inode.blocks[:needed]
        inode.size = size
        inode.modified_at = self.session.daemon.now
        self._write_inode(inode)
        for block_addr in doomed:
            self.free_block(block_addr)
        return inode

    # ------------------------------------------------------------------
    # Extent layout: one contiguous region per file (paper 4.1's
    # alternative — "resize the region whenever the file size changes")
    # ------------------------------------------------------------------

    def _extent_read(self, inode: Inode, offset: int, length: int) -> bytes:
        # Sparse files (truncate past the capacity) read the hole as
        # zeroes without any backing storage.
        if inode.extent == 0 or offset >= inode.extent_capacity:
            return b"\x00" * length
        readable = min(length, inode.extent_capacity - offset)
        data = self.session.read_at(inode.extent + offset, readable)
        return data + b"\x00" * (length - readable)

    def _extent_capacity_for(self, size: int) -> int:
        """Capacity policy: doubling, block-aligned, min one block."""
        capacity = BLOCK_SIZE
        while capacity < size:
            capacity *= 2
        return capacity

    def _extent_ensure_capacity(self, inode: Inode, size: int) -> Inode:
        from repro.core.errors import AddressSpaceExhausted

        if inode.extent == 0:
            capacity = self._extent_capacity_for(size)
            region = self.session.reserve(
                capacity,
                RegionAttributes(
                    consistency_level=ConsistencyLevel(inode.consistency),
                    min_replicas=inode.replicas,
                    page_size=BLOCK_SIZE,
                ),
            )
            self.session.allocate(region.rid)
            inode.extent = region.rid
            inode.extent_capacity = capacity
            return inode
        if size <= inode.extent_capacity:
            return inode
        capacity = self._extent_capacity_for(size)
        try:
            self.session.resize(inode.extent, capacity)
            inode.extent_capacity = capacity
        except AddressSpaceExhausted:
            # The neighbourhood is taken: relocate the extent (copy
            # into a fresh region, release the old one).
            old_extent, old_size = inode.extent, inode.size
            data = self._extent_read(inode, 0, old_size) if old_size else b""
            region = self.session.reserve(
                capacity,
                RegionAttributes(
                    consistency_level=ConsistencyLevel(inode.consistency),
                    min_replicas=inode.replicas,
                    page_size=BLOCK_SIZE,
                ),
            )
            self.session.allocate(region.rid)
            if data:
                self.session.write_at(region.rid, data)
            inode.extent = region.rid
            inode.extent_capacity = capacity
            self.session.unreserve(old_extent)
        return inode

    def _extent_write(self, inode: Inode, offset: int, data: bytes) -> Inode:
        end = offset + len(data)
        inode = self._extent_ensure_capacity(inode, end)
        self.session.write_at(inode.extent + offset, data)
        inode.size = max(inode.size, end)
        inode.modified_at = self.session.daemon.now
        self._write_inode(inode)
        return inode

    def _extent_truncate(self, inode: Inode, size: int) -> Inode:
        if size < inode.size and inode.extent != 0:
            new_capacity = self._extent_capacity_for(max(size, 1))
            # Zero the surviving bytes above the new size so a later
            # sparse re-extension reads holes as zeroes.  The zeroed
            # range is clamped to backed storage: bytes beyond the
            # (old or new) capacity either never existed or are freed
            # by the resize below, and regrow zero-fills them.
            zero_start = size
            zero_end = min(inode.size, new_capacity, inode.extent_capacity)
            if zero_start < zero_end:
                self.session.write_at(inode.extent + zero_start,
                                      b"\x00" * (zero_end - zero_start))
            if new_capacity < inode.extent_capacity:
                self.session.resize(inode.extent, new_capacity)
                inode.extent_capacity = new_capacity
        inode.size = size
        inode.modified_at = self.session.daemon.now
        self._write_inode(inode)
        return inode

    def _release_file_storage(self, inode: Inode) -> None:
        """Free whatever data storage a file holds, layout-agnostic."""
        if inode.layout == "extent":
            if inode.extent != 0:
                self.session.unreserve(inode.extent)
            return
        for block_addr in inode.blocks:
            self.free_block(block_addr)

    # ------------------------------------------------------------------
    # Directories
    # ------------------------------------------------------------------

    def _read_dir(self, inode: Inode) -> Dict[str, int]:
        if not inode.is_dir:
            raise FileSystemError(
                f"inode {inode.address:#x} is not a directory"
            )
        raw = self.read_data(inode, 0, inode.size)
        doc = decode_struct(raw + b"\x00") if raw else {}
        return {str(k): int(v) for k, v in doc.items()}

    def _write_dir(self, inode: Inode, entries: Dict[str, int]) -> Inode:
        blob = encode_struct(entries, max(BLOCK_SIZE, _dir_size(entries)))
        inode = self.write_data(inode, 0, blob)
        if inode.size > len(blob):
            inode = self.truncate_data(inode, len(blob))
        return inode

    # ------------------------------------------------------------------
    # Path resolution
    # ------------------------------------------------------------------

    def _namei(self, path: str) -> Inode:
        """Resolve a path to its inode: recursive descent plus a
        validated inode-address cache.

        Cached addresses are hints ("Opening a file is as simple as
        finding the inode address ... and caching that address",
        Section 4.1).  A hint is trusted only when the inode's
        back-pointer (leaf name + parent inode address) still matches
        the path component being resolved, which makes concurrent
        renames and unlinks from other instances safe: a mismatch
        falls back to reading the parent directory.  The root inode is
        read only when its body is needed: its address is known.
        """
        inode: Optional[Inode] = None
        address = self.root_inode_addr
        walked = ""
        for part in _split_path(path):
            walked = f"{walked}/{part}"
            child_inode: Optional[Inode] = None
            cached = self._inode_cache.get(walked)
            if cached is not None:
                try:
                    candidate = self._read_inode(cached)
                    if candidate.name == part and candidate.parent == address:
                        child_inode = candidate
                except (KhazanaError, LayoutError):
                    pass   # torn down or tombstoned: treat as stale
                if child_inode is None:
                    del self._inode_cache[walked]
            if child_inode is None:
                entries = self._read_dir(inode or self._read_inode(address))
                child = entries.get(part)
                if child is None:
                    raise FileSystemError(
                        f"no such file or directory: {path!r}"
                    )
                child_inode = self._read_inode(child)
                self._inode_cache[walked] = child
            inode, address = child_inode, child_inode.address
        return inode or self._read_inode(address)

    def _namei_parent(self, path: str) -> Tuple[Inode, str]:
        parts = _split_path(path)
        if not parts:
            raise FileSystemError("the root directory has no parent")
        name = validate_name(parts[-1])
        parent_path = "/" + "/".join(parts[:-1])
        return self._namei(parent_path), name

    # ------------------------------------------------------------------
    # Public file-system API
    # ------------------------------------------------------------------

    def create(self, path: str,
               consistency: Optional[ConsistencyLevel] = None,
               replicas: Optional[int] = None,
               layout: str = "blocks") -> KFile:
        """Create a regular file; fails if it already exists.

        ``layout`` picks the data placement: "blocks" (a 4 KiB region
        per block — the paper's current implementation) or "extent"
        (one contiguous region resized with the file — the paper's
        stated alternative).
        """
        if layout not in ("blocks", "extent"):
            raise FileSystemError(f"unknown layout {layout!r}")
        parent, name = self._namei_parent(path)
        entries = self._read_dir(parent)
        if name in entries:
            raise FileSystemError(f"file exists: {path!r}")
        inode = self._alloc_inode(FileType.FILE, consistency, replicas,
                                  name=name, parent=parent.address)
        inode.layout = layout
        self._write_inode(inode)
        entries[name] = inode.address
        self._write_dir(parent, entries)
        self._inode_cache[path.rstrip("/")] = inode.address
        return KFile(self, inode, writable=True)

    def open(self, path: str, mode: str = "r") -> KFile:
        """Open a file.  Modes: 'r', 'w' (truncate, deferred to the first
        access or close: see :class:`KFile`; a "w" handle never used nor
        closed leaves the old content in place), 'a' (append)."""
        if mode not in ("r", "w", "a"):
            raise FileSystemError(f"unsupported open mode {mode!r}")
        try:
            inode = self._namei(path)
        except FileSystemError:
            if mode == "r":
                raise
            return self.create(path)
        if inode.is_dir:
            raise FileSystemError(f"is a directory: {path!r}")
        handle = KFile(self, inode, writable=mode != "r",
                       replace=mode == "w" and inode.size > 0)
        if mode == "a":
            handle.seek(inode.size)
        return handle

    def mkdir(self, path: str) -> None:
        parent, name = self._namei_parent(path)
        entries = self._read_dir(parent)
        if name in entries:
            raise FileSystemError(f"file exists: {path!r}")
        inode = self._alloc_inode(FileType.DIRECTORY,
                                  name=name, parent=parent.address)
        self._write_inode(inode)
        self._write_dir(inode, {})
        entries[name] = inode.address
        self._write_dir(parent, entries)

    def listdir(self, path: str) -> List[str]:
        return sorted(self._read_dir(self._namei(path)))

    def exists(self, path: str) -> bool:
        try:
            self._namei(path)
            return True
        except FileSystemError:
            return False

    def stat(self, path: str) -> Inode:
        """The file's inode (size, type, timestamps, attributes)."""
        return self._namei(path)

    def unlink(self, path: str) -> None:
        """Remove a file, releasing its inode and block regions."""
        parent, name = self._namei_parent(path)
        entries = self._read_dir(parent)
        child_addr = entries.get(name)
        if child_addr is None:
            raise FileSystemError(f"no such file: {path!r}")
        inode = self._read_inode(child_addr)
        if inode.is_dir:
            raise FileSystemError(f"is a directory: {path!r}")
        del entries[name]
        self._write_dir(parent, entries)
        self._inode_cache.pop(path.rstrip("/"), None)
        inode.nlink -= 1
        if inode.nlink <= 0:
            self._tombstone_inode(inode)
            self._release_file_storage(inode)
            self.session.unreserve(inode.address)
        else:
            self._write_inode(inode)

    def rmdir(self, path: str) -> None:
        parent, name = self._namei_parent(path)
        entries = self._read_dir(parent)
        child_addr = entries.get(name)
        if child_addr is None:
            raise FileSystemError(f"no such directory: {path!r}")
        inode = self._read_inode(child_addr)
        if not inode.is_dir:
            raise FileSystemError(f"not a directory: {path!r}")
        if self._read_dir(inode):
            raise FileSystemError(f"directory not empty: {path!r}")
        del entries[name]
        self._write_dir(parent, entries)
        self._inode_cache.pop(path.rstrip("/"), None)
        self._tombstone_inode(inode)
        for block_addr in inode.blocks:
            self.free_block(block_addr)
        self.session.unreserve(inode.address)

    def rename(self, src: str, dst: str) -> None:
        """Move a file or directory to a free name (onto itself: no-op)."""
        src_parent, src_name = self._namei_parent(src)
        src_entries = self._read_dir(src_parent)
        child = src_entries.get(src_name)
        if child is None:
            raise FileSystemError(f"no such file: {src!r}")
        dst_parent, dst_name = self._namei_parent(dst)
        same_dir = dst_parent.address == src_parent.address
        if same_dir and dst_name == src_name:
            return
        dst_entries = src_entries if same_dir else self._read_dir(dst_parent)
        if dst_name in dst_entries:
            raise FileSystemError(f"destination exists: {dst!r}")
        del src_entries[src_name]
        dst_entries[dst_name] = child
        self._write_dir(src_parent, src_entries)
        if not same_dir:
            self._write_dir(dst_parent, dst_entries)
        # Refresh the moved inode's back-pointer so cached hints
        # elsewhere detect the rename and re-resolve.
        moved = self._read_inode(child)
        moved.name = dst_name
        moved.parent = dst_parent.address
        self._write_inode(moved)
        self._inode_cache.pop(src.rstrip("/"), None)
        self._inode_cache[dst.rstrip("/")] = child

    def tree(self, path: str = "/") -> Dict[str, object]:
        """Recursive listing (for examples and debugging)."""
        inode = self._namei(path)
        if not inode.is_dir:
            return {"type": "file", "size": inode.size}
        children = {}
        base = path.rstrip("/")
        for name in sorted(self._read_dir(inode)):
            children[name] = self.tree(f"{base}/{name}")
        return {"type": "dir", "children": children}


def _dir_size(entries: Dict[str, int]) -> int:
    """Bytes needed to serialize a directory, rounded up to blocks."""
    import json

    raw = len(json.dumps(entries, separators=(",", ":")).encode("utf-8"))
    return -(-max(raw, 2) // BLOCK_SIZE) * BLOCK_SIZE
