"""Inodes.

"Each inode is allocated as a region of its own.  Parameters specified
at file creation time may be used to specify the number of replicas
required, consistency level required, access modes permitted, and so
forth." (paper Section 4.1)

An inode occupies one 16 KiB page in its private region and holds the
file type, size, and the list of data-block region addresses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.fs.layout import (
    BLOCK_SIZE,
    INODE_PAGE_SIZE,
    LayoutError,
    MAX_BLOCKS,
    decode_struct,
    encode_struct,
)


class FileType(str, enum.Enum):
    FILE = "file"
    DIRECTORY = "dir"


@dataclass
class Inode:
    """In-memory form of one inode."""

    address: int              # region id of the inode's own region
    file_type: FileType
    size: int = 0             # file length in bytes
    blocks: List[int] = field(default_factory=list)   # block region ids
    nlink: int = 1
    created_at: float = 0.0
    modified_at: float = 0.0
    #: Attribute knobs recorded at creation (informational; the block
    #: regions were reserved with them).
    consistency: str = "strict"
    replicas: int = 1
    #: Back-pointer: the leaf name this inode is bound to and the
    #: inode address of its parent directory.  Lets cached
    #: path->inode-address hints be validated without re-reading the
    #: parent directory's blocks (renames update these fields).
    name: str = ""
    parent: int = 0
    #: Data layout: "blocks" (one 4 KiB region per block, the paper's
    #: current implementation) or "extent" (one contiguous region
    #: resized as the file grows — the paper's stated alternative).
    layout: str = "blocks"
    #: Extent layout only: the data region's id and current capacity.
    extent: int = 0
    extent_capacity: int = 0

    @property
    def is_dir(self) -> bool:
        return self.file_type is FileType.DIRECTORY

    def blocks_needed(self, size: int) -> int:
        return -(-size // BLOCK_SIZE)

    def check_capacity(self, size: int) -> None:
        if self.blocks_needed(size) > MAX_BLOCKS:
            raise LayoutError(
                f"file of {size} bytes needs "
                f"{self.blocks_needed(size)} blocks; inode holds at most "
                f"{MAX_BLOCKS}"
            )

    def encode(self) -> bytes:
        return encode_struct(self.to_doc(), INODE_PAGE_SIZE)

    def to_doc(self) -> Dict[str, Any]:
        return {
            "type": self.file_type.value,
            "size": self.size,
            "blocks": self.blocks,
            "nlink": self.nlink,
            "created_at": self.created_at,
            "modified_at": self.modified_at,
            "consistency": self.consistency,
            "replicas": self.replicas,
            "name": self.name,
            "parent": self.parent,
            "layout": self.layout,
            "extent": self.extent,
            "extent_capacity": self.extent_capacity,
        }

    @classmethod
    def decode(cls, address: int, data: bytes) -> "Inode":
        doc = decode_struct(data)
        if not doc:
            raise LayoutError(f"inode region {address:#x} is empty")
        return cls(
            address=address,
            file_type=FileType(doc["type"]),
            size=int(doc["size"]),
            blocks=[int(b) for b in doc["blocks"]],
            nlink=int(doc.get("nlink", 1)),
            created_at=float(doc.get("created_at", 0.0)),
            modified_at=float(doc.get("modified_at", 0.0)),
            consistency=str(doc.get("consistency", "strict")),
            replicas=int(doc.get("replicas", 1)),
            name=str(doc.get("name", "")),
            parent=int(doc.get("parent", 0)),
            layout=str(doc.get("layout", "blocks")),
            extent=int(doc.get("extent", 0)),
            extent_capacity=int(doc.get("extent_capacity", 0)),
        )
