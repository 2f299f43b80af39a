"""On-"disk" layout of KFS structures.

All metadata (superblock, inodes, directory bodies) is serialized as
JSON padded to its region's page size.  Khazana does not interpret any
of it — "Khazana does not interpret the shared data" (Section 2) —
so the choice of encoding is private to the file system.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.storage.store import unpad

#: File data block size: "each block of the filesystem is allocated
#: into a separate 4-kilobyte region" (Section 4.1).
BLOCK_SIZE = 4096

#: Inodes get a region of one 16 KiB page, leaving room for a few
#: hundred direct block pointers in JSON.
INODE_PAGE_SIZE = 16384

#: Maximum direct blocks per inode; bounds file size at 1 MiB, which
#: the serialization check below enforces structurally.
MAX_BLOCKS = 256

MAX_FILE_SIZE = MAX_BLOCKS * BLOCK_SIZE

SUPERBLOCK_MAGIC = "KFS1"

#: Maximum length of one path component.
MAX_NAME = 255


class LayoutError(Exception):
    """A serialized structure does not fit or fails validation."""


def encode_struct(doc: Dict[str, Any], size: int) -> bytes:
    """JSON-encode ``doc`` padded with NULs to exactly ``size`` bytes."""
    blob = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    if len(blob) > size:
        raise LayoutError(
            f"structure needs {len(blob)} bytes, page holds {size}"
        )
    return blob + b"\x00" * (size - len(blob))


def decode_struct(data: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_struct`; empty pages decode to {}."""
    blob = unpad(data)
    if not blob:
        return {}
    try:
        return json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise LayoutError(f"corrupt KFS structure: {error}") from error


def validate_name(name: str) -> str:
    """Check a single path component."""
    if not name or name in (".", ".."):
        raise LayoutError(f"invalid file name {name!r}")
    if "/" in name or "\x00" in name:
        raise LayoutError(f"file name {name!r} contains '/' or NUL")
    if len(name) > MAX_NAME:
        raise LayoutError(f"file name longer than {MAX_NAME} bytes")
    return name
