"""Khazana error taxonomy.

Following the paper's failure semantics (Section 3.5): errors raised
while *acquiring* resources (reserve, allocate, lock, read, write) are
reflected back to the client as these exceptions, while errors raised
while *releasing* resources (unreserve, free, unlock) are absorbed and
retried in the background by :mod:`repro.failure.retry`.
"""

from __future__ import annotations


class KhazanaError(Exception):
    """Base class for every error Khazana reflects to a client.

    ``code`` is the stable wire identifier carried in ERROR NAK
    messages between daemons.
    """

    code = "khazana_error"

    def __init__(self, detail: str = "") -> None:
        super().__init__(detail or self.__doc__ or self.code)
        self.detail = detail


class InvalidRange(KhazanaError):
    """The supplied global address range is malformed or out of bounds."""

    code = "invalid_range"


class BadPageSize(KhazanaError):
    """Requested page size is not 4 KiB or a supported larger power of two."""

    code = "bad_page_size"


class AddressSpaceExhausted(KhazanaError):
    """No contiguous run of unreserved global address space was found."""

    code = "address_space_exhausted"


class RegionNotFound(KhazanaError):
    """No reserved region encloses the requested global address range.

    Raised after the full lookup chain — region directory, cluster
    manager, address-map tree walk — has failed (paper Section 3.2:
    "If the region descriptor cannot be located, the region is deemed
    inaccessible and the operation fails back to the client").
    """

    code = "region_not_found"


class NotReserved(KhazanaError):
    """Operation on address space that is not part of a reserved region."""

    code = "not_reserved"


class AlreadyReserved(KhazanaError):
    """Attempt to reserve address space that is already reserved."""

    code = "already_reserved"


class NotAllocated(KhazanaError):
    """Access to a reserved region before physical storage is allocated.

    "A region cannot be accessed until physical storage is explicitly
    allocated to it" (paper Section 2).
    """

    code = "not_allocated"


class AllocationFailed(KhazanaError):
    """No node could supply backing storage for the requested pages."""

    code = "allocation_failed"


class StorageExhausted(KhazanaError):
    """A node's local storage hierarchy is full of locked/pinned pages."""

    code = "storage_exhausted"


class AccessDenied(KhazanaError):
    """The caller's credentials fail the region's access control list."""

    code = "access_denied"


class LockDenied(KhazanaError):
    """The consistency manager refused the lock (e.g. timeout waiting
    for a conflicting holder, or mode not permitted for this caller)."""

    code = "lock_denied"


class InvalidLockContext(KhazanaError):
    """A read/write presented a lock context that is closed, covers a
    different range, or grants an insufficient mode."""

    code = "invalid_lock_context"


class ProtocolUnknown(KhazanaError):
    """The region names a consistency protocol no CM has registered."""

    code = "protocol_unknown"


class NodeUnavailable(KhazanaError):
    """Every node that could serve the request is crashed or partitioned."""

    code = "node_unavailable"


class KhazanaTimeout(KhazanaError):
    """The operation timed out after exhausting retries on all known
    nodes (paper Section 3.5)."""

    code = "timeout"


class RegionInUse(KhazanaError):
    """Unreserve attempted while locks are still held on the region."""

    code = "region_in_use"


class BadRequest(KhazanaError):
    """A peer's request could not be handled: its payload is malformed
    or its handler failed on it."""

    code = "bad_request"


#: Wire code -> exception class, used when turning an ERROR NAK from a
#: peer daemon back into a typed exception at the requesting node.
ERROR_CODES = {
    cls.code: cls
    for cls in (
        KhazanaError,
        InvalidRange,
        BadPageSize,
        AddressSpaceExhausted,
        RegionNotFound,
        NotReserved,
        AlreadyReserved,
        NotAllocated,
        AllocationFailed,
        StorageExhausted,
        AccessDenied,
        LockDenied,
        InvalidLockContext,
        ProtocolUnknown,
        NodeUnavailable,
        KhazanaTimeout,
        RegionInUse,
        BadRequest,
    )
}


def error_from_code(code: str, detail: str = "") -> KhazanaError:
    """Reconstruct a typed exception from a wire error code."""
    cls = ERROR_CODES.get(code, KhazanaError)
    return cls(detail)
