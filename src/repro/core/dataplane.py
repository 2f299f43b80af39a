"""DataPlane: lock/read/write operations and local page residency.

The data path of Sections 2 and 3.3-3.4: clients lock a range (which
drives the region's consistency manager), then read and write bytes
against locally cached pages.  The service owns the live lock-context
table, the per-page waiter gates that wake blocked lockers, and the
local page store/evict path shared with the consistency managers
through the :class:`~repro.core.cmhost.CMHost` surface.
"""

from __future__ import annotations

import logging

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, Generator, List, Tuple

from repro.core.address_map import SYSTEM_RID
from repro.core.addressing import AddressRange
from repro.core.errors import (
    AccessDenied,
    InvalidLockContext,
    InvalidRange,
    KhazanaError,
    LockDenied,
    NotAllocated,
    error_from_code,
)
from repro.core.locks import LockContext, LockMode
from repro.core.region import RegionDescriptor
from repro.core.security import Right, SYSTEM_PRINCIPAL
from repro.net.tasks import Future
from repro.net.rpc import RemoteError
from repro.storage.store import StoredPage

if TYPE_CHECKING:
    from repro.consistency.manager import ConsistencyManager
    from repro.core.kernel import NodeKernel

ProtocolGen = Generator[Future, Any, Any]

logger = logging.getLogger(__name__)


class DataPlane:
    """Lock contexts, page I/O, and the local residency paths."""

    def __init__(self, kernel: "NodeKernel") -> None:
        self.kernel = kernel
        #: Live lock contexts: ctx_id -> (descriptor, page list).
        self._ctx_pages: Dict[int, Tuple[RegionDescriptor, List[int]]] = {}
        #: Futures parked on a page until its conflicting lock drops.
        self._page_waiters: Dict[int, Deque[Future]] = {}

    # ------------------------------------------------------------------
    # Introspection for tools and invariant checks
    # ------------------------------------------------------------------

    def open_context_ids(self) -> List[int]:
        """Ids of lock contexts currently open on this node."""
        return list(self._ctx_pages)

    def region_in_use(self, rid: int) -> Any:
        """The id of a live lock context on ``rid``, or None."""
        for ctx_id, (ctx_desc, _pages) in self._ctx_pages.items():
            if ctx_desc.rid == rid:
                return ctx_id
        return None

    # ------------------------------------------------------------------
    # Client operations (paper Section 2's API)
    # ------------------------------------------------------------------

    def op_lock(
        self,
        target: AddressRange,
        mode: LockMode,
        principal: str = SYSTEM_PRINCIPAL,
    ) -> ProtocolGen:
        """Lock part of a region; returns a :class:`LockContext`."""
        kernel = self.kernel
        kernel.stats.bump("lock")
        desc = yield from kernel.placement.locate_region(target.start)
        if not desc.range.contains_range(target):
            raise InvalidRange(
                f"lock range {target} crosses the boundary of region "
                f"{desc.range}; lock each region separately"
            )
        if not desc.allocated:
            # The cached descriptor may predate allocation; confirm
            # with a home node before failing (stale hints are normal,
            # Section 3.2).
            desc = yield from kernel.placement.refresh_descriptor(desc)
            if not desc.allocated:
                raise NotAllocated(
                    f"region {desc.rid:#x} has no allocated storage"
                )
        needed = Right.WRITE if mode.is_write else Right.READ
        if not desc.attrs.acl.allows(principal, needed):
            raise AccessDenied(
                f"principal {principal!r} lacks {needed} on region "
                f"{desc.rid:#x}"
            )

        ctx = LockContext(
            rid=desc.rid, range=target, mode=mode,
            node_id=kernel.node_id, principal=principal,
        )
        if kernel.probe.enabled:
            kernel.probe.region_seen(kernel.node_id, desc)
        pages = desc.pages_covering(target)
        cm = kernel.consistency_manager(desc.attrs.protocol)
        acquired: List[int] = []

        def note_acquired(page_addr: int) -> None:
            # Pin the page the moment its acquisition is final so a
            # later failure in the same range rolls back exactly the
            # pages we hold.
            kernel.lock_table.register(ctx, [page_addr])
            acquired.append(page_addr)

        try:
            try:
                yield from cm.acquire_many(desc, pages, mode, ctx,
                                           note_acquired)
            except RemoteError as error:
                raise error_from_code(error.code, error.detail) from error
        except BaseException:
            # Roll back partial acquisition so no page stays pinned.
            if acquired:
                engine = getattr(cm, "engine", None)
                if engine is not None:
                    engine.counters.rollbacks += 1
                kernel.lock_table.release(ctx, acquired)
                for page_addr in acquired:
                    self._wake_page(page_addr, cm)
            raise
        self._ctx_pages[ctx.ctx_id] = (desc, pages)
        return ctx

    def wait_local_conflicts(self, page_addr: int,
                             mode: LockMode) -> ProtocolGen:
        """Block until no live local context conflicts with ``mode``."""
        kernel = self.kernel
        deadline_exc = LockDenied(
            f"timed out waiting {kernel.config.lock_wait_timeout}s for a "
            f"conflicting local lock on page {page_addr:#x}"
        )
        while kernel.lock_table.conflicts(page_addr, mode):
            kernel.stats.lock_waits += 1
            gate = Future(label=f"lockwait:{page_addr:#x}")
            self._page_waiters.setdefault(page_addr, deque()).append(gate)
            try:
                yield kernel.with_timeout(
                    gate, kernel.config.lock_wait_timeout, deadline_exc
                )
            except LockDenied:
                kernel.stats.lock_timeouts += 1
                raise

    def op_unlock(self, ctx: LockContext) -> ProtocolGen:
        """Release a lock context.

        The *network* side is release-type and never raises (push
        failures go to the background retry queue, paper 3.5) — but
        presenting an already-unlocked or foreign context is a client
        bug, surfaced as ``InvalidLockContext`` like any other misuse
        of a closed context.
        """
        kernel = self.kernel
        kernel.stats.bump("unlock")
        mapping = self._ctx_pages.pop(ctx.ctx_id, None)
        if mapping is None:
            ctx.check_open()   # raises InvalidLockContext when closed
            raise InvalidLockContext(
                f"lock context {ctx.ctx_id} unknown to node {kernel.node_id}"
            )
        desc, pages = mapping
        cm = kernel.consistency_manager(desc.attrs.protocol)
        try:
            yield from cm.release_many(desc, pages, ctx)
        except Exception:
            # Backstop: release_many already routes per-page failures
            # to the retry queue, but unlock itself must never raise.
            logger.warning(
                "node %d: release_many for context %d failed; retrying "
                "per page in the background", kernel.node_id, ctx.ctx_id,
                exc_info=True,
            )
            for page_addr in pages:
                kernel.retry_queue.enqueue(
                    lambda cm=cm, page_addr=page_addr: cm.release(
                        desc, page_addr, ctx
                    ),
                    label=f"cm-release:{page_addr:#x}",
                )
        kernel.lock_table.release(ctx, pages)
        for page_addr in pages:
            self._wake_page(page_addr, cm)
        return None

    def _wake_page(self, page_addr: int, cm: "ConsistencyManager") -> None:
        cm.notify_unlocked(page_addr)
        waiters = self._page_waiters.pop(page_addr, None)
        if waiters:
            for gate in waiters:
                if not gate.done:
                    gate.set_result(None)

    def try_read_fast(self, ctx: LockContext, address: int,
                      length: int) -> Any:
        """Synchronous read fast path: bytes, or None to take the
        generator path.

        Serves the hot case — every covered page RAM-resident, probes
        off — without a generator, a Future, or a scheduler step.  Any
        validation failure returns None so :meth:`op_read` raises the
        identical error; storage counters are bumped exactly as the
        slow path would.
        """
        kernel = self.kernel
        if kernel.probe.enabled or length <= 0 or ctx.closed:
            return None
        ctx_range = ctx.range
        if address < ctx_range.start or address + length > ctx_range.end:
            return None
        mapping = self._ctx_pages.get(ctx.ctx_id)
        if mapping is None:
            return None
        desc = mapping[0]
        page_size = desc.page_size
        first = (address // page_size) * page_size
        storage = kernel.storage
        memory = storage.memory
        end = address + length
        if end <= first + page_size:
            # Single-page read: slice straight out of the stored buffer.
            page = storage.load_resident(first)
            if page is None:
                return None
            data = page.data
            kernel.stats.bump("read")
            if length == page_size and type(data) is bytes:
                return data   # whole page, immutable: no copy at all
            lo = address - first
            return bytes(memoryview(data)[lo : lo + length])  # khz: allow-copy(client-facing partial read owns its bytes)
        # Multi-page: confirm full residency before charging any hit
        # counters, then assemble through borrowed views (one copy, in
        # the final join).
        last = ((end - 1) // page_size) * page_size
        page_addrs = range(first, last + page_size, page_size)
        for page_addr in page_addrs:
            if memory.peek(page_addr) is None:
                return None
        chunks: List[Any] = []
        for page_addr in page_addrs:
            page = storage.load_resident(page_addr)
            if page is None:   # pragma: no cover - peeked above
                return None
            lo = max(address, page_addr) - page_addr
            hi = min(end, page_addr + page_size) - page_addr
            chunks.append(memoryview(page.data)[lo:hi])
        kernel.stats.bump("read")
        return b"".join(chunks)

    def op_read(self, ctx: LockContext, target: AddressRange) -> ProtocolGen:
        """Read bytes under a lock context."""
        fast = self.try_read_fast(ctx, target.start, target.length)
        if fast is not None:
            return fast
        kernel = self.kernel
        kernel.stats.bump("read")
        ctx.check_covers(target, for_write=False)
        desc, _pages = self._require_ctx(ctx)
        if kernel.probe.enabled:
            kernel.probe.page_read(kernel.node_id, ctx,
                                   desc.pages_covering(target),
                                   desc.attrs.protocol)
        chunks: List[Any] = []
        for page_addr in desc.pages_covering(target):
            data = yield from self.local_page_bytes(desc, page_addr)
            if data is None:
                raise KhazanaError(
                    f"page {page_addr:#x} vanished under lock context "
                    f"{ctx.ctx_id}"
                )
            page_range = AddressRange(page_addr, desc.page_size)
            overlap = page_range.intersection(target)
            assert overlap is not None
            if overlap.length == len(data) and type(data) is bytes:
                chunks.append(data)   # whole page served without a copy
            else:
                lo = overlap.start - page_addr
                chunks.append(memoryview(data)[lo : lo + overlap.length])
        if len(chunks) == 1 and type(chunks[0]) is bytes:
            return chunks[0]
        return b"".join(chunks)

    def try_write_fast(self, ctx: LockContext, address: int,
                       data: Any) -> bool:
        """Synchronous write fast path; False means take op_write.

        Covers RAM-resident (or fully overwritten) pages on nodes
        whose stores do not write through to disk.  Stored buffers are
        *replaced*, never patched in place, so aliased twins and wire
        payloads stay stable snapshots (docs/performance.md).
        """
        kernel = self.kernel
        length = len(data)
        if kernel.probe.enabled or length <= 0 or ctx.closed:
            return False
        if not ctx.mode.is_write:
            return False
        if type(data) is not bytes:
            # The full-page branches below alias the source buffer; a
            # caller-owned mutable buffer must be snapshotted first.
            data = bytes(data)  # khz: allow-copy(snapshot caller-owned mutable buffer)
        ctx_range = ctx.range
        if address < ctx_range.start or address + length > ctx_range.end:
            return False
        mapping = self._ctx_pages.get(ctx.ctx_id)
        if mapping is None:
            return False
        desc = mapping[0]
        is_home = kernel.node_id in desc.home_nodes
        if is_home and (desc.rid == SYSTEM_RID or kernel.journal is not None):
            return False   # write-through path charges modelled disk cost
        page_size = desc.page_size
        storage = kernel.storage
        memory = storage.memory
        end = address + length
        first = (address // page_size) * page_size
        last = ((end - 1) // page_size) * page_size
        page_addrs = range(first, last + page_size, page_size)
        # Validate everything up front: past this loop the write cannot
        # fall back, or pages would be stored twice.
        for page_addr in page_addrs:
            full = address <= page_addr and page_addr + page_size <= end
            if not full and memory.peek(page_addr) is None:
                return False
        src = memoryview(data) if len(page_addrs) > 1 else None
        for page_addr in page_addrs:
            lo = max(address, page_addr) - page_addr
            hi = min(end, page_addr + page_size) - page_addr
            src_lo = page_addr + lo - address
            if hi - lo == page_size:
                # Full-page overwrite: alias the (immutable or caller-
                # relinquished) source buffer instead of copying it.
                updated = data if src is None else src[src_lo : src_lo + page_size]
            else:
                page = storage.load_resident(page_addr)
                if page is None:   # pragma: no cover - peeked above
                    return False
                updated = bytearray(page.data)   # fresh buffer replaces the frozen one
                piece = data if src is None else src[src_lo : src_lo + (hi - lo)]
                updated[lo:hi] = piece
            if not storage.store_resident(
                StoredPage(page_addr, updated, dirty=True)
            ):
                return False   # RAM full: restart through the evicting path
            entry = kernel.page_directory.ensure(
                page_addr, desc.rid, homed=is_home
            )
            entry.record_sharer(kernel.node_id)
            ctx.dirty_pages.add(page_addr)
        kernel.stats.bump("write")
        return True

    def op_write(self, ctx: LockContext, target: AddressRange,
                 data: bytes) -> ProtocolGen:
        """Write bytes under a lock context."""
        kernel = self.kernel
        if len(data) == target.length and self.try_write_fast(
            ctx, target.start, data
        ):
            return None
        kernel.stats.bump("write")
        ctx.check_covers(target, for_write=True)
        if len(data) != target.length:
            raise InvalidRange(
                f"write of {len(data)} bytes into range of {target.length}"
            )
        desc, _pages = self._require_ctx(ctx)
        if kernel.probe.enabled:
            kernel.probe.page_write(kernel.node_id, ctx,
                                    desc.pages_covering(target),
                                    desc.attrs.protocol)
        if type(data) is not bytes:
            # Full-page stores below alias the source buffer; snapshot
            # mutable caller buffers so stored pages stay frozen.
            data = bytes(data)  # khz: allow-copy(snapshot caller-owned mutable buffer)
        src = memoryview(data)
        for page_addr in desc.pages_covering(target):
            page_range = AddressRange(page_addr, desc.page_size)
            overlap = page_range.intersection(target)
            assert overlap is not None
            lo = overlap.start - page_addr
            src_lo = overlap.start - target.start
            if overlap.length == desc.page_size:
                # Full-page write: every byte is replaced, so skip the
                # read-modify-write (which may fetch the stale page
                # over the network just to discard it) and alias the
                # source instead of copying it.
                if overlap.length == len(data) and type(data) is bytes:
                    updated: Any = data
                else:
                    updated = src[src_lo : src_lo + overlap.length]
            else:
                current = yield from self.local_page_bytes(desc, page_addr)
                if current is None:
                    current = b"\x00" * desc.page_size
                # Patch a fresh buffer and store it outright: stored
                # buffers are frozen, so the old one is replaced, not
                # mutated (twins aliasing it stay pristine).
                patched = bytearray(current)
                patched[lo : lo + overlap.length] = (
                    src[src_lo : src_lo + overlap.length]
                )
                updated = patched
            yield from self.store_local_page(desc, page_addr, updated,
                                             dirty=True)
            ctx.dirty_pages.add(page_addr)
        return None

    def _require_ctx(
        self, ctx: LockContext
    ) -> Tuple[RegionDescriptor, List[int]]:
        mapping = self._ctx_pages.get(ctx.ctx_id)
        if mapping is None:
            ctx.check_open()   # raises if closed
            raise KhazanaError(
                f"lock context {ctx.ctx_id} unknown to node "
                f"{self.kernel.node_id}"
            )
        return mapping

    # ------------------------------------------------------------------
    # Page residency (shared with consistency managers via CMHost)
    # ------------------------------------------------------------------

    def local_page_bytes(self, desc: RegionDescriptor,
                         page_addr: int) -> ProtocolGen:
        """Bytes of a locally stored page, charging modelled disk cost.

        At a home node, an allocated-but-never-written page zero-fills
        on demand (backing store is materialised lazily).
        Returns None when the page is simply not here.
        """
        kernel = self.kernel
        page, cost = kernel.storage.load(page_addr)
        if cost > 0:
            yield from kernel.charge_io(cost)
        if page is not None:
            return page.data
        if kernel.node_id in desc.home_nodes:
            entry = kernel.page_directory.get(page_addr)
            implicitly_allocated = desc.rid == SYSTEM_RID
            if implicitly_allocated or (entry is not None and entry.allocated):
                data = b"\x00" * desc.page_size
                yield from self.store_local_page(desc, page_addr, data,
                                                 dirty=False)
                entry = kernel.page_directory.ensure(
                    page_addr, desc.rid, homed=True
                )
                entry.allocated = True
                return data
        return None

    def store_local_page(self, desc: RegionDescriptor, page_addr: int,
                         data: bytes, dirty: bool) -> ProtocolGen:
        """Cache page bytes locally, charging victimization I/O cost.

        Address-map pages are written through to disk at their home:
        the paper (3.5) requires the metadata needed to access a region
        to be at least as available as the region itself, so a crashed
        bootstrap node must recover the map from its persistent store.
        """
        kernel = self.kernel
        page = StoredPage(page_addr, data, dirty=dirty)
        is_home = kernel.node_id in desc.home_nodes
        durable = kernel.journal is not None
        if is_home and (desc.rid == SYSTEM_RID or durable):
            # Home copies of the address map are always persistent;
            # on durable deployments every homed page writes through,
            # so a restarted daemon recovers its regions' contents.
            cost = kernel.storage.write_through(page)
        else:
            cost = kernel.storage.store(page)
        if cost > 0:
            yield from kernel.charge_io(cost)
        entry = kernel.page_directory.ensure(page_addr, desc.rid,
                                             homed=is_home)
        entry.record_sharer(kernel.node_id)

    def drop_local_page(self, page_addr: int) -> None:
        self.kernel.storage.drop(page_addr)

    def on_disk_evict(self, page: StoredPage) -> bool:
        """Consistency hook before a page leaves this node (3.4)."""
        kernel = self.kernel
        entry = kernel.page_directory.get(page.address)
        if entry is None:
            return not page.dirty   # unknown dirty page: refuse to lose it
        if entry.homed:
            return False   # never evict authoritative home copies
        desc = kernel.region_directory.find_covering(page.address)
        if desc is None:
            return not page.dirty
        cm = kernel.consistency_manager(desc.attrs.protocol)
        kernel.spawn(
            cm.evict(desc, page.address, page.data, page.dirty),
            label=f"evict:{page.address:#x}",
        )
        kernel.page_directory.drop(page.address)
        cm.page_state.pop(page.address, None)
        if not kernel.page_directory.entries_for_region(desc.rid):
            # Last cached page gone: withdraw this node's caching
            # advertisement, or the manager keeps handing out a hint
            # that now costs every looker-up one failed RPC.
            kernel.placement.retract(desc)
        return True
