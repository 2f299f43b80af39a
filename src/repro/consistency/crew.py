"""CREW: the Concurrent Read Exclusive Write protocol.

"The only consistency model we currently support is a Concurrent Read
Exclusive Write (CREW) protocol [Lamport 1979]" (paper Section 5) —
the strict protocol behind ``ConsistencyLevel.STRICT``.  The page's
home node keeps the authoritative owner/copyset entry (Section 3.1);
requesters with a cached owner hint may contact the owner directly
(the fast path of Figure 2).  The copy movement itself — demote or
revoke the owner, invalidate the copyset, wait out local contexts —
is the engine's :class:`~repro.consistency.engine.DirectoryCoherence`;
this module keeps only the CREW policy decisions.

Durability addition: because Khazana is a *persistent* store, dirty
pages are written back to every home node at lock release, so a
region with ``min_replicas`` > 1 home nodes survives the loss of any
owner or home (Section 3.5's availability goal).
"""

from __future__ import annotations

from typing import Any, Dict, List

from typing import TYPE_CHECKING

from repro.consistency.engine import PageEvent
from repro.consistency.engine.batch import error_item
from repro.consistency.manager import (
    ConsistencyManager,
    LocalPageState,
    ProtocolGen,
    register_protocol,
)
from repro.core.errors import KhazanaError, LockDenied
from repro.core.locks import LockContext, LockMode
from repro.core.region import RegionDescriptor
from repro.net.message import Message, MessageType
from repro.net.rpc import RemoteError, RetryPolicy, RpcTimeout

if TYPE_CHECKING:
    from repro.core.cmhost import CMHost

#: Directory transactions can stall on a peer's open lock context, so
#: their constituent RPCs tolerate long waits before retransmitting.
TRANSACTION_POLICY = RetryPolicy(timeout=10.0, retries=2, backoff=1.5)


@register_protocol
class CrewManager(ConsistencyManager):
    """Consistency manager implementing CREW."""

    protocol_name = "crew"

    #: Full MSI: read copies are SHARED, a write grant is EXCLUSIVE,
    #: handing out a read copy demotes, invalidations and durability
    #: write-backs leave the page INVALID locally.
    TRANSITIONS = {
        PageEvent.READ_FILL: LocalPageState.SHARED,
        PageEvent.WRITE_GRANT: LocalPageState.EXCLUSIVE,
        PageEvent.DEMOTE: LocalPageState.SHARED,
        PageEvent.INVALIDATE: LocalPageState.INVALID,
        PageEvent.WRITEBACK_COPY: LocalPageState.INVALID,
    }

    def __init__(self, host: "CMHost") -> None:
        super().__init__(host)
        self.engine.directory.policy = TRANSACTION_POLICY

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    @staticmethod
    def _reject_write_shared(mode: LockMode) -> None:
        if mode is LockMode.WRITE_SHARED:
            raise LockDenied(
                "CREW does not support write-shared intentions; "
                "use the release or eventual protocol"
            )

    def _satisfied_locally(self, desc: RegionDescriptor, page_addr: int,
                           mode: LockMode) -> bool:
        state = self.pages.state(page_addr)
        resident = self.host.storage.contains(page_addr)
        if mode is LockMode.READ:
            return state is not LocalPageState.INVALID and resident
        entry = self.host.page_directory.get(page_addr)
        return (state is LocalPageState.EXCLUSIVE and resident
                and entry is not None
                and entry.owner == self.host.node_id)

    def acquire(
        self,
        desc: RegionDescriptor,
        page_addr: int,
        mode: LockMode,
        ctx: LockContext,
    ) -> ProtocolGen:
        """In place: a valid local copy, a grant this node makes as the
        primary home, or a read copy straight from the owner a
        directory hint names (the fast path of Figure 2)."""
        self._reject_write_shared(mode)
        if self._satisfied_locally(desc, page_addr, mode):
            return True
        me = self.host.node_id
        if me == desc.primary_home:
            data = yield from self._home_grant(desc, page_addr, mode, me)
            yield from self._install_grants(
                desc, mode, [{"page": page_addr, "data": data}])
            return True
        if mode is LockMode.READ:
            served = yield from self._direct_read(desc, page_addr,
                                                  ctx.principal)
            return served
        return False

    def acquire_remote(self, desc: RegionDescriptor, pages: List[int],
                       mode: LockMode, ctx: LockContext) -> ProtocolGen:
        reply = yield from self.engine.request_home(
            desc,
            MessageType.LOCK_REQUEST,
            {"rid": desc.rid, "pages": list(pages),
             "mode": mode.value, "principal": ctx.principal},
            policy=TRANSACTION_POLICY,
            fail="no home node of region {rid:#x} granted the lock: {error}",
        )
        yield from self._install_grants(desc, mode, reply.payload["pages"])
        self.engine.raise_batch_errors(reply)

    def _direct_read(self, desc: RegionDescriptor, page_addr: int,
                     principal: str) -> ProtocolGen:
        """Fast path (Figure 2): a page-directory hint names the
        owner; ask it directly for a read copy."""
        me = self.host.node_id
        hint = self.host.page_directory.get(page_addr)
        owner = hint.owner if hint is not None else None
        if owner is None or owner in (me, desc.primary_home):
            return False
        try:
            reply = yield self.engine.request(
                owner,
                MessageType.LOCK_REQUEST,
                {"rid": desc.rid, "pages": [page_addr],
                 "mode": LockMode.READ.value, "direct": True,
                 "principal": principal},
                policy=TRANSACTION_POLICY,
            )
        except (RpcTimeout, RemoteError):
            return False   # stale hint; fall back to the home node
        yield from self._install_grants(desc, LockMode.READ,
                                        reply.payload["pages"])
        self.engine.raise_batch_errors(reply)
        return True

    def _install_grants(self, desc: RegionDescriptor, mode: LockMode,
                        items: List[Dict[str, Any]]) -> ProtocolGen:
        """Install granted items locally: read copies with the owner
        they name, or write ownership (an upgrade keeps its copy)."""
        write = mode is not LockMode.READ
        me = self.host.node_id

        def note(entry: Any, item: Dict[str, Any]) -> None:
            if not write:
                if item.get("owner") is not None:
                    entry.owner = item["owner"]
                return
            # Only the home may hold a page it never materialised.
            if (item.get("data") is None and me != desc.primary_home
                    and not self.host.storage.contains(entry.address)):
                raise KhazanaError(
                    f"write grant for page {entry.address:#x} carried no "
                    "data and no local copy exists"
                )
            entry.owner = me

        yield from self.engine.batch.install(
            desc, items,
            PageEvent.WRITE_GRANT if write else PageEvent.READ_FILL,
            dirty=write, note=note,
        )

    def release_many(
        self,
        desc: RegionDescriptor,
        pages: List[int],
        ctx: LockContext,
    ) -> ProtocolGen:
        """Write dirty pages back to every home node at unlock, one
        push per home (the primary's included: the write-back goes to
        the *other* homes).

        CREW itself moves data only on demand; the write-back provides
        the persistence the paper requires of Khazana's storage.  Best
        effort: unreachable homes are repaired by the replica
        maintenance loop, not by failing the unlock (3.5).
        """
        updates = [{"page": page_addr, "data": page.data,
                    "release_token": False}
                   for page_addr, page in self.dirty_copies(pages, ctx)]
        if not updates:
            return
        yield from self.engine.push_homes(
            desc,
            MessageType.UPDATE_PUSH,
            {"rid": desc.rid, "updates": updates},
            policy=TRANSACTION_POLICY,
            label="crew-writeback",
        )
        if self.host.node_id == desc.primary_home:
            for update in updates:
                self.host.storage.mark_clean(update["page"])

    # ------------------------------------------------------------------
    # Home side
    # ------------------------------------------------------------------

    def _home_grant(
        self,
        desc: RegionDescriptor,
        page_addr: int,
        mode: LockMode,
        requester: int,
    ) -> ProtocolGen:
        """Serialized directory transaction at the home node; returns
        the page bytes the requester needs (None when the requester
        already holds a current copy)."""
        result = yield from self.engine.home.run(
            page_addr,
            self.engine.directory.home_grant(desc, page_addr, mode,
                                             requester),
        )
        return result

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------

    def handle_lock_request(self, desc: RegionDescriptor, msg: Message) -> None:
        mode = LockMode(msg.payload["mode"])
        pages = [int(p) for p in msg.payload["pages"]]
        if not self.check_remote_access(desc, msg, mode):
            return
        if msg.payload.get("direct"):
            self.engine.directory.serve_owner_read(desc, msg, pages)
            return
        if not self.primary_only(desc, msg):
            return

        def grant_one(page_addr: int) -> ProtocolGen:
            # Per-page grants with per-page errors (the client rolls
            # its side back on any error).
            try:
                data = yield from self._home_grant(desc, page_addr, mode,
                                                   msg.src)
            except KhazanaError as error:
                return error_item(page_addr, error.code, str(error))
            entry = self.host.page_directory.get(page_addr)
            return {"page": page_addr, "data": data,
                    "owner": entry.owner if entry is not None else None}

        self.engine.batch.serve_pages(msg, MessageType.LOCK_REPLY, pages,
                                      grant_one, "grant")

    def handle_page_fetch(self, desc: RegionDescriptor, msg: Message) -> None:
        self.engine.directory.serve_owner_fetch(desc, msg)

    def handle_invalidate(self, desc: RegionDescriptor, msg: Message) -> None:
        self.engine.directory.serve_invalidate(desc, msg)

    def handle_update(self, desc: RegionDescriptor, msg: Message) -> None:
        """Write-back from an owner at lock release (home side)."""
        updates = msg.payload["updates"]
        me = self.host.node_id

        def apply() -> ProtocolGen:
            for update in updates:
                page_addr = int(update["page"])
                yield from self.host.store_local_page(
                    desc, page_addr, update["data"],
                    dirty=me != desc.primary_home,
                )
                entry = self.host.page_directory.ensure(
                    page_addr, desc.rid, homed=me in desc.home_nodes
                )
                entry.allocated = True
                if self.pages.state(page_addr) is LocalPageState.INVALID:
                    # A durability write-back, not a coherent cached
                    # copy: the owner may keep writing without telling
                    # us, so we must not appear in the copyset.
                    self.pages.fire(page_addr, PageEvent.WRITEBACK_COPY)
                    entry.sharers.discard(me)
            self.engine.reply(msg, MessageType.UPDATE_ACK, {})

        self.engine.spawn_handler(msg, apply(), "writeback")
