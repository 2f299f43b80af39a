"""Owner/copyset coherence transactions for home-directory protocols.

The mechanism half of a CREW-style grant: fetch the current bytes
(from the local store or the remote owner), demote or revoke the
owner, invalidate the copyset, and wait out local lock contexts.  The
policy half — *when* to invalidate whom — stays in the protocol
module; these helpers only know how to move copies safely.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.consistency.engine.batch import error_item
from repro.consistency.engine.state import LocalPageState, PageEvent
from repro.core.errors import KhazanaError, NotAllocated
from repro.core.locks import LockMode
from repro.core.region import RegionDescriptor
from repro.net.message import MessageType
from repro.net.rpc import RemoteError, RetryPolicy, RpcTimeout
from repro.net.tasks import Future, gather_settled

ProtocolGen = Any   # Generator[Future, Any, Any]


class DirectoryCoherence:
    """Copy-movement transactions run at a page's home node."""

    def __init__(self, engine: Any,
                 policy: Optional[RetryPolicy] = None) -> None:
        self.engine = engine
        self.host = engine.host
        #: RetryPolicy for the constituent RPCs; set by the protocol.
        self.policy = policy

    def wait_local_unlocked(self, page_addr: int,
                            mode: LockMode) -> ProtocolGen:
        """Suspend until no local context conflicts with ``mode``."""
        cm = self.engine.cm
        while self.host.lock_table.conflicts(page_addr, mode):
            gate = Future(label=f"local-unlock:{page_addr:#x}")
            cm.defer_until_unlocked(page_addr, lambda: gate.set_result(None))
            yield gate

    def read_copy(self, desc: RegionDescriptor, entry: Any) -> ProtocolGen:
        """Bytes of the page, fetching from a remote owner if the home
        copy is stale (owner holds it EXCLUSIVE)."""
        cm = self.engine.cm
        me = self.host.node_id
        page_addr = entry.address
        if entry.owner == me or me in entry.sharers:
            # A local write context is mid-modification; the CM
            # "delays granting the locks until the conflict is
            # resolved" (3.3) for remote readers too.
            yield from self.wait_local_unlocked(page_addr, LockMode.READ)
            data = yield from self.host.local_page_bytes(desc, page_addr)
            if data is not None:
                return data
        if entry.owner is not None and entry.owner != me:
            try:
                reply = yield self.engine.request(
                    entry.owner,
                    MessageType.PAGE_FETCH,
                    {"rid": desc.rid, "pages": [page_addr], "demote": True},
                    policy=self.policy,
                )
                data = reply.payload["pages"][0]["data"]
                yield from self.host.store_local_page(
                    desc, page_addr, data, dirty=False
                )
                entry.record_sharer(me)
                cm.pages.fire(page_addr, PageEvent.READ_FILL)
                return data
            except (RpcTimeout, RemoteError):
                entry.forget_sharer(entry.owner)
        # Fall back to whatever the home has (zero-filled if untouched).
        data = yield from self.host.local_page_bytes(desc, page_addr)
        if data is None:
            raise KhazanaError(
                f"home node lost page {page_addr:#x} and owner is gone"
            )
        entry.owner = me
        entry.record_sharer(me)
        return data

    def take_local_copy(self, desc: RegionDescriptor, page_addr: int,
                        invalidate: bool) -> ProtocolGen:
        """Home surrenders its own copy (waiting out local locks)."""
        yield from self.wait_local_unlocked(page_addr, LockMode.WRITE)
        data = yield from self.host.local_page_bytes(desc, page_addr)
        if data is None:
            raise KhazanaError(f"home has no copy of page {page_addr:#x}")
        if invalidate:
            self.host.drop_local_page(page_addr)
            self.engine.cm.pages.fire(page_addr, PageEvent.INVALIDATE)
        return data

    def revoke_owner(self, desc: RegionDescriptor, entry: Any,
                     page_addr: int, owner: int) -> ProtocolGen:
        try:
            reply = yield self.engine.request(
                owner,
                MessageType.PAGE_FETCH,
                {"rid": desc.rid, "pages": [page_addr], "revoke": True},
                policy=self.policy,
            )
            return reply.payload["pages"][0]["data"]
        except (RpcTimeout, RemoteError):
            entry.forget_sharer(owner)
            return None

    def invalidate_nodes(self, desc: RegionDescriptor, entry: Any,
                         page_addr: int, victims: List[int]) -> ProtocolGen:
        cm = self.engine.cm
        me = self.host.node_id
        requests = []
        for node in victims:
            if node == me:
                yield from self.wait_local_unlocked(page_addr, LockMode.WRITE)
                self.host.drop_local_page(page_addr)
                cm.pages.fire(page_addr, PageEvent.INVALIDATE)
                entry.forget_sharer(me)
                continue
            requests.append(
                (node, self.engine.request(
                    node,
                    MessageType.INVALIDATE,
                    {"rid": desc.rid, "page": page_addr},
                    policy=self.policy,
                ))
            )
        if requests:
            outcomes = yield gather_settled(
                [future for _node, future in requests], label="invalidate"
            )
            for (node, _future), (ok, _value) in zip(requests, outcomes):
                # Whether acked or unreachable, the node no longer
                # counts as a sharer; a crashed node's copy dies with it.
                entry.forget_sharer(node)

    def serve_owner_read(self, desc: RegionDescriptor, msg: Any,
                         pages: List[int]) -> None:
        """Owner side of a direct read (Figure 2 fast path): per page,
        wait out local writers, register the requester with the home,
        demote, grant.  A page whose owner hint is stale gets a
        ``not_responsible`` error item."""
        engine = self.engine
        cm = engine.cm
        me = self.host.node_id

        def serve_one(page_addr: int) -> ProtocolGen:
            entry = self.host.page_directory.get(page_addr)
            if (entry is None or entry.owner != me
                    or cm.pages.state(page_addr) is LocalPageState.INVALID):
                return error_item(page_addr, "not_responsible",
                                  "stale owner hint")
            yield from self.wait_local_unlocked(page_addr, LockMode.READ)
            data = yield from self.host.local_page_bytes(desc, page_addr)
            if data is None:
                return error_item(page_addr, "not_responsible",
                                  "owner copy evicted")
            # Register the requester in the home's copyset *before*
            # handing out the copy (steps 7-9 of Figure 2): if the
            # registration raced a later write's invalidation round,
            # the requester could keep a stale copy forever.
            home = desc.primary_home
            if home != me:
                try:
                    yield engine.request(
                        home, MessageType.SHARER_REGISTER,
                        {"rid": desc.rid, "page": page_addr,
                         "sharer": msg.src},
                        policy=self.policy,
                    )
                except (RpcTimeout, RemoteError):
                    return error_item(
                        page_addr, "not_responsible",
                        "could not register the new sharer with the home")
            # Demote to shared, then grant.
            cm.pages.fire(page_addr, PageEvent.DEMOTE)
            return {"page": page_addr, "data": data, "owner": me}

        engine.batch.serve_pages(msg, MessageType.LOCK_REPLY, pages,
                                 serve_one, "direct-read")

    def serve_owner_fetch(self, desc: RegionDescriptor, msg: Any) -> None:
        """Owner side of a home's PAGE_FETCH: serve each page's current
        bytes, optionally revoking or demoting the local copy first."""
        cm = self.engine.cm
        revoke = bool(msg.payload.get("revoke"))
        demote = bool(msg.payload.get("demote"))

        def serve_one(page_addr: int) -> ProtocolGen:
            wait_mode = LockMode.WRITE if revoke else LockMode.READ
            yield from self.wait_local_unlocked(page_addr, wait_mode)
            data = yield from self.host.local_page_bytes(desc, page_addr)
            if data is None:
                return error_item(page_addr, "not_responsible",
                                  "no local copy")
            if revoke:
                self.host.drop_local_page(page_addr)
                cm.pages.fire(page_addr, PageEvent.INVALIDATE)
            elif demote:
                cm.pages.fire(page_addr, PageEvent.DEMOTE)
                self.host.storage.mark_clean(page_addr)
            return {"page": page_addr, "data": data}

        self.engine.batch.serve_pages(
            msg, MessageType.PAGE_DATA,
            [int(p) for p in msg.payload["pages"]], serve_one, "fetch")

    def serve_invalidate(self, desc: RegionDescriptor, msg: Any) -> None:
        """Destroy the local copy and ack — but only once local
        readers finish: the CM "delays granting" conflicting
        operations (paper 3.3), and symmetrically an invalidation
        waits for local contexts before the copy is destroyed."""
        cm = self.engine.cm
        page_addr = msg.payload["page"]

        def apply() -> None:
            self.host.drop_local_page(page_addr)
            cm.pages.fire(page_addr, PageEvent.INVALIDATE)
            self.engine.reply(msg, MessageType.INVALIDATE_ACK, {})

        if self.host.lock_table.page_locked(page_addr):
            cm.defer_until_unlocked(page_addr, apply)
        else:
            apply()

    def home_grant(self, desc: RegionDescriptor, page_addr: int,
                   mode: LockMode, requester: int) -> ProtocolGen:
        """One home-side grant transaction: bootstrap ownership, then
        hand out a read copy or claim exclusivity for the requester.
        Run it under :class:`HomeTransactions` so grants serialize.
        """
        cm = self.engine.cm
        me = self.host.node_id
        entry = self.host.page_directory.ensure(page_addr, desc.rid,
                                                homed=True)
        if not entry.allocated:
            raise NotAllocated(
                f"page {page_addr:#x} of region {desc.rid:#x} has no "
                "allocated storage"
            )
        if entry.owner is None:
            entry.owner = me
            entry.record_sharer(me)
        if mode is LockMode.READ:
            data = yield from self.read_copy(desc, entry)
            entry.record_sharer(requester)
            if requester != me and cm.pages.state(page_addr) is (
                LocalPageState.EXCLUSIVE
            ):
                # Handing out a read copy ends local exclusivity; a
                # later local write must invalidate the new sharer.
                cm.pages.fire(page_addr, PageEvent.DEMOTE)
            return data
        data = yield from self.claim_for_writer(desc, entry, page_addr,
                                                requester)
        return data

    def claim_for_writer(self, desc: RegionDescriptor, entry: Any,
                         page_addr: int, requester: int) -> ProtocolGen:
        """Invalidate every cached copy except the requester's, then
        move ownership (and data, if needed) to the requester."""
        me = self.host.node_id
        data: Optional[bytes] = None
        victims = [
            node for node in sorted(entry.sharers)
            if node not in (requester, entry.owner)
        ]
        yield from self.invalidate_nodes(desc, entry, page_addr, victims)

        owner = entry.owner
        if owner == requester:
            pass   # upgrade: requester's copy is already current
        elif owner == me:
            data = yield from self.take_local_copy(
                desc, page_addr, invalidate=requester != me
            )
        else:
            data = yield from self.revoke_owner(desc, entry, page_addr, owner)
            if data is None:
                # Owner unreachable: fall back to the home's write-back
                # copy (paper 3.5: operations retried on known nodes,
                # availability preferred).
                data = yield from self.take_local_copy(
                    desc, page_addr, invalidate=requester != me
                )
        entry.owner = requester
        entry.sharers = {requester}
        if requester == me:
            entry.record_sharer(me)
        if self.host.probe.enabled:
            self.host.probe.exclusive_grant(me, page_addr, requester)
        return data
